// Package plan implements the adaptive physical-plan selector of §4.1: the
// compiler produces several physical strategies for each accum join
// (nested-loop scan, uniform grid, orthogonal range tree, hash), and the
// engine switches among them at runtime as the workload regime shifts.
// Switching uses a cost model fed by package stats plus hysteresis so the
// engine does not thrash when a game oscillates briefly (§4.1: games
// "transition periodically between a small number of different states").
package plan

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Strategy names a physical execution strategy for an accum join.
type Strategy uint8

const (
	// Auto lets the selector decide per tick.
	Auto Strategy = iota
	// NestedLoop scans the whole source extent per probing row.
	NestedLoop
	// GridIndex probes a per-tick uniform grid (2-D ranges only).
	GridIndex
	// RangeTreeIndex probes a per-tick orthogonal range tree.
	RangeTreeIndex
	// HashIndex probes a per-tick hash table (equality joins).
	HashIndex
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case NestedLoop:
		return "nested-loop"
	case GridIndex:
		return "grid"
	case RangeTreeIndex:
		return "range-tree"
	case HashIndex:
		return "hash"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ExecMode selects how per-row expression work (update rules and simple
// effect-phase scripts) is executed: through the vectorized batch kernels
// of package vexpr that stream whole column slices set-at-a-time (the
// default), or through the scalar closure evaluator of package expr.
type ExecMode uint8

const (
	// ExecVectorized runs every phase and update rule that compiled to
	// kernels as kernels (the default); the rest runs scalar.
	ExecVectorized ExecMode = iota
	// ExecScalar forces the closure evaluator everywhere: the reference
	// arm of the differential walls.
	ExecScalar
)

func (m ExecMode) String() string {
	switch m {
	case ExecVectorized:
		return "vectorized"
	case ExecScalar:
		return "scalar"
	default:
		return fmt.Sprintf("exec(%d)", uint8(m))
	}
}

// JoinMode selects how accum-join matches execute: through the batched
// driver that gathers candidate rows, re-checks the split predicate and
// folds contributions columnar (the default), or through the scalar
// interpreted loop body.
type JoinMode uint8

const (
	// JoinBatched runs every site with an analyzed join through the batched
	// driver (the default); general-form accums still run scalar.
	JoinBatched JoinMode = iota
	// JoinScalar forces the interpreted per-match body everywhere.
	JoinScalar
)

func (m JoinMode) String() string {
	switch m {
	case JoinBatched:
		return "batched"
	case JoinScalar:
		return "scalar"
	default:
		return fmt.Sprintf("join(%d)", uint8(m))
	}
}

// TxnMode selects how transaction admission (§3.1) executes: through the
// batched driver that groups conflict-independent transactions, validates
// the independent ones whole-batch against a columnar tentative view, and
// fans true conflict groups out across the worker pool (the default), or
// through the serial object-at-a-time greedy loop.
type TxnMode uint8

const (
	// TxnBatched admits a batch through the batched driver whenever every
	// transaction's atomic block is analyzable (the default); otherwise the
	// batch falls back to the serial loop.
	TxnBatched TxnMode = iota
	// TxnScalar forces the serial per-transaction greedy loop.
	TxnScalar
)

func (m TxnMode) String() string {
	switch m {
	case TxnBatched:
		return "batched"
	case TxnScalar:
		return "scalar"
	default:
		return fmt.Sprintf("txn(%d)", uint8(m))
	}
}

// ViewMode selects how a client subscription view (internal/views) is
// brought up to date for one tick: by filtering the tick's changed-row
// candidates through the subscription's mask kernel (delta maintenance), or
// by re-evaluating the predicate over the whole class extent (rescan).
type ViewMode uint8

const (
	// ViewAuto lets the cost model pick per subscription and tick (the
	// default).
	ViewAuto ViewMode = iota
	// ViewDelta forces incremental maintenance from the changefeed.
	ViewDelta
	// ViewRescan forces a full-extent re-evaluation every tick — the naive
	// per-client path and the differential reference for delta maintenance.
	ViewRescan
)

func (m ViewMode) String() string {
	switch m {
	case ViewAuto:
		return "auto"
	case ViewDelta:
		return "delta"
	case ViewRescan:
		return "rescan"
	default:
		return fmt.Sprintf("view(%d)", uint8(m))
	}
}

// Costs holds the tunable constants of the cost model, in abstract units of
// "one row visit". They are hand-set, not calibrated: only ViewProbe was
// ever checked against a measurement. They feed the decisions that stay
// cost-based — the accum-join strategy (Selector), the view maintenance mode
// (ChooseView, ChooseViewIndex) and the hibernation horizon; the execution
// axes (Exec, Join, Txn, Workers) follow structural rules in the engine.
type Costs struct {
	NLVisit    float64 // visiting one source row in a nested loop
	GridBuild  float64 // inserting one row into the grid
	GridProbe  float64 // fixed probe overhead (cell walk)
	TreeBuild  float64 // amortized per-row tree build cost (× log n)
	TreeProbe  float64 // per-probe search cost (× log² n)
	MatchVisit float64 // evaluating residual + contributions per match

	// Subscription views (internal/views): the per-kernel-op cost of
	// filtering one changed-row candidate through a subscription's mask
	// kernel (gather + compact-lane eval + membership merge) versus
	// streaming one extent row through the same kernel on a full rescan.
	// Delta maintenance pays more per row (candidate gather and the
	// sorted-member merge) but visits only the rows the changefeed names;
	// the ratio sets the churn fraction above which rescanning wins (see
	// ChooseView). ViewSetup is the fixed cost of arming one subscription's
	// own path for a tick and ViewProbe the cost of one point probe of a
	// subscription index (cell walk, exact recheck, event bucketing): a
	// group of same-shape subscriptions is probed once per touched row
	// instead of run one by one when that is cheaper (see ChooseViewIndex).
	ViewDeltaRow float64
	ViewScanRow  float64
	ViewSetup    float64
	ViewProbe    float64

	// Hibernation (many-world server): the per-tick cost of keeping an idle
	// world resident (its share of arena/scratch memory pressure, in row
	// visits) and the per-row cost of one checkpoint + restore round trip.
	// Their ratio sets the idle horizon past which parking the world pays.
	// See HibernateHorizon.
	IdleTickCost float64
	HibernateRow float64
}

// DefaultCosts returns the hand-set defaults.
func DefaultCosts() Costs {
	return Costs{
		NLVisit:    1.0,
		GridBuild:  1.5,
		GridProbe:  4.0,
		TreeBuild:  2.5,
		TreeProbe:  1.5,
		MatchVisit: 1.2,

		ViewDeltaRow: 2.0,
		ViewScanRow:  1.0,
		ViewSetup:    16,
		ViewProbe:    96,

		IdleTickCost: 32,
		HibernateRow: 0.5,
	}
}

// ChooseView resolves the maintenance mode for one subscription this tick:
// forced modes pass through; ViewAuto compares the modeled cost of pushing
// the tick's candidate rows through the delta path (per-candidate gather,
// kernel lane, membership merge) against re-evaluating the whole live
// extent. Quiet ticks keep delta maintenance; churn approaching the extent
// size — mass migration, a battle-royale collapse — tips into rescan, which
// touches each row once with no merge bookkeeping. Both paths are pinned
// bit-identical, so the decision is pure cost (the kernel count and the
// per-subscription setup weigh on both sides alike and cancel).
func (c Costs) ChooseView(mode ViewMode, live, candidates int) ViewMode {
	if mode != ViewAuto {
		return mode
	}
	if c.ViewDeltaRow*float64(candidates) <= c.ViewScanRow*float64(live) {
		return ViewDelta
	}
	return ViewRescan
}

// ChooseViewIndex decides, for one group of subs same-shape indexed
// subscriptions this tick, whether probing the group's subscription index
// with the tick's touched rows (once at the last-applied point, once at the
// new one) beats running every subscription's own delta-or-rescan path —
// §4.1's index join against the nested loop, with the subscriptions as the
// indexed relation. Small groups under heavy churn (a fifty-spectator world
// where every row changes every tick) stay on the per-subscription path;
// thousands of spectators over a mostly quiet extent take the index.
func (c Costs) ChooseViewIndex(subs, live, touched, kernels int) bool {
	k := float64(kernels)
	if k < 1 {
		k = 1
	}
	perRow := math.Min(c.ViewDeltaRow*float64(touched), c.ViewScanRow*float64(live))
	perSub := float64(subs) * (c.ViewSetup + k*perRow)
	return 2*c.ViewProbe*float64(touched) < perSub
}

// HibernateHorizon returns the number of consecutive idle ticks after which
// hibernating a world of the given row count pays: the checkpoint+restore
// round trip (2·HibernateRow·rows) amortized against the per-tick residency
// cost of keeping it warm. Small worlds park quickly; large worlds need a
// longer quiet spell before the round trip is worth it.
func (c Costs) HibernateHorizon(rows int) int {
	if c.IdleTickCost <= 0 {
		return 1
	}
	h := int(math.Ceil(2 * c.HibernateRow * float64(rows) / c.IdleTickCost))
	if h < 1 {
		h = 1
	}
	return h
}

// Selector picks a strategy for one accum site and applies hysteresis.
type Selector struct {
	Costs Costs
	// SwitchMargin is the fractional cost improvement a challenger must
	// show before a switch is considered (e.g. 0.2 = 20% cheaper).
	SwitchMargin float64
	// SwitchTicks is how many consecutive ticks the challenger must win
	// before the switch happens.
	SwitchTicks int

	current    Strategy
	challenger Strategy
	wins       int
	switches   int64
}

// NewSelector returns a selector starting on the given strategy.
func NewSelector(initial Strategy) *Selector {
	return &Selector{
		Costs:        DefaultCosts(),
		SwitchMargin: 0.2,
		SwitchTicks:  3,
		current:      initial,
	}
}

// Current returns the strategy in force.
func (s *Selector) Current() Strategy { return s.current }

// Switches returns how many plan switches have happened.
func (s *Selector) Switches() int64 { return s.switches }

// Force pins the selector to a strategy (used for static-plan baselines and
// ablations).
func (s *Selector) Force(st Strategy) { s.current, s.challenger, s.wins = st, Auto, 0 }

// Estimate returns the modeled per-tick cost of a strategy given n source
// rows, p probing rows and k̂ expected matches per probe. dims is the number
// of indexed range dimensions (0 means equality-only).
func (s *Selector) Estimate(st Strategy, n, p int, kHat float64, dims int) float64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	fn, fp := float64(n), float64(p)
	logN := math.Log2(fn + 2)
	match := s.Costs.MatchVisit * kHat * fp
	switch st {
	case NestedLoop:
		return s.Costs.NLVisit*fn*fp + match
	case GridIndex:
		return s.Costs.GridBuild*fn + s.Costs.GridProbe*fp + match
	case RangeTreeIndex:
		probe := s.Costs.TreeProbe * math.Pow(logN, float64(maxInt(dims, 1)))
		return s.Costs.TreeBuild*fn*logN + probe*fp + match
	case HashIndex:
		return s.Costs.GridBuild*fn + 1.0*fp + match
	default:
		return math.Inf(1)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Choose evaluates candidates and applies hysteresis, returning the
// strategy to use this tick. site may be nil on the first tick (no
// feedback yet), in which case the reservoir estimate k̂ should be passed
// via kHat.
func (s *Selector) Choose(candidates []Strategy, n, p int, kHat float64, dims int, site *stats.SiteStats) Strategy {
	if len(candidates) == 0 {
		return s.current
	}
	if site != nil && site.MatchPerProbe.Ready() {
		kHat = site.MatchPerProbe.Value()
	}
	if s.current == Auto {
		s.current = candidates[0]
	}
	best, bestCost := s.current, s.Estimate(s.current, n, p, kHat, dims)
	for _, c := range candidates {
		if c == s.current {
			continue
		}
		if cost := s.Estimate(c, n, p, kHat, dims); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	curCost := s.Estimate(s.current, n, p, kHat, dims)
	if best != s.current && curCost > 0 && (curCost-bestCost)/curCost >= s.SwitchMargin {
		if s.challenger == best {
			s.wins++
		} else {
			s.challenger, s.wins = best, 1
		}
		if s.wins >= s.SwitchTicks {
			s.current = best
			s.challenger, s.wins = Auto, 0
			s.switches++
		}
	} else {
		s.challenger, s.wins = Auto, 0
	}
	return s.current
}
