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
// effect-phase scripts) is executed: through the scalar closure evaluator
// of package expr, or through the vectorized batch kernels of package
// vexpr that stream whole column slices set-at-a-time.
type ExecMode uint8

const (
	// ExecAuto lets the cost model pick per class and tick (the default).
	ExecAuto ExecMode = iota
	// ExecScalar forces the closure evaluator everywhere.
	ExecScalar
	// ExecVectorized forces batch kernels wherever an expression compiled
	// to one (non-columnar expressions still run scalar).
	ExecVectorized
)

func (m ExecMode) String() string {
	switch m {
	case ExecAuto:
		return "auto"
	case ExecScalar:
		return "scalar"
	case ExecVectorized:
		return "vectorized"
	default:
		return fmt.Sprintf("exec(%d)", uint8(m))
	}
}

// JoinMode selects how accum-join matches execute: through the scalar
// interpreted loop body, or through the batched driver that gathers
// candidate rows, re-checks the split predicate and folds contributions
// columnar.
type JoinMode uint8

const (
	// JoinAuto lets the cost model pick per site and tick (the default).
	JoinAuto JoinMode = iota
	// JoinScalar forces the interpreted per-match body everywhere.
	JoinScalar
	// JoinBatched forces the batch-gathered driver wherever the site has an
	// analyzed join (general-form accums still run scalar).
	JoinBatched
)

func (m JoinMode) String() string {
	switch m {
	case JoinAuto:
		return "auto"
	case JoinScalar:
		return "scalar"
	case JoinBatched:
		return "batched"
	default:
		return fmt.Sprintf("join(%d)", uint8(m))
	}
}

// TxnMode selects how transaction admission (§3.1) executes: through the
// serial object-at-a-time greedy loop, or through the batched driver that
// groups conflict-independent transactions, validates the independent ones
// whole-batch against a columnar tentative view, and fans true conflict
// groups out across the worker pool.
type TxnMode uint8

const (
	// TxnAuto lets the cost model pick per tick (the default).
	TxnAuto TxnMode = iota
	// TxnScalar forces the serial per-transaction greedy loop.
	TxnScalar
	// TxnBatched forces the grouped/batched admission driver wherever the
	// program's atomic blocks are analyzable (unanalyzable constraint read
	// sets still fall back to the serial loop).
	TxnBatched
)

func (m TxnMode) String() string {
	switch m {
	case TxnAuto:
		return "auto"
	case TxnScalar:
		return "scalar"
	case TxnBatched:
		return "batched"
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

// Maint names a per-tick index maintenance decision for one accum site.
type Maint uint8

const (
	// MaintRebuild rebuilds the index from the current extent (into the
	// site's retained arena).
	MaintRebuild Maint = iota
	// MaintReuse keeps last tick's index untouched (nothing changed).
	MaintReuse
)

func (m Maint) String() string {
	switch m {
	case MaintRebuild:
		return "rebuild"
	case MaintReuse:
		return "reuse"
	default:
		return fmt.Sprintf("maint(%d)", uint8(m))
	}
}

// Costs holds the tunable constants of the cost model, in abstract units of
// "one row visit". Defaults were calibrated on the bench workloads; the
// ablation bench E7b perturbs them.
type Costs struct {
	NLVisit    float64 // visiting one source row in a nested loop
	GridBuild  float64 // inserting one row into the grid
	GridProbe  float64 // fixed probe overhead (cell walk)
	TreeBuild  float64 // amortized per-row tree build cost (× log n)
	TreeProbe  float64 // per-probe search cost (× log² n)
	MatchVisit float64 // evaluating residual + contributions per match

	ScalarVisit float64 // interpreting one closure tree for one row
	VecVisit    float64 // streaming one row through one batch kernel
	VecSetup    float64 // per-extent fixed cost (effect/id vector builds)

	WorkerSpawn float64 // dispatching one worker shard (goroutine + barrier share)

	// Join-execution axis: interpreting one candidate through the scalar
	// loop body versus gathering and folding it in the batched driver
	// (cheaper again when the contribution folds columnar), plus the fixed
	// per-probe overhead of setting the batch up.
	JoinScalarMatch float64
	JoinBatchRow    float64
	JoinBatchRowVec float64
	JoinBatchProbe  float64

	// Transaction-admission axis (§3.1): validating one transaction through
	// the serial greedy loop (per-candidate rule replay) versus streaming it
	// through a batched constraint lane, plus the fixed batch setup and the
	// per-row cost of materializing the columnar tentative view the lanes
	// read. See ChooseTxn.
	TxnScalarCheck float64
	TxnBatchLane   float64
	TxnBatchSetup  float64
	TxnViewRow     float64

	// Layout maintenance (partitioned execution): the per-tick penalty
	// weight of one boundary migration under the current layout, the
	// one-time per-row cost of installing a successor layout epoch
	// (re-measure/quantile refit + mass migration), and the tick horizon
	// the one-time cost amortizes over. See ChooseRebalance.
	MigrateRow       float64
	RelayoutRow      float64
	RebalanceHorizon float64

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

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs {
	return Costs{
		NLVisit:    1.0,
		GridBuild:  1.5,
		GridProbe:  4.0,
		TreeBuild:  2.5,
		TreeProbe:  1.5,
		MatchVisit: 1.2,

		ScalarVisit: 1.0,
		VecVisit:    0.3,
		VecSetup:    48,

		WorkerSpawn: 512,

		JoinScalarMatch: 3.0,
		JoinBatchRow:    1.0,
		JoinBatchRowVec: 0.35,
		JoinBatchProbe:  4.0,

		TxnScalarCheck: 14.0,
		TxnBatchLane:   1.5,
		TxnBatchSetup:  32,
		TxnViewRow:     0.35,

		MigrateRow:       2.0,
		RelayoutRow:      3.0,
		RebalanceHorizon: 30,

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

// ChooseJoin resolves the join-execution mode for one accum site this tick:
// forced modes pass through; JoinAuto compares the modeled per-probe cost of
// interpreting kHat matches through the loop body against batch-gathering
// them (with the cheaper fold rate when the contribution is vectorizable).
// Sites with very low match cardinality stay scalar — the batch setup cannot
// amortize.
func (c Costs) ChooseJoin(mode JoinMode, kHat float64, vecInner bool) JoinMode {
	if mode != JoinAuto {
		return mode
	}
	row := c.JoinBatchRow
	if vecInner {
		row = c.JoinBatchRowVec
	}
	scalar := c.JoinScalarMatch * kHat
	batched := c.JoinBatchProbe + row*kHat
	if batched < scalar {
		return JoinBatched
	}
	return JoinScalar
}

// ChooseTxn resolves the transaction-admission mode for one tick's batch:
// forced modes pass through; TxnAuto compares the modeled cost of replaying
// n candidates through the serial greedy loop against batching them —
// fixed setup, one tentative-view row per affected lane (viewRows), the
// batchable fraction fBatch of candidates streamed through constraint
// kernels, and the remainder still validated serially (conflict groups).
// fBatch is per-tick feedback: the observed fraction of singleton
// (conflict-independent) transactions, analogous to ChooseJoin's k̂. Tiny
// batches stay scalar — the view and setup cannot amortize.
func (c Costs) ChooseTxn(mode TxnMode, n, viewRows, fBatch float64) TxnMode {
	if mode != TxnAuto {
		return mode
	}
	if n <= 0 {
		return TxnScalar
	}
	if fBatch < 0 {
		fBatch = 0
	} else if fBatch > 1 {
		fBatch = 1
	}
	scalar := c.TxnScalarCheck * n
	batched := c.TxnBatchSetup + c.TxnViewRow*viewRows +
		c.TxnBatchLane*n*fBatch + c.TxnScalarCheck*n*(1-fBatch)
	if batched < scalar {
		return TxnBatched
	}
	return TxnScalar
}

// ChooseMaint resolves the per-tick index maintenance decision for a site
// of which dirty source columns or structure versions moved since the
// retained index was built: an untouched index is reused, anything else is
// rebuilt — a counting-sort grid or tree rebuild undercuts diffing at the
// churn rates games see (§4.1).
func (c Costs) ChooseMaint(dirty int) Maint {
	if dirty == 0 {
		return MaintReuse
	}
	return MaintRebuild
}

// ChooseWorkers is the parallelism axis of the two-axis execution model: it
// picks how many of maxWorkers are worth fanning out for one class extent
// whose modeled per-tick work is `work` cost units (from the same scale as
// ChooseExec: scalar rows × kernels, or vector lanes × kernels). Parallel
// cost is work/k + WorkerSpawn·k, minimized at k* = √(work/WorkerSpawn), so
// small extents return 1 and stay on the calling goroutine — goroutine
// fan-out must never be paid where a serial pass is cheaper.
func (c Costs) ChooseWorkers(maxWorkers int, work float64) int {
	if maxWorkers <= 1 || work <= 0 || c.WorkerSpawn <= 0 {
		return 1
	}
	k := int(math.Sqrt(work / c.WorkerSpawn))
	if k < 1 {
		k = 1
	}
	if k > maxWorkers {
		k = maxWorkers
	}
	return k
}

// ChooseExec resolves an execution mode for one batch of expression work
// this tick: forced modes pass through, and ExecAuto compares the modeled
// cost of interpreting rows × kernels closure nodes against streaming
// lanes × kernels batch lanes plus fixed setup. rows is the number of rows
// the scalar path would actually visit (live rows at the right script
// phase); lanes is the number of physical lanes the kernels stream (the
// table capacity — batch execution cannot skip holes or other phases).
// Small or sparse extents stay scalar; everything else vectorizes — the
// paper's set-at-a-time default.
func (c Costs) ChooseExec(mode ExecMode, rows, lanes, kernels int) ExecMode {
	if mode != ExecAuto {
		return mode
	}
	if rows <= 0 || kernels <= 0 {
		return ExecScalar
	}
	scalar := c.ScalarVisit * float64(rows) * float64(kernels)
	vec := c.VecSetup + c.VecVisit*float64(lanes)*float64(kernels)
	if vec < scalar {
		return ExecVectorized
	}
	return ExecScalar
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
