// Package stats collects the lightweight runtime statistics that drive
// adaptive query optimization (§4.1 of the paper). The workload property
// that matters for accum joins is the expected number of matches per probe,
// which shifts dramatically between game regimes (exploring vs fighting).
// Histograms are a poor fit for multi-dimensional range predicates over
// fast-changing data (§4.1 cites [2]), so we combine two cheap mechanisms:
//
//   - per-site exponential moving averages of observed matches/probe,
//     updated from execution feedback (free to collect); and
//   - a bounded reservoir sample of positions, refreshed per tick, that
//     answers "how many points fall in this box" for plans that have not
//     run recently.
package stats

import "math/rand"

// EMA is an exponential moving average with configurable smoothing.
type EMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEMA returns an EMA with smoothing factor alpha in (0, 1]; larger alpha
// reacts faster.
func NewEMA(alpha float64) EMA { return EMA{alpha: alpha} }

// Add folds a sample.
func (e *EMA) Add(x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	e.v += e.alpha * (x - e.v)
}

// Value returns the current average (0 before any sample).
func (e *EMA) Value() float64 { return e.v }

// Ready reports whether at least one sample arrived.
func (e *EMA) Ready() bool { return e.init }

// SiteStats tracks one accum site's per-tick execution feedback.
type SiteStats struct {
	// Per-tick counters, reset by EndTick.
	Probes  int64
	Matches int64
	// Smoothed views.
	MatchPerProbe EMA
	ProbeCount    EMA
}

// NewSiteStats returns site statistics with moderate smoothing.
func NewSiteStats() *SiteStats {
	return &SiteStats{
		MatchPerProbe: NewEMA(0.3),
		ProbeCount:    NewEMA(0.3),
	}
}

// EndTick folds this tick's counters into the moving averages and resets
// them.
func (s *SiteStats) EndTick() {
	if s.Probes > 0 {
		s.MatchPerProbe.Add(float64(s.Matches) / float64(s.Probes))
	}
	s.ProbeCount.Add(float64(s.Probes))
	s.Probes, s.Matches = 0, 0
}

// Reservoir is a fixed-size uniform sample of 2-D points maintained with
// reservoir sampling; it estimates box selectivity for the cost model.
type Reservoir struct {
	cap  int
	pts  [][2]float64
	seen int64
	rng  *rand.Rand
}

// NewReservoir returns a reservoir holding up to capacity points. seed
// makes sampling deterministic for replay.
func NewReservoir(capacity int, seed int64) *Reservoir {
	return &Reservoir{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Reset empties the reservoir for a new tick's population.
func (r *Reservoir) Reset() {
	r.pts = r.pts[:0]
	r.seen = 0
}

// Add offers one point to the sample.
func (r *Reservoir) Add(x, y float64) {
	r.seen++
	if len(r.pts) < r.cap {
		r.pts = append(r.pts, [2]float64{x, y})
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.pts[j] = [2]float64{x, y}
	}
}

// Len returns the number of sampled points.
func (r *Reservoir) Len() int { return len(r.pts) }

// Seen returns the number of points offered since Reset.
func (r *Reservoir) Seen() int64 { return r.seen }

// EstimateBoxCount estimates how many of the seen points fall inside the
// closed box, by scaling the sample fraction.
func (r *Reservoir) EstimateBoxCount(lo0, lo1, hi0, hi1 float64) float64 {
	if len(r.pts) == 0 {
		return 0
	}
	in := 0
	for _, p := range r.pts {
		if p[0] >= lo0 && p[0] <= hi0 && p[1] >= lo1 && p[1] <= hi1 {
			in++
		}
	}
	return float64(in) / float64(len(r.pts)) * float64(r.seen)
}

// Spread summarizes positional dispersion: a small spread (clustered
// armies) favors grids; a large spread with small query boxes favors
// range trees.
func (r *Reservoir) Spread() (varX, varY float64) {
	n := float64(len(r.pts))
	if n < 2 {
		return 0, 0
	}
	var sx, sy float64
	for _, p := range r.pts {
		sx += p[0]
		sy += p[1]
	}
	mx, my := sx/n, sy/n
	for _, p := range r.pts {
		varX += (p[0] - mx) * (p[0] - mx)
		varY += (p[1] - my) * (p[1] - my)
	}
	return varX / n, varY / n
}

// ExecCounters tallies how much per-row expression work ran through the
// vectorized batch path versus the scalar closure path, per world. One
// "row" here is one (row, rule-or-phase) evaluation. The counters feed the
// E13 experiment and let operators confirm that the set-at-a-time default
// actually engages on their workload.
type ExecCounters struct {
	// VectorRows counts row evaluations executed by batch kernels.
	VectorRows int64
	// ScalarRows counts row evaluations executed by closure interpretation.
	ScalarRows int64
	// ParallelShards counts row shards dispatched to the worker pool (a
	// class extent that stays serial contributes nothing); it exposes the
	// parallelism axis of the two-axis execution decision the same way
	// VectorRows/ScalarRows expose the exec-mode axis.
	ParallelShards int64
	// HandlerRows counts row evaluations of reactive-handler conditions.
	HandlerRows int64

	// Join-execution accounting (the third execution axis). JoinProbeRows
	// counts accum probes; JoinMatchRows counts rows the chosen access path
	// delivered to the contribution step — index candidates on the scalar
	// path, post-residual matches on the batched path. JoinBatchedRows is
	// the subset of candidate rows processed by the batched driver.
	JoinProbeRows   int64
	JoinMatchRows   int64
	JoinBatchedRows int64

	// Transaction-admission accounting (§3.1, the fourth execution axis).
	// TxnBatchedRows counts transactions validated by the batched driver
	// (constraint kernels over the columnar tentative view, or batched
	// closure lanes); serial-loop validations contribute nothing.
	// TxnParallelGroups counts conflict groups dispatched to the worker
	// pool; TxnCrossPart counts admitted-considered transactions whose
	// touched rows (source, emission targets, constraint read set) spanned
	// more than one partition and therefore routed through cross-partition
	// admission instead of a partition-local lane.
	TxnBatchedRows    int64
	TxnParallelGroups int64
	TxnCrossPart      int64

	// Index maintenance accounting. IndexBuildNanos is wall time spent
	// preparing per-tick indexes (builds and reuse checks); IndexReuses
	// counts site-ticks that kept last tick's index untouched.
	// IndexIncrements always reads 0: indexes are reused or rebuilt, never
	// patched in place. It is kept because the benchmark harness reads it.
	IndexBuildNanos int64
	IndexReuses     int64
	IndexIncrements int64

	// Shared-nothing partitioned execution accounting (§4.2 of the paper:
	// cross-node message cost per tick, per-node load balance, partitioned
	// index memory). All counters are zero unless the world runs with
	// Options.Partitions > 0.
	//
	// PartMsgsGhost counts ghost-replica refresh messages (one per ghost
	// row whenever its partition index is (re)built — an unchanged, reused
	// index sends nothing); PartMsgsEffect counts effect contributions whose
	// target row is owned by a different partition than the emitting row;
	// PartMsgsMigrate counts ownership migrations (an object's new position
	// crossed a partition boundary during the update step). PartBytes is the
	// modeled wire volume of all three. GhostRows counts resident ghost
	// replicas across all partition indexes, summed per tick (an occupancy
	// metric, charged even when the index is reused).
	PartMsgsGhost   int64
	PartMsgsEffect  int64
	PartMsgsMigrate int64
	PartBytes       int64
	GhostRows       int64
	MigratedRows    int64

	// Layout-epoch accounting (adaptive repartitioning). RebalanceCount
	// counts layout replacements (a class's layout advancing to a successor
	// epoch — re-measured bounds or refitted quantile cuts); RebalanceNanos
	// is the wall time spent deriving those successors. EpochID is the
	// highest layout epoch any class has reached (1 = every layout still on
	// its first-tick measurement). ClampedRows counts row-ticks whose
	// position fell outside their layout's measured box and clamped into an
	// edge partition — the §4.2 skew signal that drives RebalanceWiden.
	RebalanceCount int64
	RebalanceNanos int64
	EpochID        int64
	ClampedRows    int64

	// Kernel-fusion accounting. FusedOps is a build-time gauge: the number
	// of superinstructions the vexpr peephole pass produced across every
	// kernel compiled for this world (each one replaced two interpreted
	// batch operators with one fused loop). DictLookups counts runtime
	// string-dictionary round-trips at kernel boundaries — decodes of
	// string-valued emission payloads and encodes of batched string probe
	// keys. Both are zero when no kernels compiled.
	FusedOps    int64
	DictLookups int64

	// Subscription-view accounting (internal/views). ViewSubs is a gauge of
	// live subscriptions registered against this world and ViewIndexedSubs
	// of those sitting in a subscription index; ViewDeltaRows counts delta
	// rows emitted across all subscriptions (adds + updates + removes);
	// ViewRescans counts subscription-ticks that fell back to a
	// full-extent rescan (unstable predicate, structure-version mismatch, or
	// the cost model deciding churn outweighed the delta path);
	// ViewIndexProbes counts point probes of the subscription indexes (a
	// touched row costs one per index group, two when it moved) — zero on
	// ticks where the cost model kept every group on the per-subscription
	// path; ViewMaintNanos is wall time spent maintaining all subscriptions.
	ViewSubs        int64
	ViewIndexedSubs int64
	ViewDeltaRows   int64
	ViewRescans     int64
	ViewIndexProbes int64
	ViewMaintNanos  int64

	// Load balance: per tick the effect-phase row visits (scalar rows,
	// vectorized rows, join candidates) are tallied per partition;
	// PartLoadMax accumulates the busiest partition's tally and PartLoadSum
	// the total, so PartImbalance recovers the paper's max/mean ratio.
	PartLoadMax int64
	PartLoadSum int64
}

// ServerCounters tallies many-world server activity: scheduling outcomes,
// plan-cache effectiveness and the hibernation lifecycle. WorldsActive and
// WorldsHibernated are gauges (current occupancy); everything else is a
// monotonic counter since server start.
type ServerCounters struct {
	// WorldsActive is the number of resident (non-hibernated) worlds.
	WorldsActive int64
	// WorldsHibernated is the number of worlds currently checkpointed out.
	WorldsHibernated int64
	// TicksRun counts world-ticks executed by the shared pool.
	TicksRun int64
	// TickDeadlineMisses counts scheduled ticks that started after their
	// deadline under real-time serving; TickLagNanos accumulates how late.
	TickDeadlineMisses int64
	TickLagNanos       int64
	// PlanCacheHits / PlanCacheMisses count AddWorld script-hash lookups
	// that reused / compiled a plan. With N worlds of one script the hit
	// rate is (N-1)/N.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// Hibernations / Restores count checkpoint-out and transparent
	// wake-on-access events.
	Hibernations int64
	Restores     int64
}

// PartMessages returns the total cross-partition messages per the §4.2
// accounting: ghost refreshes plus foreign effects plus migrations.
func (c ExecCounters) PartMessages() int64 {
	return c.PartMsgsGhost + c.PartMsgsEffect + c.PartMsgsMigrate
}

// PartImbalance returns the load-balance ratio busiest/mean over everything
// tallied so far (1.0 = perfectly balanced, parts = one partition did all
// the work). Zero when nothing ran partitioned.
func (c ExecCounters) PartImbalance(parts int) float64 {
	if c.PartLoadSum <= 0 || parts <= 0 {
		return 0
	}
	return float64(c.PartLoadMax) * float64(parts) / float64(c.PartLoadSum)
}

// VectorFraction returns the share of row evaluations that were vectorized
// (0 when nothing ran).
func (c ExecCounters) VectorFraction() float64 {
	total := c.VectorRows + c.ScalarRows
	if total == 0 {
		return 0
	}
	return float64(c.VectorRows) / float64(total)
}
