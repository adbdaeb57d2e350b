// Package stats holds the engine's cheap runtime statistics (§4.1: they
// must cost little enough for real time): the exponential moving average
// that sizes grid cells from observed probe boxes, and the counters a world
// or server exposes — how rows executed (kernels, scalar, batched joins and
// transactions), index reuse, partition traffic and balance, subscription
// views, and the many-world server's scheduling and hibernation.
package stats

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
	e.v += float64(e.alpha * (x - e.v)) // rounded product: no FMA on any GOARCH
}

// Value returns the current average (0 before any sample).
func (e *EMA) Value() float64 { return e.v }

// Ready reports whether at least one sample arrived.
func (e *EMA) Ready() bool { return e.init }

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
	// parallelism axis the same way VectorRows/ScalarRows expose the
	// exec-mode axis.
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
	// metric, charged even when the index is reused). ClampedRows counts
	// row-ticks whose position fell outside their layout's measured box and
	// clamped into an edge partition — the §4.2 skew signal that shows a
	// frozen layout going stale.
	PartMsgsGhost   int64
	PartMsgsEffect  int64
	PartMsgsMigrate int64
	PartBytes       int64
	GhostRows       int64
	MigratedRows    int64
	ClampedRows     int64

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
	// ViewRescans counts subscription-ticks that re-evaluated the whole
	// extent (a fresh subscription, a resync, an unstable predicate or
	// forced ViewRescan); ViewIndexProbes counts point probes of the
	// subscription indexes (a touched row costs one per index group, two
	// when it moved); ViewMaintNanos is wall time spent maintaining all subscriptions,
	// of which ViewProbeNanos, ViewMaintainNanos and ViewEmitNanos are the
	// probe and maintain fan-outs and the in-order delta callbacks (the
	// serial steps around them are the rest).
	ViewSubs          int64
	ViewIndexedSubs   int64
	ViewDeltaRows     int64
	ViewRescans       int64
	ViewIndexProbes   int64
	ViewMaintNanos    int64
	ViewProbeNanos    int64
	ViewMaintainNanos int64
	ViewEmitNanos     int64

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
