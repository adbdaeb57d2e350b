package engine

// Shared-nothing partitioned execution (§4.2 of the paper). With
// Options.Partitions > 0 every class extent is split across spatial
// partitions and the real tick pipeline — vectorized effect phases, the
// scalar row loop, batched joins over per-partition indexes — runs with
// one shard per partition, over each partition's owned rows plus read-only
// ghost replicas of the neighbor rows its probes can reach.
//
// The runtime is decomposed along its three concerns:
//
//   - partition.go (this file): the layout lifecycle. Ownership layouts are
//     versioned epochs: the first partitioned tick measures world bounds
//     and installs epoch 1 per class, and from then on a per-class
//     rebalancer (plan.Rebalancer over plan.Costs.ChooseRebalance) watches
//     the per-partition load tally, boundary-migration churn and clamped
//     (out-of-bounds) row counts, and installs a successor epoch when the
//     modeled imbalance penalty amortizes the re-layout: re-measured
//     drift-widened bounds (cluster.Layout.Remeasure) when the box went
//     stale, population-quantile cuts that split hot partitions
//     (cluster.Layout.Split) when the population clustered. Ownership is
//     rescanned every tick, so an epoch change shows up as mass migration
//     and every downstream consumer (member views, indexes, spans)
//     refreshes through the ordinary version ladder.
//
//   - partition_view.go: member views and per-partition indexes. For each
//     accum site the compiled range conjuncts are evaluated over the frozen
//     probing extent, plan.InteractionRadius turns them into per-dimension
//     reaches, and each partition's member view (owned rows + ghosts) is
//     filled with the layout's own monotone clamped-coordinate arithmetic —
//     identical under every epoch, so no float rounding can drop a boundary
//     ghost across a rebalance. Per-partition indexes rebuild over exactly
//     the member rows whenever anything feeding them changed.
//
//   - shard.go: execution. A partition is an ownership-masked shard of the
//     tick driver: partitions fan out across the worker pool for vectorized
//     sweeps (per-worker vexpr scratch; self-only emissions are
//     row-disjoint across partitions), scalar rows and handlers; the
//     per-shard sinks merge in (partition, row) order — exactly ascending
//     physical-row order — which is what makes ANY partition count,
//     layout, epoch sequence and worker count bit-identical to
//     Partitions=1.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// partWorld is the execution state of a partitioned world.
type partWorld struct {
	n         int
	ready     bool   // layouts measured and first assignment done
	assignVer uint64 // bumps whenever any row's ownership changes

	loads []int64 // per-partition fold scratch (foldPartitionLoads)

	buildList []partBuild // per-tick (site, partition) rebuild worklist

	// Reach-derivation scratch, reused across sites.
	axisPos [][]float64 // per probing axis: anchor positions
	boxLo   [][]float64 // per range dim: evaluated probe interval
	boxHi   [][]float64
}

type partBuild struct {
	site *siteRT
	pp   *sitePart
}

// partClass is the per-class partitioning state.
type partClass struct {
	axes   []int // state attr indices of the position axes (0..2)
	layout cluster.Layout

	assign   []int32    // per physical row: owning partition, -1 dead
	assignID []value.ID // id the assignment was made for (guards row reuse)
	spanLo   []int32    // per partition: owned physical row span [lo, hi)
	spanHi   []int32

	// Layout-epoch lifecycle state. loads tallies this tick's per-partition
	// row visits for this class (each partition is written only by the
	// worker that owns it); foldPartitionLoads snapshots them into
	// lastMax/lastSum at tick end, and assignPartitions records the tick's
	// boundary migrations and clamped rows — the three signals the
	// rebalancer weighs next tick. All of it is tracked regardless of
	// DisableStats: it drives execution, not just reporting.
	reb          *plan.Rebalancer
	loads        []int64
	lastMax      int64
	lastSum      int64
	lastMigrated int64
	lastClamped  int64

	// Bounds measured when the current epoch was installed and the tick it
	// happened: the drift-rate basis for the next epoch's widen margin.
	measMinX, measMaxX float64
	measMinY, measMaxY float64
	measTick           int64

	sampleX, sampleY []float64 // quantile-split position scratch, reused
}

// span returns partition p's owned row span clamped to the table capacity.
func (pc *partClass) span(p, capRows int) (int, int) {
	lo, hi := int(pc.spanLo[p]), int(pc.spanHi[p])
	if hi > capRows {
		hi = capRows
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// initPartitions validates the partitioning options at world construction.
// Layout measurement itself is deferred to the first tick, when the world
// has been populated.
func (w *World) initPartitions() error {
	if w.opts.Partitions <= 0 {
		return nil
	}
	for class, attrs := range w.opts.PartitionBy { //sglvet:allow maprange: option validation only, no state mutated
		rt, ok := w.classes[class]
		if !ok {
			return fmt.Errorf("engine: PartitionBy names unknown class %q", class)
		}
		if len(attrs) < 1 || len(attrs) > 2 {
			return fmt.Errorf("engine: PartitionBy[%s] needs 1 or 2 attrs, got %d", class, len(attrs))
		}
		for _, a := range attrs {
			i := rt.cls.StateIndex(a)
			if i < 0 {
				return fmt.Errorf("engine: PartitionBy names unknown attribute %s.%s", class, a)
			}
			if rt.cls.State[i].Kind != value.KindNumber {
				return fmt.Errorf("engine: PartitionBy attribute %s.%s is %s, want number", class, a, rt.cls.State[i].Kind)
			}
		}
	}
	pw := &partWorld{n: w.opts.Partitions}
	pw.loads = make([]int64, pw.n)
	w.parts = pw
	return nil
}

// partitionAxes infers a class's position attributes: the explicit
// PartitionBy designation, else the attrs its compiled join sites range
// over when it is the source class, else numeric attrs named x/y.
func (w *World) partitionAxes(rt *classRT) []int {
	if attrs, ok := w.opts.PartitionBy[rt.name]; ok {
		axes := make([]int, 0, 2)
		for _, a := range attrs {
			axes = append(axes, rt.cls.StateIndex(a))
		}
		return axes
	}
	var axes []int
	seen := map[int]bool{}
	for _, site := range w.sites {
		if site.step.SourceClass != rt.name || site.step.Join == nil {
			continue
		}
		for _, r := range site.step.Join.Ranges {
			if !seen[r.AttrIdx] && rt.cls.State[r.AttrIdx].Kind == value.KindNumber {
				seen[r.AttrIdx] = true
				axes = append(axes, r.AttrIdx)
			}
		}
	}
	// Deterministic order, at most two axes.
	for i := 1; i < len(axes); i++ {
		for j := i; j > 0 && axes[j] < axes[j-1]; j-- {
			axes[j], axes[j-1] = axes[j-1], axes[j]
		}
	}
	if len(axes) > 2 {
		axes = axes[:2]
	}
	if len(axes) > 0 {
		return axes
	}
	for _, name := range []string{"x", "y"} {
		if i := rt.cls.StateIndex(name); i >= 0 && rt.cls.State[i].Kind == value.KindNumber {
			axes = append(axes, i)
		}
	}
	return axes
}

// ensurePartitionLayouts measures world bounds and installs each class's
// epoch-1 layout on the first partitioned tick. Later epochs come from
// maybeRebalanceLayouts; positions outside the measured box always clamp to
// the edge partitions (and are counted as clamped rows).
func (w *World) ensurePartitionLayouts() {
	pw := w.parts
	if pw.ready {
		return
	}
	for _, rt := range w.order {
		axes := w.partitionAxes(rt)
		mode := w.opts.Partition
		minX, maxX, minY, maxY := 0.0, 1.0, 0.0, 1.0
		if len(axes) > 0 {
			minX, maxX = columnBounds(rt.tab, axes[0])
		}
		if len(axes) > 1 {
			minY, maxY = columnBounds(rt.tab, axes[1])
		}
		layout, err := cluster.NewLayout(w.execCosts, mode, pw.n, len(axes), minX, maxX, minY, maxY)
		if err != nil {
			// Partitions >= 1 is validated at construction; unreachable.
			panic(err)
		}
		rt.prt = &partClass{
			axes:   axes,
			layout: layout,
			spanLo: make([]int32, pw.n),
			spanHi: make([]int32, pw.n),
			loads:  make([]int64, pw.n),
			reb:    plan.NewRebalancer(w.execCosts, w.opts.Rebalance),

			measMinX: minX, measMaxX: maxX,
			measMinY: minY, measMaxY: maxY,
			measTick: w.tick,
		}
	}
	pw.ready = true
}

// maybeRebalanceLayouts runs the per-class layout maintenance decision at
// tick start, before ownership is rescanned: each class's rebalancer weighs
// last tick's load imbalance, migration churn and clamp skew, and when an
// action fires the class's layout advances to its successor epoch. The new
// assignment scan then observes the epoch's mass migration through the
// ordinary ownership diff, and every member view and index refreshes
// through the assignment-version ladder — nothing downstream knows about
// epochs beyond that.
func (w *World) maybeRebalanceLayouts() {
	pw := w.parts
	track := !w.opts.DisableStats
	if pw.n > 1 && w.opts.Rebalance != plan.RebalanceOff {
		for _, rt := range w.order {
			pc := rt.prt
			if pc.layout.Axes == 0 {
				continue // hash layouts are position-oblivious and stay put
			}
			act := pc.reb.Decide(float64(pc.lastMax), float64(pc.lastSum), pw.n,
				rt.tab.Len(), int(pc.lastMigrated), int(pc.lastClamped))
			if act == plan.RebalanceNone {
				continue
			}
			var t0 time.Time
			if track {
				t0 = time.Now()
			}
			w.relayout(rt, act)
			if track {
				w.execStats.RebalanceCount++
				w.execStats.RebalanceNanos += time.Since(t0).Nanoseconds()
			}
		}
	}
	if track {
		for _, rt := range w.order {
			if ep := int64(rt.prt.layout.Epoch); ep > w.execStats.EpochID {
				w.execStats.EpochID = ep
			}
		}
	}
}

// relayout installs a class's successor layout epoch. Widen re-measures the
// world box and extends each side by the measured drift rate — how fast
// that bound has been moving outward since the epoch was installed —
// projected over the rebalance horizon, so a population that keeps drifting
// the way it has stays in-bounds (and unclamped) until the next epoch pays
// for itself. Split refits population-quantile cut points from the live
// positions, giving every slot an equal population share.
func (w *World) relayout(rt *classRT, act plan.RebalanceAction) {
	pc := rt.prt
	tab := rt.tab
	switch act {
	case plan.RebalanceWiden:
		minX, maxX := columnBounds(tab, pc.axes[0])
		minY, maxY := 0.0, 1.0
		if len(pc.axes) > 1 {
			minY, maxY = columnBounds(tab, pc.axes[1])
		}
		dt := w.tick - pc.measTick
		if dt < 1 {
			dt = 1
		}
		h := w.execCosts.RebalanceHorizon
		pc.layout = pc.layout.Remeasure(
			minX-driftMargin(pc.measMinX-minX, dt, h),
			maxX+driftMargin(maxX-pc.measMaxX, dt, h),
			minY-driftMargin(pc.measMinY-minY, dt, h),
			maxY+driftMargin(maxY-pc.measMaxY, dt, h))
		pc.measMinX, pc.measMaxX = minX, maxX
		pc.measMinY, pc.measMaxY = minY, maxY
	case plan.RebalanceSplit:
		xs, ys := w.gatherAxisSamples(rt)
		pc.layout = pc.layout.Split(xs, ys)
		pc.measMinX, pc.measMaxX = pc.layout.MinX, pc.layout.MaxX
		pc.measMinY, pc.measMaxY = pc.layout.MinY, pc.layout.MaxY
	}
	pc.measTick = w.tick
}

// driftMargin projects a bound's outward movement per tick over the
// rebalance horizon. Bounds that held still or moved inward contribute no
// margin, and non-finite movement (a position exploded to ±Inf/NaN) is
// ignored rather than poisoning the box.
func driftMargin(outward float64, dt int64, horizon float64) float64 {
	if !(outward > 0) || math.IsInf(outward, 1) {
		return 0
	}
	return outward / float64(dt) * horizon
}

// gatherAxisSamples collects the class's live positions per partition axis
// (NaNs filtered — cluster.Layout.Split sorts the samples) into retained
// scratch. The Y sample is gathered only when the layout actually cuts Y
// (Split's own condition): a stripes layout over a two-axis class never
// reads it.
func (w *World) gatherAxisSamples(rt *classRT) (xs, ys []float64) {
	pc := rt.prt
	tab := rt.tab
	colX := tab.NumColumn(pc.axes[0])
	var colY []float64
	if pc.layout.Axes > 1 && len(pc.axes) > 1 {
		colY = tab.NumColumn(pc.axes[1])
	}
	pc.sampleX = pc.sampleX[:0]
	pc.sampleY = pc.sampleY[:0]
	for r, ok := range tab.AliveMask() {
		if !ok {
			continue
		}
		if v := colX[r]; !math.IsNaN(v) {
			pc.sampleX = append(pc.sampleX, v)
		}
		if colY != nil {
			if v := colY[r]; !math.IsNaN(v) {
				pc.sampleY = append(pc.sampleY, v)
			}
		}
	}
	return pc.sampleX, pc.sampleY
}

// columnBounds returns the min/max of a numeric column over live rows,
// ignoring NaNs; a degenerate or empty extent yields a unit box.
func columnBounds(tab *table.Table, ci int) (lo, hi float64) {
	col := tab.NumColumn(ci)
	lo, hi = math.Inf(1), math.Inf(-1)
	for r, ok := range tab.AliveMask() {
		if !ok {
			continue
		}
		v := col[r]
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(lo < hi) {
		if math.IsInf(lo, 1) {
			lo = 0
		}
		hi = lo + 1
	}
	return lo, hi
}

// assignPartitions rescans ownership at tick start: every live row's owner
// is recomputed from its current position with the current layout epoch, so
// update-step movement across a boundary — and the mass migration a fresh
// epoch implies — shows up here as migration messages, spawns get assigned
// and deaths released. The scan also refreshes each partition's owned row
// span and counts clamped rows (positions outside the epoch's measured box,
// the §4.2 edge-skew signal). Migration and clamp tallies always run — they
// feed the rebalancer — while message counters honor track.
func (w *World) assignPartitions(track bool) {
	pw := w.parts
	changed := false
	for _, rt := range w.order {
		pc := rt.prt
		tab := rt.tab
		capRows := tab.Cap()
		for len(pc.assign) < capRows {
			pc.assign = append(pc.assign, -1)
			pc.assignID = append(pc.assignID, 0)
		}
		for p := 0; p < pw.n; p++ {
			pc.spanLo[p] = int32(capRows)
			pc.spanHi[p] = 0
		}
		alive := tab.AliveMask()
		ids := tab.RawIDs()
		var colX, colY []float64
		if len(pc.axes) > 0 {
			colX = tab.NumColumn(pc.axes[0])
		}
		if len(pc.axes) > 1 {
			colY = tab.NumColumn(pc.axes[1])
		}
		migrated, clamped := int64(0), int64(0)
		for r := 0; r < capRows; r++ {
			if !alive[r] {
				if pc.assign[r] != -1 {
					pc.assign[r] = -1
					changed = true
				}
				continue
			}
			x, y := 0.0, 0.0
			if colX != nil {
				x = colX[r]
			}
			if colY != nil {
				y = colY[r]
			}
			if colX != nil && pc.layout.OutOfBounds(x, y) {
				clamped++
			}
			owner := int32(pc.layout.Owner(x, y, ids[r]))
			prev := pc.assign[r]
			if prev != owner || pc.assignID[r] != ids[r] {
				if prev >= 0 && pc.assignID[r] == ids[r] {
					// Same object, new partition: a boundary migration.
					migrated++
				}
				pc.assign[r] = owner
				pc.assignID[r] = ids[r]
				changed = true
			}
			if int32(r) < pc.spanLo[owner] {
				pc.spanLo[owner] = int32(r)
			}
			if int32(r)+1 > pc.spanHi[owner] {
				pc.spanHi[owner] = int32(r) + 1
			}
		}
		pc.lastMigrated, pc.lastClamped = migrated, clamped
		if track {
			w.execStats.MigratedRows += migrated
			w.execStats.PartMsgsMigrate += migrated
			w.execStats.PartBytes += migrated * cluster.BytesPerMigration
			w.execStats.ClampedRows += clamped
		}
	}
	if changed {
		pw.assignVer++
	}
}

// foldPartitionLoads closes the tick's load-balance accounting: per class,
// the per-partition row-visit tallies snapshot into the rebalancer's
// feedback (always — rebalancing is engine behavior, not reporting) and
// reset; the cross-class per-partition totals feed the §4.2
// PartLoadMax/PartLoadSum counters when statistics are on.
func (w *World) foldPartitionLoads() {
	pw := w.parts
	for i := range pw.loads {
		pw.loads[i] = 0
	}
	for _, rt := range w.order {
		pc := rt.prt
		if pc == nil {
			continue
		}
		maxL, sum := int64(0), int64(0)
		for p, l := range pc.loads {
			pw.loads[p] += l
			sum += l
			if l > maxL {
				maxL = l
			}
			pc.loads[p] = 0
		}
		pc.lastMax, pc.lastSum = maxL, sum
	}
	if w.opts.DisableStats {
		return
	}
	maxLoad, sum := int64(0), int64(0)
	for _, l := range pw.loads {
		sum += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	w.execStats.PartLoadMax += maxLoad
	w.execStats.PartLoadSum += sum
}

// Partitions returns the configured partition count (0 = partitioned
// execution disabled).
func (w *World) Partitions() int {
	if w.parts == nil {
		return 0
	}
	return w.parts.n
}

// LayoutEpochs reports each class's current layout epoch (1 = still on the
// first-tick measurement). Valid after at least one partitioned tick.
func (w *World) LayoutEpochs() map[string]uint64 {
	if w.parts == nil {
		return nil
	}
	out := make(map[string]uint64, len(w.order))
	for _, rt := range w.order {
		if rt.prt != nil {
			out[rt.name] = rt.prt.layout.Epoch
		}
	}
	return out
}
