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
//   - partition.go (this file): layouts and ownership. The first
//     partitioned tick measures world bounds and installs each class's
//     layout, which then stays frozen. Ownership is rescanned every tick:
//     update-step movement across a boundary shows up as migration, and
//     rows that leave the measured box clamp into the edge partitions
//     (counted as clamped rows, so a stale box is observable).
//
//   - partition_view.go: member views and per-partition indexes. For each
//     accum site the range bounds' kernels run over the probing extent,
//     plan.InteractionRadius turns the boxes into per-dimension reaches,
//     and each partition's member view (owned rows + ghosts) is
//     filled with the layout's own monotone clamped-coordinate arithmetic,
//     so no float rounding can drop a boundary ghost. Per-partition indexes
//     rebuild over exactly the member rows whenever anything feeding them
//     changed.
//
//   - shard.go: execution. A partition is an ownership-masked shard of the
//     tick driver: partitions fan out across the worker pool for vectorized
//     sweeps (per-worker vexpr scratch; self-only emissions are
//     row-disjoint across partitions), scalar rows and handlers; the
//     per-shard sinks merge in (partition, row) order — exactly ascending
//     physical-row order — which is what makes ANY partition count,
//     layout and worker count bit-identical to Partitions=1.

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/table"
	"repro/internal/value"
)

// partWorld is the execution state of a partitioned world.
type partWorld struct {
	n         int
	ready     bool   // layouts measured and first assignment done
	assignVer uint64 // bumps whenever any row's ownership changes

	loads []int64 // this tick's per-partition row visits (foldPartitionLoads)

	buildList []partBuild // per-tick (site, partition) rebuild worklist

	// Reach-derivation scratch, reused across sites (deriveSiteReach).
	radii [][2]float64 // per (range dim, axis): running reach below, above
	box   []float64    // one row's box: lower bounds, then upper bounds
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
// layout on the first partitioned tick. The layout stays frozen from then
// on; positions outside the measured box clamp to the edge partitions (and
// are counted as clamped rows).
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
		layout, err := cluster.NewLayout(mode, pw.n, len(axes), minX, maxX, minY, maxY)
		if err != nil {
			// Partitions >= 1 is validated at construction; unreachable.
			panic(err)
		}
		rt.prt = &partClass{
			axes:   axes,
			layout: layout,
			spanLo: make([]int32, pw.n),
			spanHi: make([]int32, pw.n),
		}
	}
	pw.ready = true
}

// columnBounds returns the min/max of a numeric column over live rows,
// ignoring NaNs and infinities (an infinite bound would make every slot
// infinitely wide); a degenerate or empty extent yields a unit box.
func columnBounds(tab *table.Table, ci int) (lo, hi float64) {
	col := tab.NumColumn(ci)
	lo, hi = math.Inf(1), math.Inf(-1)
	for r, ok := range tab.AliveMask() {
		if !ok {
			continue
		}
		v := col[r]
		if math.IsNaN(v) || math.IsInf(v, 0) {
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
// is recomputed from its current position, so update-step movement across a
// boundary shows up here as migration messages, spawns get assigned and
// deaths released. The scan also refreshes each partition's owned row span
// and, when track is set, counts migrations and clamped rows (positions
// outside the layout's measured box, the §4.2 edge-skew signal).
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
			if track && colX != nil && pc.layout.OutOfBounds(x, y) {
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

// foldPartitionLoads closes the tick's load-balance accounting: the
// per-partition row-visit tallies (summed over classes by mergeSinks) feed
// the §4.2 PartLoadMax/PartLoadSum counters and reset. With statistics off
// nothing is tallied.
func (w *World) foldPartitionLoads() {
	if w.opts.DisableStats {
		return
	}
	pw := w.parts
	maxLoad, sum := int64(0), int64(0)
	for p, l := range pw.loads {
		sum += l
		if l > maxLoad {
			maxLoad = l
		}
		pw.loads[p] = 0
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
