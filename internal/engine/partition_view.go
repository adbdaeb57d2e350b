package engine

// Member views and per-partition indexes for shared-nothing partitioned
// execution — the ghost-derivation half of partition.go's §4.2 runtime.
//
// For each accum site, the compiled range conjuncts are evaluated over the
// frozen probing extent and plan.InteractionRadius turns them into
// per-dimension reaches around the best-fitting partition axis. A
// partition's member view is then every source row whose ownership
// interval — computed with the same clamped-coordinate arithmetic as
// ownership itself, so float rounding can never drop a boundary ghost —
// intersects the partition.
// Sites that cannot be bounded (unbounded or frame-dependent predicates,
// computed source sets, reactive-handler sites which probe post-update
// state, hash layouts) fall back to one shared whole-extent index,
// accounted as a full replica per partition.
//
// Per-partition indexes are reused when nothing that feeds them changed
// (columns, structure, ownership, reach, strategy) and rebuilt otherwise,
// fanned out across the worker pool.

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/plan"
)

// dimReach is one range dimension's derived interaction reach: probes bound
// the dimension's source attribute within [anchor−lo, anchor+hi] where the
// anchor is the probing row's position on partition axis `axis` (-1 when the
// dimension could not be bounded against any axis).
type dimReach struct {
	axis   int
	lo, hi float64
}

// reachEqual compares derived reaches bit-for-bit (NaN never occurs: empty
// reaches are -Inf, unbounded dims are excluded by axis == -1).
func reachEqual(a, b []dimReach) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// preparePartitionedSites is prepareSites for partitioned worlds: layout
// measurement (first tick) and ownership rescan, then per site either a
// shared whole-extent index (with full replication accounted) or per-partition
// member views and indexes with ghost margins from the compiled predicates.
func (w *World) preparePartitionedSites() {
	pw := w.parts
	track := !w.opts.DisableStats
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	w.ensurePartitionLayouts()
	w.assignPartitions(track)
	stateVer := w.stateFingerprint()

	pw.buildList = pw.buildList[:0]
	for _, site := range w.sites {
		srcRT, n, p := w.decideSite(site)
		if srcRT == nil {
			// Computed source sets never consult an index; unanalyzed
			// bodies scan the member view, which for shared sites is the
			// full live extent.
			site.shared = true
			if site.step.SourceFn == nil {
				src := w.classes[site.step.SourceClass]
				w.fillSharedView(site, src, track)
			}
			continue
		}
		if n == 0 || p == 0 {
			site.strategy = plan.NestedLoop
			site.hoisted = false
			site.shared = true
			pp := &site.parts[0]
			pp.tree, pp.hash = nil, nil
			pp.builtOK = false
			pp.rowsBuf = srcRT.tab.LiveRows(pp.rowsBuf[:0])
			pp.view = srcRT.tab.ViewOf(pp.rowsBuf)
			continue
		}

		spatial := false
		if site.reachDerived && site.reachStateVer == stateVer {
			spatial = site.reachSpatial // state untouched ⇒ reach untouched
		} else {
			spatial = w.deriveSiteReach(site, srcRT)
			site.reachDerived = true
			site.reachSpatial = spatial
			site.reachStateVer = stateVer
		}
		site.shared = !spatial
		if !spatial {
			w.fillSharedView(site, srcRT, track)
			pp := &site.parts[0]
			if site.strategy == plan.NestedLoop {
				pp.builtOK = false
				continue
			}
			if w.indexFresh(site, pp, srcRT) {
				if track {
					w.execStats.IndexReuses++
				}
				continue
			}
			pw.buildList = append(pw.buildList, partBuild{site: site, pp: pp})
			if track {
				w.chargeGhosts(site, int64(pw.n-1)*int64(n))
			}
			continue
		}

		w.prepareSpatialSite(site, srcRT, track)
	}

	// Rebuilds fan out across the worker pool: member views are already
	// filled (serially, above), so workers only sort entries and build
	// trees/grids into their own retained arenas.
	if w.parallelOK() && len(pw.buildList) > 1 {
		w.buildPartsParallel(pw.buildList)
	} else {
		for _, b := range pw.buildList {
			w.buildPartIndex(b.site, b.pp)
		}
	}
	if track {
		w.execStats.IndexBuildNanos += time.Since(t0).Nanoseconds()
	}
}

// fillSharedView points a shared site's single part at the full live
// extent and accounts it as one conceptual replica per other partition —
// the §4.2 pathology of partitioning-oblivious predicates. The member view
// is overwritten, so any retained member-scoped state is invalidated: a
// later spatial tick must refill, and the shared ladder below must never
// reuse an index that only covered one partition's members.
func (w *World) fillSharedView(site *siteRT, srcRT *classRT, track bool) {
	pp := &site.parts[0]
	pp.rowsBuf = srcRT.tab.LiveRows(pp.rowsBuf[:0])
	pp.view = srcRT.tab.ViewOf(pp.rowsBuf)
	pp.memberViewOK = false
	if pp.builtMembers {
		pp.builtOK = false
	}
	pp.ghosts = int64(w.parts.n-1) * int64(len(pp.rowsBuf))
	if track {
		w.execStats.GhostRows += pp.ghosts
		if site.step.Join == nil {
			// Unindexed whole-extent scans have no build/reuse ladder to
			// hang refresh traffic on: charge full replication per tick.
			w.execStats.PartMsgsGhost += pp.ghosts
			w.execStats.PartBytes += pp.ghosts * cluster.BytesPerGhost
		}
	}
}

// chargeGhosts accounts ghost refresh messages for one site's replicas
// (called when its indexes are rebuilt — a reused index means nothing
// changed, so nothing is sent).
func (w *World) chargeGhosts(site *siteRT, ghosts int64) {
	if w.opts.DisableStats {
		return
	}
	w.execStats.PartMsgsGhost += ghosts
	w.execStats.PartBytes += ghosts * cluster.BytesPerGhost
}

// prepareSpatialSite brings one spatially bounded site's per-partition
// views and indexes up to date: reuse everything when nothing that feeds
// them changed (source columns, structure, ownership, reach, strategy);
// otherwise refill the member views in one pass and queue every
// partition's index rebuild.
func (w *World) prepareSpatialSite(site *siteRT, srcRT *classRT, track bool) {
	pw := w.parts
	tab := srcRT.tab
	if len(site.parts) < pw.n {
		for len(site.parts) < pw.n {
			site.parts = append(site.parts, sitePart{})
		}
		// Growth re-slots the arena builders. Sites prepare and build in
		// site order, so only ordinals of later, not-yet-built sites move.
		w.attachBuilders()
	}

	fresh := site.builtReachOK && reachEqual(site.reach, site.builtReach)
	if fresh {
		for i := range site.parts[:pw.n] {
			pp := &site.parts[i]
			if !pp.memberViewOK || pp.builtAssign != pw.assignVer ||
				pp.builtStruct != tab.StructVersion() {
				fresh = false
				break
			}
			if site.strategy != plan.NestedLoop &&
				(!pp.builtOK || pp.builtStrategy != site.strategy || !pp.builtMembers || !pp.builderValid()) {
				fresh = false
				break
			}
			if site.strategy == plan.GridIndex && w.gridCell(site, pp) != pp.builtCell {
				fresh = false
				break
			}
			for vi, a := range site.srcAttrs {
				if vi >= len(pp.builtVers) || tab.ColVersion(a) != pp.builtVers[vi] {
					fresh = false
					break
				}
			}
			if !fresh {
				break
			}
		}
	}
	ghosts := int64(0)
	if fresh {
		for i := range site.parts[:pw.n] {
			ghosts += site.parts[i].ghosts
		}
		if track {
			w.execStats.GhostRows += ghosts
			w.execStats.IndexReuses++
		}
		return
	}

	ghosts = w.fillSiteMembers(site, srcRT)
	site.builtReach = append(site.builtReach[:0], site.reach...)
	site.builtReachOK = true
	if track {
		w.execStats.GhostRows += ghosts
		w.chargeGhosts(site, ghosts)
	}
	for i := range site.parts[:pw.n] {
		pp := &site.parts[i]
		pp.memberViewOK = true
		pp.builtAssign = pw.assignVer
		if site.strategy == plan.NestedLoop {
			pp.builtOK = false
			pp.noteBuilt(site, tab) // version basis for next tick's freshness check
			continue
		}
		pw.buildList = append(pw.buildList, partBuild{site: site, pp: pp})
	}
}

// stateFingerprint folds every table's structural and per-column write
// versions into one monotone counter: equality across ticks means no
// committed state changed anywhere, which is the (sound, conservative)
// condition under which cached reach derivations stay valid.
func (w *World) stateFingerprint() uint64 {
	var v uint64
	for _, rt := range w.order {
		v += rt.tab.StructVersion()
		for ci := range rt.tab.Columns() {
			v += rt.tab.ColVersion(ci)
		}
	}
	return v
}

// deriveSiteReach evaluates the site's compiled range conjuncts over the
// frozen probing extent and anchors each dimension to the partition axis
// with the tightest finite reach (plan.InteractionRadius). Returns false —
// whole-world fallback — when nothing could be bounded: no self-only range
// conjuncts, a hash layout, a reactive-handler site (it probes post-update
// state the tick-start ghosts would not cover), or unbounded predicates.
func (w *World) deriveSiteReach(site *siteRT, srcRT *classRT) bool {
	pw := w.parts
	// The static preconditions — a non-handler site with at least one
	// self-only range dimension — come from the unified analysis; the
	// spatial-layout requirement and the bound evaluation below are the
	// runtime halves.
	if ja := w.ai.Join(site.step); ja == nil || !ja.Partitionable {
		return false
	}
	probeRT := w.classes[site.class]
	pc := probeRT.prt
	if pc.layout.Axes == 0 {
		return false // hash layout or no spatial axes
	}
	j := site.step.Join
	dims := len(j.Ranges)
	site.reach = site.reach[:0]
	for d := 0; d < dims; d++ {
		site.reach = append(site.reach, dimReach{axis: -1})
	}

	// Gather anchors and evaluate every self-only dimension's interval per
	// probing row (all phases: a conservative superset of actual probers).
	naxes := pc.layout.Axes
	pw.axisPos = extend(pw.axisPos, naxes)
	for len(pw.boxLo) < dims {
		pw.boxLo = append(pw.boxLo, nil)
		pw.boxHi = append(pw.boxHi, nil)
	}
	for k := 0; k < naxes; k++ {
		pw.axisPos[k] = pw.axisPos[k][:0]
	}
	for d := range j.Ranges {
		pw.boxLo[d] = pw.boxLo[d][:0]
		pw.boxHi[d] = pw.boxHi[d][:0]
	}
	ctx := expr.Ctx{W: w, Class: site.class}
	tab := probeRT.tab
	for r, ok := range tab.AliveMask() {
		if !ok {
			continue
		}
		ctx.SelfID = tab.ID(r)
		ctx.Self = rowReader{rt: probeRT, row: r}
		for k := 0; k < naxes; k++ {
			pw.axisPos[k] = append(pw.axisPos[k], tab.NumColumn(pc.axes[k])[r])
		}
		for d, rd := range j.Ranges {
			if !rd.SelfOnly {
				continue
			}
			lo, hi := evalDimBounds(&ctx, rd)
			pw.boxLo[d] = append(pw.boxLo[d], lo)
			pw.boxHi[d] = append(pw.boxHi[d], hi)
		}
	}

	anchored := false
	for d, rd := range j.Ranges {
		if !rd.SelfOnly {
			continue
		}
		best, bestSpan := -1, math.Inf(1)
		var bestLo, bestHi float64
		for k := 0; k < naxes; k++ {
			rLo, rHi := plan.InteractionRadius(pw.axisPos[k], pw.boxLo[d], pw.boxHi[d])
			if !plan.BoundedReach(rLo, rHi) {
				continue
			}
			if span := rLo + rHi; span < bestSpan {
				best, bestSpan = k, span
				bestLo, bestHi = rLo, rHi
			}
		}
		if best >= 0 {
			site.reach[d] = dimReach{axis: best, lo: bestLo, hi: bestHi}
			anchored = true
		}
	}
	return anchored
}

// evalDimBounds evaluates one range dimension's probe interval for the
// bound row — the per-dimension core of evalBox, shared semantics included:
// a NaN bound collapses the interval to empty.
func evalDimBounds(ctx *expr.Ctx, rd compile.RangeDim) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	nan := false
	for _, f := range rd.Lo {
		v := f(ctx).AsNumber()
		if math.IsNaN(v) {
			nan = true
		}
		if v > lo {
			lo = v
		}
	}
	for _, f := range rd.Hi {
		v := f(ctx).AsNumber()
		if math.IsNaN(v) {
			nan = true
		}
		if v < hi {
			hi = v
		}
	}
	if nan {
		lo, hi = math.Inf(1), math.Inf(-1)
	}
	return lo, hi
}

// fillSiteMembers rebuilds every partition's member view for a spatial
// site in one pass over the source extent: a row joins each partition whose
// ownership interval — the owners of every anchor position that could reach
// it, computed with the layout's own monotone clamped-coordinate functions —
// it intersects on all anchored dimensions. Returns the total ghost count
// (members owned elsewhere).
func (w *World) fillSiteMembers(site *siteRT, srcRT *classRT) int64 {
	pw := w.parts
	probeRT := w.classes[site.class]
	layout := probeRT.prt.layout
	srcAssign := srcRT.prt.assign
	tab := srcRT.tab
	j := site.step.Join

	for i := range site.parts[:pw.n] {
		pp := &site.parts[i]
		pp.rowsBuf = pp.rowsBuf[:0]
		pp.ghosts = 0
	}
	ghosts := int64(0)
	alive := tab.AliveMask()
	for r, ok := range alive {
		if !ok {
			continue
		}
		cxLo, cxHi := 0, layout.PX-1
		cyLo, cyHi := 0, layout.PY-1
		for d, rc := range site.reach {
			if rc.axis < 0 {
				continue
			}
			v := tab.NumColumn(j.Ranges[d].AttrIdx)[r]
			// Anchors that can reach v lie in [v−reachHi, v+reachLo]; their
			// owners are a contiguous clamped-coordinate interval.
			if rc.axis == 0 {
				if c := layout.CoordX(v - rc.hi); c > cxLo {
					cxLo = c
				}
				if c := layout.CoordX(v + rc.lo); c < cxHi {
					cxHi = c
				}
			} else {
				if c := layout.CoordY(v - rc.hi); c > cyLo {
					cyLo = c
				}
				if c := layout.CoordY(v + rc.lo); c < cyHi {
					cyHi = c
				}
			}
		}
		for cy := cyLo; cy <= cyHi; cy++ {
			for cx := cxLo; cx <= cxHi; cx++ {
				p := layout.Part(cx, cy)
				pp := &site.parts[p]
				pp.rowsBuf = append(pp.rowsBuf, int32(r))
				if srcAssign[r] != int32(p) {
					pp.ghosts++
					ghosts++
				}
			}
		}
	}
	for i := range site.parts[:pw.n] {
		pp := &site.parts[i]
		pp.view = tab.ViewOf(pp.rowsBuf)
	}
	return ghosts
}

// buildPartIndex rebuilds one partition's index — over its member view for
// spatial sites, over the whole extent for shared ones.
func (w *World) buildPartIndex(site *siteRT, pp *sitePart) {
	var members []int32
	if !site.shared {
		members = pp.view.Rows()
	}
	w.buildSiteIndex(site, pp, w.classes[site.step.SourceClass], members)
}

// buildPartsParallel fans the per-partition index rebuilds out across the
// worker pool. Views are immutable by now; every build writes only its own
// retained arena.
func (w *World) buildPartsParallel(builds []partBuild) {
	w.runPool(len(builds), w.opts.Workers, func(_, j int) {
		w.buildPartIndex(builds[j].site, builds[j].pp)
	})
}

// PartitionIndexBytes estimates each partition's resident accum-index
// memory — the §4.2 partitioned index memory question, measured from the
// engine's real per-tick indexes. Shared (whole-world fallback) indexes are
// charged to every partition: under shared-nothing execution each node
// would hold a full replica.
func (w *World) PartitionIndexBytes() []int64 {
	if w.parts == nil {
		return nil
	}
	out := make([]int64, w.parts.n)
	for _, site := range w.sites {
		if site.shared {
			b := site.parts[0].indexBytes()
			for p := range out {
				out[p] += b
			}
			continue
		}
		for p := 0; p < w.parts.n && p < len(site.parts); p++ {
			out[p] += site.parts[p].indexBytes()
		}
	}
	return out
}

func (pp *sitePart) indexBytes() int64 {
	if !pp.builtOK {
		return 0
	}
	b := int64(0)
	if pp.tree != nil {
		b += int64(pp.tree.EstimatedBytes())
	}
	if pp.hash != nil {
		b += int64(pp.hash.EstimatedBytes())
	}
	return b
}

// SiteReach describes one accum site's derived interaction radius — the
// per-class-pair answer to "how far can a probe reach", as used for ghost
// margins. Valid after at least one partitioned tick.
type SiteReach struct {
	Class  string // probing class
	Source string // iterated class
	Phase  int
	Shared bool // whole-world fallback (unbounded, handler, hash layout, …)
	Dims   []SiteReachDim
}

// SiteReachDim is one range dimension's reach around its anchor axis.
type SiteReachDim struct {
	Attr     string // source attribute the dimension bounds
	Axis     string // probing-class position attribute anchoring it
	Lo, Hi   float64
	Anchored bool
}

// InteractionRadii reports every accum site's derived reach (per probing/
// source class pair) from the last prepared tick.
func (w *World) InteractionRadii() []SiteReach {
	if w.parts == nil {
		return nil
	}
	var out []SiteReach
	for _, site := range w.sites {
		sr := SiteReach{Class: site.class, Source: site.step.SourceClass, Phase: site.phase, Shared: site.shared}
		if j := site.step.Join; j != nil {
			srcRT := w.classes[site.step.SourceClass]
			probeRT := w.classes[site.class]
			for d, rd := range j.Ranges {
				dim := SiteReachDim{Attr: srcRT.cls.State[rd.AttrIdx].Name}
				if d < len(site.reach) && site.reach[d].axis >= 0 {
					rc := site.reach[d]
					dim.Anchored = true
					dim.Axis = probeRT.cls.State[probeRT.prt.axes[rc.axis]].Name
					dim.Lo, dim.Hi = rc.lo, rc.hi
				}
				sr.Dims = append(sr.Dims, dim)
			}
		}
		out = append(out, sr)
	}
	return out
}
