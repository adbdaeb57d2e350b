package engine

// Member views and per-partition indexes for shared-nothing partitioned
// execution — the ghost-derivation half of partition.go's §4.2 runtime.
//
// For each accum site, the range conjuncts' bound kernels — the ones the
// hoisted probe runs (siteBatch.loProgs/hiProgs, join.go) — are run over
// the probing extent window by window, and plan.InteractionRadius folds
// the boxes into per-dimension reaches around the best-fitting partition
// axis, every tick. A partition's member view is then every source row whose ownership
// interval — computed with the same clamped-coordinate arithmetic as
// ownership itself, so float rounding can never drop a boundary ghost —
// intersects the partition.
// Sites that cannot be bounded (unbounded or frame-dependent predicates,
// bounds without kernels, computed source sets, reactive-handler sites
// which probe post-update state, hash layouts) fall back to one shared
// whole-extent index, accounted as a full replica per partition.
//
// Per-partition indexes are reused when nothing that feeds them changed
// (columns, structure, ownership, reach, strategy) and rebuilt otherwise,
// fanned out across the worker pool.

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/vexpr"
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

		spatial := w.deriveSiteReach(site)
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

// deriveSiteReach anchors each range dimension of the site to the
// partition axis with the tightest finite reach (plan.InteractionRadius)
// around the probe boxes of every live probing row (all phases: a
// conservative superset of actual probers). The boxes come from the bound
// kernels the hoisted probe runs (windowBounds, windowBox), in
// vexpr.BatchSize windows on the tick arena's machine and lanes; the reach
// is a max-reduction, so it folds window by window. A dimension without
// kernels stays unanchored, which only widens member views. Returns false
// — whole-world fallback — when nothing could be bounded: no self-only
// range conjuncts, a hash layout, a reactive-handler site (it probes
// post-update state the tick-start ghosts would not cover), or unbounded
// predicates.
func (w *World) deriveSiteReach(site *siteRT) bool {
	// The static preconditions — a non-handler site with at least one
	// self-only range dimension — come from the unified analysis; the
	// spatial-layout requirement and the bound evaluation below are the
	// runtime halves.
	if ja := w.ai.Join(site.step); ja == nil || !ja.Partitionable {
		return false
	}
	probeRT := w.classes[site.class]
	pc := probeRT.prt
	naxes := pc.layout.Axes
	if naxes == 0 {
		return false // hash layout or no spatial axes
	}
	pw, b := w.parts, site.batch
	dims := len(b.loProgs)
	// radii[d·naxes+k]: dimension d's running reach below and above axis k.
	radii := grow(pw.radii, dims*naxes)
	pw.radii = radii
	for i := range radii {
		radii[i] = [2]float64{math.Inf(-1), math.Inf(-1)}
	}
	box := grow(pw.box, 2*dims)
	pw.box = box

	m, sc := w.arena.machine, &w.arena.vec
	tab := probeRT.tab
	alive := tab.AliveMask()
	for lo := 0; lo < len(alive); lo += vexpr.BatchSize {
		hi := min(lo+vexpr.BatchSize, len(alive))
		n := hi - lo
		sc.bindWindow(w, probeRT, lo, hi)
		nb := b.windowBounds(m, sc, n)
		// The boxes go to lanes after the bound lanes: dimension d's lower
		// bounds at nb+2d, its upper bounds at nb+2d+1. A dead row's box
		// is empty.
		for k := nb; k < nb+2*dims; k++ {
			window(&sc.bounds, k, n)
		}
		lanes := sc.bounds[nb:]
		for i, ok := range alive[lo:hi] {
			if ok {
				b.windowBox(sc, i, box[:dims], box[dims:])
			}
			for d := range dims {
				lanes[2*d][i], lanes[2*d+1][i] = math.Inf(1), math.Inf(-1)
				if ok {
					lanes[2*d][i], lanes[2*d+1][i] = box[d], box[dims+d]
				}
			}
		}
		for d := range dims {
			for k := range naxes {
				rLo, rHi := plan.InteractionRadius(tab.NumColumn(pc.axes[k])[lo:hi], lanes[2*d][:n], lanes[2*d+1][:n])
				// Strictly greater, as inside InteractionRadius: the fold
				// keeps the first of equal reaches, -0 included.
				r := &radii[d*naxes+k]
				if rLo > r[0] {
					r[0] = rLo
				}
				if rHi > r[1] {
					r[1] = rHi
				}
			}
		}
	}

	site.reach = site.reach[:0]
	anchored := false
	for d := range dims {
		best, bestSpan := dimReach{axis: -1}, math.Inf(1)
		for k, r := range radii[d*naxes : (d+1)*naxes] {
			if span := r[0] + r[1]; plan.BoundedReach(r[0], r[1]) && span < bestSpan {
				best, bestSpan = dimReach{axis: k, lo: r[0], hi: r[1]}, span
			}
		}
		site.reach = append(site.reach, best)
		anchored = anchored || best.axis >= 0
	}
	return anchored
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
