package engine

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// execCtx executes compiled steps for one row at a time.
type execCtx struct {
	w     *World
	ctx   expr.Ctx
	frame []value.Value
	accum []*combinator.Accumulator // active accum accumulators by slot

	rt   *classRT
	row  int
	id   value.ID
	self rowReader // ctx.Self points here, so binding a row boxes nothing

	// part is the shared-nothing partition this context executes for
	// (always 0 outside partitioned mode); accum probes resolve their
	// partition-local index through it.
	part int32

	sink   *shardSink
	curTxn *Txn
	dst    *classRT // target class of the last cross-object emission

	// scratch buffers reused across rows
	loBuf []float64
	hiBuf []float64

	// batched-join scratch (see join.go)
	rowsBuf  []int32
	eqVals   []value.Value
	lanes    [][]float64 // gathered candidate columns, indexed by attr
	idLane   []float64
	valBuf   []float64
	keyBuf   []float64
	resBuf   []float64
	resBuf2  []float64
	bcastBuf []float64
	accEnv   vexpr.Env
	machine  *vexpr.Machine

	// accSlab backs the accumulators runAccum arms, one cell per frame
	// slot, so arming an accum loop never heap-allocates. Sized once at
	// context arming and never regrown mid-run (accum[slot] aliases cells).
	accSlab []combinator.Accumulator

	// probe accounting, flushed into World.execStats when the ctx retires
	probeSeq    int64
	joinProbes  int64
	joinMatches int64
	joinBatched int64
	dictLookups int64
}

// arm readies a worker slot's pooled context for one shard, resetting
// every piece of per-pass state a fresh context would zero — frame contents
// (runAtomic copies the whole frame into Txn.Frame), accumulator bindings,
// row bindings, probe sequencing — so pooling is invisible to execution and
// a warmed tick allocates no execution state. m is the kernel machine the
// context's batched joins run on.
func (x *execCtx) arm(sink *shardSink, m *vexpr.Machine, slots int) {
	if cap(x.accSlab) < slots {
		x.frame = make([]value.Value, slots)
		x.accum = make([]*combinator.Accumulator, slots)
		x.accSlab = make([]combinator.Accumulator, slots)
	}
	x.frame = x.frame[:slots]
	x.accum = x.accum[:slots]
	x.accSlab = x.accSlab[:slots]
	for i := range x.frame {
		x.frame[i] = value.Value{}
		x.accum[i] = nil
	}
	x.ctx.Frame = x.frame
	x.sink = sink
	x.machine = m
	x.rt, x.row, x.id = nil, 0, 0
	x.ctx.Class, x.ctx.SelfID, x.ctx.Self = "", 0, nil
	x.part, x.curTxn, x.probeSeq = 0, nil, 0
}

// updateCtx re-arms the world's pooled update context for one component (or
// the expression-rule step, owner "").
func (w *World) updateCtx(owner string) *UpdateCtx {
	if w.uctx == nil {
		w.uctx = &UpdateCtx{w: w}
	}
	w.uctx.owner = owner
	return w.uctx
}

// bindRow points the context at one executing object.
func (x *execCtx) bindRow(rt *classRT, row int) {
	x.rt, x.row, x.id = rt, row, rt.tab.ID(row)
	x.ctx.Class = rt.name
	x.ctx.SelfID = x.id
	x.self = rowReader{rt: rt, row: row}
	x.ctx.Self = &x.self
}

// sitePart resolves the site index this context probes: the partition-local
// one in partitioned mode, the whole-extent parts[0] otherwise (and for
// sites the partitioned prep classified shared).
func (x *execCtx) sitePart(site *siteRT) *sitePart {
	if x.w.parts == nil || site.shared {
		return &site.parts[0]
	}
	return &site.parts[x.part]
}

// flushJoinStats folds the context's probe counters into the world totals.
// Called once per class pass per worker; safe to call concurrently.
func (x *execCtx) flushJoinStats() {
	if !x.w.opts.DisableStats {
		atomic.AddInt64(&x.w.execStats.JoinProbeRows, x.joinProbes)
		atomic.AddInt64(&x.w.execStats.JoinMatchRows, x.joinMatches)
		atomic.AddInt64(&x.w.execStats.JoinBatchedRows, x.joinBatched)
		atomic.AddInt64(&x.w.execStats.DictLookups, x.dictLookups)
	}
	x.joinProbes, x.joinMatches, x.joinBatched, x.dictLookups = 0, 0, 0, 0
}

func (x *execCtx) runSteps(steps []compile.Step) {
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.LetStep:
			x.frame[s.Slot] = s.Fn(&x.ctx)
		case *compile.IfStep:
			if s.Cond(&x.ctx).AsBool() {
				x.runSteps(s.Then)
			} else if s.Else != nil {
				x.runSteps(s.Else)
			}
		case *compile.EmitStep:
			x.runEmit(s)
		case *compile.AtomicStep:
			x.runAtomic(s)
		case *compile.AccumStep:
			x.runAccum(s)
		}
	}
}

func (x *execCtx) runEmit(s *compile.EmitStep) {
	val := s.ValFn(&x.ctx)
	if s.AccumSlot >= 0 {
		acc := x.accum[s.AccumSlot]
		var key float64
		if s.KeyFn != nil {
			key = s.KeyFn(&x.ctx).AsNumber()
		}
		acc.Add(val, key)
		return
	}
	// Resolve the target once, here: self-emissions are the executing row,
	// and a ref is looked up in its class's id index.
	dst, row, target := x.rt, x.row, x.id
	if s.TargetFn != nil {
		ref := s.TargetFn(&x.ctx)
		if ref.IsNullRef() {
			return
		}
		target = ref.AsRef()
		if x.dst == nil || x.dst.name != s.Class {
			x.dst = x.w.classes[s.Class]
		}
		dst = x.dst
		row = dst.tab.Row(target)
	}
	var key float64
	if s.KeyFn != nil {
		key = s.KeyFn(&x.ctx).AsNumber()
	}
	if x.w.tracer != nil {
		x.w.tracer(x.w.tick, x.rt.name, x.id, s.Class, target, dst.cls.Effects[s.AttrIdx].Name, val)
	}
	if t := x.curTxn; t != nil {
		t.Emissions = append(t.Emissions, Emission{Class: s.Class, Target: target, AttrIdx: s.AttrIdx, Val: val, Key: key, SetInsert: s.SetInsert})
		t.fx = append(t.fx, txnFx{rt: dst, row: int32(row), attr: int32(s.AttrIdx)})
		return
	}
	if row < 0 {
		return // dangling target: the contribution is dropped
	}
	x.sink.emit(dst, row, s.AttrIdx, val, key)
}

// runAtomic collects the block's emissions into a recycled intent whose
// source is the executing row.
func (x *execCtx) runAtomic(s *compile.AtomicStep) {
	t := x.sink.takeTxn()
	t.Class, t.Source, t.Constraints, t.step, t.Aborted = x.rt.name, x.id, s.Constraints, s, false
	t.Frame = append(t.Frame[:0], x.frame...)
	t.Emissions, t.fx = t.Emissions[:0], t.fx[:0]
	t.rt, t.row, t.resolved = x.rt, int32(x.row), true
	x.curTxn = t
	x.runSteps(s.Body)
	x.curTxn = nil
	if len(t.Emissions) > 0 {
		x.sink.addTxn(t)
	} else {
		x.sink.txnUsed-- // nothing to admit: the intent goes straight back
	}
}

func (x *execCtx) runAccum(s *compile.AccumStep) {
	site := x.w.siteIndex[s]
	// Arm the accumulator in the slot-indexed slab (nested accums occupy
	// distinct slots), so arming never heap-allocates.
	x.accSlab[s.Slot] = combinator.New(s.Comb, s.ValKind)
	acc := &x.accSlab[s.Slot]
	x.accum[s.Slot] = acc

	srcRT := x.w.classes[s.SourceClass]
	iterSlot := s.IterSlot

	runBody := func(id value.ID) {
		x.frame[iterSlot] = value.Ref(id)
		x.runSteps(s.Body)
	}

	switch {
	case s.SourceFn != nil:
		// Iterate a computed set of refs (deterministic element order).
		set := s.SourceFn(&x.ctx).AsSet()
		for _, e := range set.Elems() {
			if e.Kind() == value.KindRef && srcRT.tab.Has(e.AsRef()) {
				runBody(e.AsRef())
			}
		}
	case site != nil && site.batched:
		x.runAccumBatched(s, site, srcRT)
	case site == nil || site.strategy == plan.NestedLoop:
		if site != nil && x.w.parts != nil {
			// Partitioned scan: the member view (owned + ghosts, ascending
			// physical rows — the full live extent for shared sites) holds
			// every row whose predicate can match a probe from this
			// partition; the body re-checks the predicate per row as usual.
			rows := x.sitePart(site).view.Rows()
			ids := srcRT.tab.RawIDs()
			for _, r := range rows {
				runBody(ids[r])
			}
			x.probed(site, len(rows))
			break
		}
		tab := srcRT.tab
		for r := 0; r < tab.Cap(); r++ {
			if tab.Alive(r) {
				runBody(tab.ID(r))
			}
		}
		if site != nil {
			// Upper bound; the cost model treats NL matches as whole-scan.
			x.probed(site, tab.Len())
		}
	case site.strategy == plan.HashIndex:
		key := x.evalEqKeys(site)
		pp := x.sitePart(site)
		var ids []value.ID
		if pp.hash != nil {
			ids, _ = pp.hash.Lookup(key)
		}
		// The interpreted body re-evaluates the full predicate per match,
		// so composite-key hash collisions are filtered here for free.
		// Bucket entries are inserted in physical-row order, so this path
		// is row-canonical already.
		for _, id := range ids {
			runBody(id)
		}
		x.probed(site, len(ids))
	default: // RangeTreeIndex or GridIndex
		lo, hi := x.evalBox(site)
		x.sampleExtent(site, lo, hi)
		rows := x.rowsBuf[:0]
		if pp := x.sitePart(site); pp.tree != nil {
			rows = pp.tree.QueryRows(lo, hi, rows)
		}
		if x.w.parts != nil {
			// Partitioned probes canonicalize candidates to physical-row
			// order: the fold order of ⊕ contributions is then independent
			// of the partition layout and of which index traversal produced
			// the candidates, which is what makes any partition count
			// bit-identical to Partitions=1.
			index.SortRows(rows)
		}
		ids := srcRT.tab.RawIDs()
		// Stack-discipline the buffer: a nested accum inside the body must
		// append past our candidates, not clobber them.
		x.rowsBuf = rows[len(rows):]
		for _, r := range rows {
			runBody(ids[r])
		}
		x.rowsBuf = rows[:0]
		x.probed(site, len(rows))
	}

	// Publish the combined result for the `in` block and later steps.
	v, ok := acc.Result()
	if !ok {
		v = value.Zero(s.Comb.ResultKind(s.ValKind))
	}
	x.frame[s.Slot] = v
	x.accum[s.Slot] = nil
}

// evalBox computes the probe rectangle for the current row from the site's
// range dimensions. A NaN bound makes its conjunct unsatisfiable (`u.a >=
// NaN` never holds), so the whole dimension collapses to an empty interval
// rather than silently dropping the bound.
func (x *execCtx) evalBox(site *siteRT) (lo, hi []float64) {
	d := len(site.step.Join.Ranges)
	if cap(x.loBuf) < d {
		x.loBuf = make([]float64, d)
		x.hiBuf = make([]float64, d)
	}
	lo, hi = x.loBuf[:d], x.hiBuf[:d]
	for i, r := range site.step.Join.Ranges {
		l := math.Inf(-1)
		nan := false
		for _, f := range r.Lo {
			v := f(&x.ctx).AsNumber()
			if math.IsNaN(v) {
				nan = true
			}
			if v > l {
				l = v
			}
		}
		h := math.Inf(1)
		for _, f := range r.Hi {
			v := f(&x.ctx).AsNumber()
			if math.IsNaN(v) {
				nan = true
			}
			if v < h {
				h = v
			}
		}
		if nan {
			l, h = math.Inf(1), math.Inf(-1)
		}
		lo[i], hi[i] = l, h
	}
	return lo, hi
}

// sampleExtent feeds the probe-box EMA that sizes grid cells. It samples a
// small fraction of probes on a per-context counter, deliberately outside
// the DisableStats gate: without it the grid would be stuck on the default
// cell size whenever statistics are disabled.
func (x *execCtx) sampleExtent(site *siteRT, lo, hi []float64) {
	x.probeSeq++
	if x.probeSeq&63 != 1 {
		return
	}
	ext, d := 0.0, 0
	for i := range lo {
		w := hi[i] - lo[i]
		if !(w >= 0) || math.IsInf(w, 1) {
			continue // empty, NaN or unbounded dims say nothing about cells
		}
		ext += w
		d++
	}
	if d == 0 {
		return
	}
	site.mu.Lock()
	site.boxExtent.Add(ext / float64(d))
	site.mu.Unlock()
}

// evalEqKeys evaluates the site's equality-conjunct keys for the current
// row into x.eqVals and returns their composite hash (all conjuncts fold
// into one key — multi-equality joins probe exact buckets instead of a
// single-attribute superset).
func (x *execCtx) evalEqKeys(site *siteRT) uint64 {
	h := index.KeySeed
	x.eqVals = x.eqVals[:0]
	for _, eq := range site.step.Join.Eqs {
		v := eq.Key(&x.ctx)
		h = index.HashValue(h, v)
		x.eqVals = append(x.eqVals, v)
	}
	return h
}

// probed records one probe of site whose body ran for matches candidates.
func (x *execCtx) probed(site *siteRT, matches int) {
	site.observe(x.w, 1, int64(matches))
	x.joinProbes++
	x.joinMatches += int64(matches)
}

// observe records execution feedback. Counters use atomics because the
// parallel effect phase probes sites from several workers.
func (s *siteRT) observe(w *World, probes, matches int64) {
	if w.opts.DisableStats {
		return
	}
	atomic.AddInt64(&s.stats.Probes, probes)
	atomic.AddInt64(&s.stats.Matches, matches)
}

// decideSite picks one site's strategy and join-execution mode for this
// tick from feedback statistics — the decision logic shared verbatim by the
// single-extent and partitioned preparation paths, so Partitions cannot
// change which plans run. It returns the source runtime and the extent
// sizes the maintenance ladder needs; srcRT is nil for sites that always
// run nested-loop (computed source sets, unanalyzed bodies).
func (w *World) decideSite(site *siteRT) (srcRT *classRT, n, p int) {
	st := site.step
	if st.SourceFn != nil || st.Join == nil {
		site.strategy = plan.NestedLoop
		site.batched = false
		return nil, 0, 0
	}
	srcRT = w.classes[st.SourceClass]
	n = srcRT.tab.Len()
	p = w.classes[site.class].tab.Len()
	if site.phase >= 0 && w.classes[site.class].plan.NumPhases > 1 {
		// Only rows in this phase probe; approximate evenly.
		p = p/w.classes[site.class].plan.NumPhases + 1
	}

	kHat := 8.0 // optimistic prior before feedback arrives
	var sstats = site.stats
	if w.opts.DisableStats {
		sstats = nil
	}
	if sstats != nil && sstats.MatchPerProbe.Ready() {
		kHat = sstats.MatchPerProbe.Value()
	}
	if w.opts.Strategy != plan.Auto {
		site.strategy = forceStrategy(w.opts.Strategy, site)
	} else {
		site.strategy = forceStrategy(
			site.selector.Choose(site.candidates, n, p, kHat, len(st.Join.Ranges), sstats), site)
	}
	site.batched = site.batch != nil &&
		w.execCosts.ChooseJoin(w.opts.Join, kHat, site.batch.vec) == plan.JoinBatched
	return srcRT, n, p
}

// prepareSites runs once per tick before the effect phase: each site's
// selector chooses this tick's strategy and join-execution mode from
// feedback statistics, and the per-tick indexes are built (§4.1's
// multi-plan switching) — or reused, patched incrementally, or skipped
// entirely when nothing can probe them. Partitioned worlds run the
// per-partition variant instead (partition.go).
func (w *World) prepareSites() {
	if w.parts != nil {
		w.preparePartitionedSites()
		return
	}
	track := !w.opts.DisableStats
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	rebuild := w.siteBuildList[:0]
	for _, site := range w.sites {
		srcRT, n, p := w.decideSite(site)
		if srcRT == nil {
			continue
		}
		pp := &site.parts[0]

		// Nothing can probe (empty probing extent) or nothing can match
		// (empty source extent): skip index construction entirely. A
		// nested-loop scan over the source is trivially correct either way.
		if n == 0 || p == 0 {
			site.strategy = plan.NestedLoop
			pp.tree, pp.hash = nil, nil
			pp.builtOK = false
			continue
		}

		switch w.siteMaint(site, pp, srcRT, true) {
		case plan.MaintReuse:
			if track {
				w.execStats.IndexReuses++
			}
		case plan.MaintIncremental:
			if track {
				w.execStats.IndexIncrements++
			}
		default:
			rebuild = append(rebuild, site)
		}
	}
	w.siteBuildList = rebuild

	// Rebuilds: several sites fan out across the worker pool; a single site
	// shards its entry gather instead (§4.2: tables are read-only here, and
	// every site builds into its own retained arena).
	if w.parallelOK() && len(rebuild) > 1 {
		w.buildSitesParallel(rebuild)
	} else {
		for _, site := range rebuild {
			w.buildSiteIndex(site, &site.parts[0], w.classes[site.step.SourceClass], nil, true)
		}
	}
	if track {
		w.execStats.IndexBuildNanos += time.Since(t0).Nanoseconds()
	}
}

// buildSitesParallel fans pending site rebuilds out across the worker pool
// via a shared worklist. Kept out of prepareSites so its escaping closures
// never cost the serial path an allocation.
func (w *World) buildSitesParallel(rebuild []*siteRT) {
	w.runPool(len(rebuild), w.opts.Workers, func(_, j int) {
		site := rebuild[j]
		w.buildSiteIndex(site, &site.parts[0], w.classes[site.step.SourceClass], nil, false)
	})
}

// siteMaint decides how to bring one partition's index up to date. Reuse
// and incremental maintenance hinge on the table's cheap version counters:
// an index whose source columns and structure are untouched since it was
// built is still exact; a grid whose columns drifted by only a few rows is
// patched in place by Grid.Sync (cell-order canonical, so a synced grid
// answers probes identically to a rebuild). syncOK is true only when pp
// spans the full extent — Grid.Sync reconciles against the whole alive
// mask, which would smuggle non-member rows into a partition-local grid.
func (w *World) siteMaint(site *siteRT, pp *sitePart, srcRT *classRT, syncOK bool) plan.Maint {
	tab := srcRT.tab
	if !pp.builtOK || pp.builtStrategy != site.strategy || !pp.builderValid() {
		return plan.MaintRebuild
	}
	if site.strategy == plan.GridIndex && w.gridCell(site, pp) != pp.builtCell {
		// The desired cell size drifted past the hysteresis band: even an
		// otherwise-unchanged grid must rebuild at the new granularity.
		return plan.MaintRebuild
	}
	dirty := tab.StructVersion() != pp.builtStruct
	for i, a := range site.srcAttrs {
		if tab.ColVersion(a) != pp.builtVers[i] {
			dirty = true
		}
	}
	if !dirty {
		return plan.MaintReuse
	}
	if syncOK && site.strategy == plan.GridIndex && pp.builder.Grid() != nil {
		j := site.step.Join
		a0, a1 := j.Ranges[0].AttrIdx, j.Ranges[1].AttrIdx
		budget := w.execCosts.MaintDirtyBudget(tab.Len())
		g := pp.builder.Grid()
		if dirtyRows, ok := g.Sync(tab.NumColumn(a0), tab.NumColumn(a1), tab.AliveMask(), tab.RawIDs(), budget); ok {
			switch w.execCosts.ChooseMaint(tab.Len(), dirtyRows, true) {
			case plan.MaintReuse:
				pp.noteBuilt(site, tab)
				return plan.MaintReuse // versions moved but no row changed
			default:
				pp.noteBuilt(site, tab)
				return plan.MaintIncremental
			}
		}
	}
	return plan.MaintRebuild
}

// gridCell picks the grid cell size: the probe-extent EMA with hysteresis
// toward the partition's previously built size, so incremental maintenance
// is not defeated by slow EMA drift.
func (w *World) gridCell(site *siteRT, pp *sitePart) float64 {
	site.mu.Lock()
	cell := site.boxExtent.Value()
	site.mu.Unlock()
	if cell <= 0 {
		cell = 64
	}
	if pp.builtOK && pp.builtStrategy == plan.GridIndex && pp.builtCell > 0 {
		if r := cell / pp.builtCell; r > 0.75 && r < 1.33 {
			return pp.builtCell
		}
	}
	return cell
}

// noteBuilt records the source versions an up-to-date index reflects, plus
// the (builder, generation) identity that keeps reuse sound under pooling.
func (pp *sitePart) noteBuilt(site *siteRT, tab *table.Table) {
	pp.builtBuilder = pp.builder
	pp.builtGen = 0
	if pp.builder != nil {
		pp.builtGen = pp.builder.Gen()
	}
	pp.builtStruct = tab.StructVersion()
	pp.builtVers = pp.builtVers[:0]
	for _, a := range site.srcAttrs {
		pp.builtVers = append(pp.builtVers, tab.ColVersion(a))
	}
}

// forceStrategy clamps a forced strategy to what the site supports.
func forceStrategy(s plan.Strategy, site *siteRT) plan.Strategy {
	for _, c := range site.candidates {
		if c == s {
			return s
		}
	}
	return site.candidates[0]
}

// buildSiteIndex rebuilds one partition's index into its retained arena:
// over the full extent when memberRows is nil, else over exactly those
// member rows (the partitioned executor's owned+ghost views). The build
// scope is recorded in builtMembers so the maintenance ladders can never
// reuse a member-scoped index for whole-extent probes or vice versa.
// allowShard permits sharding the whole-extent entry gather across the
// worker pool (disabled when sites themselves are being built in parallel;
// member gathers are already per-partition work units).
func (w *World) buildSiteIndex(site *siteRT, pp *sitePart, srcRT *classRT, memberRows []int32, allowShard bool) {
	pp.tree, pp.hash = nil, nil
	j := site.step.Join
	tab := srcRT.tab
	n := tab.Len()
	if memberRows != nil {
		n = len(memberRows)
	}
	fill := func(dims []int, entries []index.Entry, coords []float64) {
		if memberRows != nil {
			fillMemberEntries(tab, dims, memberRows, entries, coords)
		} else {
			w.fillEntries(srcRT, dims, entries, coords, allowShard)
		}
	}
	switch site.strategy {
	case plan.RangeTreeIndex:
		pp.dims = pp.dims[:0]
		for _, r := range j.Ranges {
			pp.dims = append(pp.dims, r.AttrIdx)
		}
		entries := pp.builder.Entries(n)
		coords := pp.builder.Coords(n * len(pp.dims))
		fill(pp.dims, entries, coords)
		pp.tree = pp.builder.BuildRangeTree(len(pp.dims), entries)
	case plan.GridIndex:
		cell := w.gridCell(site, pp)
		pp.dims = pp.dims[:0]
		pp.dims = append(pp.dims, j.Ranges[0].AttrIdx, j.Ranges[1].AttrIdx)
		entries := pp.builder.Entries(n)
		coords := pp.builder.Coords(n * 2)
		fill(pp.dims, entries, coords)
		pp.tree = pp.builder.BuildGrid(cell, entries)
		pp.builtCell = cell
	case plan.HashIndex:
		// Hash sites have no range conjuncts, so they are never spatially
		// partitioned: always whole-extent.
		h := pp.builder.RowHash()
		alive := tab.AliveMask()
		ids := tab.RawIDs()
		for r, ok := range alive {
			if !ok {
				continue
			}
			key := index.KeySeed
			for _, eq := range j.Eqs {
				key = index.HashValue(key, tab.At(r, eq.AttrIdx))
			}
			h.Insert(key, ids[r], int32(r))
		}
		pp.hash = h
	}
	pp.builtStrategy = site.strategy
	pp.builtOK = true
	pp.builtMembers = memberRows != nil
	pp.noteBuilt(site, tab)
}

// fillEntries materializes (id, row, coords) entries for every live source
// row, in physical row order. Large extents shard the gather across the
// worker pool: per-shard live counts prefix-sum into disjoint output
// offsets, so workers write non-overlapping ranges and the entry order is
// identical to the serial fill.
func (w *World) fillEntries(srcRT *classRT, dims []int, entries []index.Entry, coords []float64, allowShard bool) {
	tab := srcRT.tab
	nw := 1
	if allowShard && w.parallelOK() {
		work := w.execCosts.IndexBuildRow * float64(tab.Len()) * float64(len(dims))
		nw = w.execCosts.ChooseWorkers(w.opts.Workers, work)
	}
	if nw <= 1 {
		fillEntryRange(tab, dims, entries, coords, 0, tab.Cap(), 0)
		return
	}
	shards := shardRows(tab.Cap(), nw, w.shardBuf)
	w.shardBuf = shards
	if len(shards) <= 1 {
		fillEntryRange(tab, dims, entries, coords, 0, tab.Cap(), 0)
		return
	}
	alive := tab.AliveMask()
	if cap(w.buildOffs) < len(shards)+1 {
		w.buildOffs = make([]int, len(shards)+1)
	}
	offs := w.buildOffs[:len(shards)+1]
	offs[0] = 0
	for si, sh := range shards {
		c := 0
		for r := sh.lo; r < sh.hi; r++ {
			if alive[r] {
				c++
			}
		}
		offs[si+1] = offs[si] + c
	}
	w.runPool(len(shards), len(shards), func(_, si int) {
		fillEntryRange(tab, dims, entries, coords, shards[si].lo, shards[si].hi, offs[si])
	})
}

// fillEntryRange fills entries for the live rows in [lo, hi), starting at
// output index k — the shared body of the serial and sharded gathers.
func fillEntryRange(tab *table.Table, dims []int, entries []index.Entry, coords []float64, lo, hi, k int) {
	alive := tab.AliveMask()
	ids := tab.RawIDs()
	d := len(dims)
	for r := lo; r < hi; r++ {
		if !alive[r] {
			continue
		}
		c := coords[k*d : k*d+d : k*d+d]
		for di, ai := range dims {
			c[di] = tab.NumColumn(ai)[r]
		}
		entries[k] = index.Entry{ID: ids[r], Row: int32(r), Coords: c}
		k++
	}
}
