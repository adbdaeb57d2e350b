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

	// boxBuf holds the probe box being evaluated: lower bounds, then upper.
	boxBuf []float64

	// Batched-join scratch (see join.go), sized by one batch of probes: the
	// segmented candidate stream, the per-candidate gathered columns and
	// probe lanes, and kernel outputs.
	segRows  []int32 // candidate rows, segment after segment
	segEnds  []int32 // per segment: end of its candidates in segRows
	segProbe []int32 // per segment: the probing physical row
	eqVals   []value.Value
	lanes    [][]float64 // gathered candidate columns, indexed by attr
	idLane   []float64
	pLanes   [][]float64 // probing-row scalars along the stream
	valBuf   []float64
	keyBuf   []float64
	resBuf   []float64
	resBuf2  []float64
	accEnv   vexpr.Env
	machine  *vexpr.Machine

	// Hoisted joins (joinWindow): the probing-row window [winLo, winHi) the
	// result lanes hold, one lane per hoisted site of the class, and the
	// window's bound kernel inputs and outputs.
	winLo, winHi int
	hoistRes     [][]float64 // result payloads by probing row − winLo
	boundCols    [][]float64
	boundOut     [][]float64

	// accSlab backs the accumulators runAccum arms, one cell per frame
	// slot, so arming an accum loop never heap-allocates. Sized once at
	// context arming and never regrown mid-run (accum[slot] aliases cells).
	accSlab []combinator.Accumulator

	// probe accounting, flushed into World.execStats when the ctx retires
	pend        []sitePend // by site ordinal
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
	x.part, x.curTxn = 0, nil
	x.winLo, x.winHi = 0, 0
	if len(x.pend) < len(x.w.sites) {
		x.pend = make([]sitePend, len(x.w.sites))
	}
}

// sitePend is one site's state inside one shard: the 64-row window of the
// last probe-extent sample (+1; 0 = none yet).
type sitePend struct {
	sampled int
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
// Called once per shard; safe to call concurrently.
func (x *execCtx) flushJoinStats() {
	clear(x.pend)
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
	kind := s.Comb.ResultKind(s.ValKind)
	if site.hoisted {
		x.frame[s.Slot] = payloadValue(kind, x.hoistRes[site.hoistIdx][x.row-x.winLo])
		return
	}
	srcRT := x.w.classes[s.SourceClass]
	ids := srcRT.tab.RawIDs()
	indexed := s.Join != nil && s.SourceFn == nil
	var cand int
	if indexed {
		cand = x.probeOne(site, srcRT)
	}
	if site.batched && site.batch.vec {
		x.filterOne(s, site, srcRT, cand)
		var res [1]float64
		x.foldSegs(s, site.batch, srcRT, res[:], x.row)
		x.frame[s.Slot] = payloadValue(kind, res[0])
		return
	}
	// Arm the accumulator in the slot-indexed slab (nested accums occupy
	// distinct slots), so arming never heap-allocates.
	x.accSlab[s.Slot] = combinator.New(s.Comb, s.ValKind)
	acc := &x.accSlab[s.Slot]
	x.accum[s.Slot] = acc
	runBody := func(steps []compile.Step, id value.ID) {
		x.frame[s.IterSlot] = value.Ref(id)
		x.runSteps(steps)
	}

	switch {
	case s.SourceFn != nil:
		// Iterate a computed set of refs (deterministic element order).
		set := s.SourceFn(&x.ctx).AsSet()
		for _, e := range set.Elems() {
			if e.Kind() == value.KindRef && srcRT.tab.Has(e.AsRef()) {
				runBody(s.Body, e.AsRef())
			}
		}
	case !indexed:
		// Unanalyzed body: scan every row that can match — under
		// Partitions the member view, which for these shared sites is the
		// full live extent.
		if x.w.parts != nil {
			rows := x.sitePart(site).view.Rows()
			for _, r := range rows {
				runBody(s.Body, ids[r])
			}
			x.probed(len(rows))
			break
		}
		tab := srcRT.tab
		for r := 0; r < tab.Cap(); r++ {
			if tab.Alive(r) {
				runBody(s.Body, ids[r])
			}
		}
		x.probed(tab.Len())
	default:
		// The probed candidates, filtered down to the join's survivors
		// when batched; the interpreted body re-checks the full predicate
		// anyway. Stack-discipline the stream: a nested accum inside the
		// body must append past our candidates, not clobber them.
		body := s.Body
		if site.batched {
			x.filterOne(s, site, srcRT, cand)
			body = s.Join.Inner
		} else {
			x.probed(cand)
		}
		rows := x.segRows
		x.segRows = rows[len(rows):]
		for _, r := range rows {
			runBody(body, ids[r])
		}
		x.segRows = rows[:0]
	}

	// Publish the combined result for the `in` block and later steps.
	x.frame[s.Slot], _ = acc.Result()
	x.accum[s.Slot] = nil
}

// evalBox computes the probe rectangle for the current row from the site's
// range dimensions (evalDimBounds per dimension). The box lives in the
// context's scratch until the next evaluation.
func (x *execCtx) evalBox(site *siteRT) (lo, hi []float64) {
	d := len(site.step.Join.Ranges)
	box := grow(x.boxBuf, 2*d)
	x.boxBuf = box
	lo, hi = box[:d:d], box[d:]
	for i, r := range site.step.Join.Ranges {
		lo[i], hi[i] = evalDimBounds(&x.ctx, r)
	}
	return lo, hi
}

// sampleExtent feeds the probe-box EMA that sizes grid cells: the first
// probe of the site in every 64-row window of probing rows contributes its
// box's mean width. The samples queue in the shard's sink and fold after
// the pass in (shard, row) order, so the cell size is a function of the
// tick's input, not of worker scheduling. Sampling is deliberately outside
// the DisableStats gate: without it the grid would be stuck on the default
// cell size whenever statistics are disabled.
func (x *execCtx) sampleExtent(site *siteRT, row int, lo, hi []float64) {
	p := &x.pend[site.ord]
	if p.sampled == row>>6+1 {
		return
	}
	p.sampled = row>>6 + 1
	ext, d := 0.0, 0
	for i := range lo {
		w := hi[i] - lo[i]
		if !(w >= 0) || math.IsInf(w, 1) {
			continue // empty, NaN or unbounded dims say nothing about cells
		}
		ext += w
		d++
	}
	if d > 0 {
		x.sink.extents = append(x.sink.extents, extSample{site: site, ext: ext / float64(d)})
	}
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

// probed records one probe whose body ran for matches candidates.
func (x *execCtx) probed(matches int) {
	x.joinProbes++
	x.joinMatches += int64(matches)
}

// decideSite sets one site's strategy and join-execution mode for this
// tick: the index its predicate's shape names (strategyFor) — the decision
// shared verbatim by the single-extent and partitioned preparation paths,
// so Partitions cannot change which plans run. It returns the source
// runtime and the live row counts of the source and probing classes; srcRT
// is nil for sites that always run nested-loop (computed source sets,
// unanalyzed bodies).
func (w *World) decideSite(site *siteRT) (srcRT *classRT, n, p int) {
	st := site.step
	site.strategy = strategyFor(st, w.opts.Strategy)
	if st.SourceFn != nil || st.Join == nil {
		site.batched, site.hoisted = false, false
		return nil, 0, 0
	}
	srcRT = w.classes[st.SourceClass]
	n = srcRT.tab.Len()
	p = w.classes[site.class].tab.Len()
	site.batched = site.batch != nil && w.opts.Join != plan.JoinScalar
	site.hoisted = site.batched && site.batch.hoist && !w.oneSegment &&
		(site.strategy == plan.GridIndex || site.strategy == plan.RangeTreeIndex)
	return srcRT, n, p
}

// prepareSites runs once per tick before the effect phase: each site takes
// its strategy and join-execution mode (decideSite), and the per-tick
// indexes are built — or reused, or skipped entirely when nothing can
// probe them. Partitioned worlds run the per-partition variant instead
// (partition.go).
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
			site.hoisted = false
			pp.tree, pp.hash = nil, nil
			pp.builtOK = false
			continue
		}

		if w.indexFresh(site, pp, srcRT) {
			if track {
				w.execStats.IndexReuses++
			}
		} else {
			rebuild = append(rebuild, site)
		}
	}
	w.siteBuildList = rebuild

	// Rebuilds: several sites fan out across the worker pool (§4.2: tables
	// are read-only here, and every site builds into its own retained
	// arena).
	if w.parallelOK() && len(rebuild) > 1 {
		w.buildSitesParallel(rebuild)
	} else {
		for _, site := range rebuild {
			w.buildSiteIndex(site, &site.parts[0], w.classes[site.step.SourceClass], nil)
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
		w.buildSiteIndex(site, &site.parts[0], w.classes[site.step.SourceClass], nil)
	})
}

// indexFresh reports whether one partition's retained index is reusable:
// the table's version counters show its source columns and structure
// untouched since the build. Anything else rebuilds, which undercuts
// diffing at the churn rates games see (§4.1).
func (w *World) indexFresh(site *siteRT, pp *sitePart, srcRT *classRT) bool {
	tab := srcRT.tab
	if !pp.builtOK || pp.builtStrategy != site.strategy || !pp.builderValid() {
		return false
	}
	if site.strategy == plan.GridIndex && w.gridCell(site, pp) != pp.builtCell {
		// The desired cell size drifted past the hysteresis band: even an
		// otherwise-unchanged grid must rebuild at the new granularity.
		return false
	}
	if tab.StructVersion() != pp.builtStruct {
		return false
	}
	for i, a := range site.srcAttrs {
		if tab.ColVersion(a) != pp.builtVers[i] {
			return false
		}
	}
	return true
}

// gridCell picks the grid cell size: the probe-extent EMA with hysteresis
// toward the partition's previously built size, so slow EMA drift does not
// defeat index reuse.
func (w *World) gridCell(site *siteRT, pp *sitePart) float64 {
	cell := site.boxExtent.Value()
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

// buildSiteIndex rebuilds one partition's index into its retained arena:
// over the full extent when memberRows is nil, else over exactly those
// member rows (the partitioned executor's owned+ghost views). The build
// scope is recorded in builtMembers so the maintenance ladders can never
// reuse a member-scoped index for whole-extent probes or vice versa.
func (w *World) buildSiteIndex(site *siteRT, pp *sitePart, srcRT *classRT, memberRows []int32) {
	pp.tree, pp.hash = nil, nil
	j := site.step.Join
	tab := srcRT.tab
	rows := memberRows
	if rows == nil {
		pp.rowsBuf = tab.LiveRows(pp.rowsBuf[:0])
		rows = pp.rowsBuf
	}
	switch site.strategy {
	case plan.RangeTreeIndex:
		pp.dims = pp.dims[:0]
		for _, r := range j.Ranges {
			pp.dims = append(pp.dims, r.AttrIdx)
		}
		entries := pp.builder.Entries(len(rows))
		coords := pp.builder.Coords(len(rows) * len(pp.dims))
		fillEntries(tab, pp.dims, rows, entries, coords)
		pp.tree = pp.builder.BuildRangeTree(len(pp.dims), entries)
	case plan.GridIndex:
		cell := w.gridCell(site, pp)
		pp.tree = pp.builder.BuildGrid(cell, tab.NumColumn(j.Ranges[0].AttrIdx), tab.NumColumn(j.Ranges[1].AttrIdx), rows)
		pp.builtCell = cell
	case plan.HashIndex:
		// Hash sites have no range conjuncts, so they are never spatially
		// partitioned: always whole-extent.
		h := pp.builder.RowHash()
		ids := tab.RawIDs()
		for _, r := range rows {
			key := index.KeySeed
			for _, eq := range j.Eqs {
				key = index.HashValue(key, tab.At(int(r), eq.AttrIdx))
			}
			h.Insert(key, ids[r], r)
		}
		pp.hash = h
	}
	pp.builtStrategy = site.strategy
	pp.builtOK = true
	pp.builtMembers = memberRows != nil
	pp.noteBuilt(site, tab)
}

// fillEntries materializes the range tree's (id, row, coords) entries for
// the given rows, in row order.
func fillEntries(tab *table.Table, dims []int, rows []int32, entries []index.Entry, coords []float64) {
	ids := tab.RawIDs()
	d := len(dims)
	for k, r := range rows {
		c := coords[k*d : k*d+d : k*d+d]
		for di, ai := range dims {
			c[di] = tab.NumColumn(ai)[r]
		}
		entries[k] = index.Entry{ID: ids[r], Row: r, Coords: c}
	}
}
