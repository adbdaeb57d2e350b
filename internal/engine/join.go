package engine

// The batched join driver. The scalar accum path interprets the whole loop
// body once per index candidate: every `u.attr` read is an id→row lookup
// plus value boxing, and the predicate the index already served is
// re-evaluated from scratch. The batched driver instead works set-at-a-time
// (§4.1) over a *segmented candidate stream*: the candidates of one or more
// probes, one segment per probe.
//
//  1. Probe: each probe's box (or equality key) and key conjunct
//     (compile.KeyDim) gather candidate *rows* through the index's batch
//     probe; a grid tests both dimensions and the key in one scan. What the
//     index did not test exactly — other range dimensions, NaN the range
//     tree lets through, the key off the grid, single probes' equality
//     conjuncts — is re-checked on raw columns. Under Partitions each
//     segment is sorted to physical-row order.
//  2. Filter: the conjuncts the probe cannot test (the residual) run as
//     mask kernels once over the whole stream, compacting the segments.
//  3. Fold: the value (and minby/maxby key) kernels run once over the
//     stream; each segment folds through combinator.AddPayloads, or, for
//     minby/maxby, as a (key, payload) pair of floats (foldBy).
//
// Probing-row scalars the kernels read (self attributes, the self id,
// let-bound locals) are expanded along each segment into per-candidate
// lanes, so one kernel run serves the candidates of many probes.
//
// Sites whose result depends on nothing but frozen state — a single accum
// emission with compiled kernels, self-only box bounds, no equality keys or
// frame reads, at the top level of a phase — are hoisted: joinWindow probes
// them once per batch of up to vexpr.BatchSize probing rows, with the box
// bounds computed by kernels over the batch, and runAccum just reads the
// row's result. Every other batched probe runs the same driver with one
// segment. Candidate order per probe is exactly the order the scalar path
// visits, and the fold replicates Accumulator.Add comparison for
// comparison, so hoisted, single-probe and scalar execution produce
// bit-identical worlds.

import (
	"math"
	"slices"

	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// siteBatch is the compile-time half of the batched driver for one site.
type siteBatch struct {
	eqKinds []value.Kind // declared kind of each equality-conjunct attr

	// vec is true when the inner body is a single accum emission whose
	// value (and minby/maxby key) compiled to gathered batch kernels.
	vec      bool
	valProg  *vexpr.Prog
	valBcast []vexpr.BcastSrc
	keyProg  *vexpr.Prog
	keyBcast []vexpr.BcastSrc
	cols     []int // source attrs to gather into lanes
	needIDs  bool

	// Vectorized residual: one mask kernel per residual conjunct, ANDed
	// over gathered candidate lanes. Populated only when every conjunct
	// compiles; otherwise the batched driver falls back to the interpreted
	// Residual closure per candidate.
	resProgs   []*vexpr.Prog
	resBcast   [][]vexpr.BcastSrc
	resCols    []int
	resNeedIDs bool

	// hoist marks a site joinWindow may probe once per batch of probing
	// rows. loProgs/hiProgs[d] are the kernels of range dimension d's
	// bounds over the probing class, nil for a dimension that is not
	// self-only or did not compile; the hoisted probe and the partition
	// reach (deriveSiteReach) both run them.
	hoist   bool
	loProgs [][]*vexpr.Prog
	hiProgs [][]*vexpr.Prog
}

// segFlush is the candidate-stream length past which joinWindow folds the
// segments gathered so far: the lanes stay about one kernel batch long.
const segFlush = vexpr.BatchSize

// newSiteBatch analyzes an accum step for batched execution. Any accum with
// an analyzed join can batch (the generic inner runs per survivor); the
// columnar fold additionally requires the single-emission shape. Fold
// VALUES stay numeric (payloadValueKind) — an accumulator of strings would
// need per-contribution decode — but residual predicates compile through
// the dictionary, so string conjuncts like `u.name == "x"` run as mask
// kernels over code lanes instead of bailing the probe to the scalar loop.
// top reports that s sits directly in a phase's step list. The result is
// immutable and shared by every world on this compilation.
func newSiteBatch(c *Compiled, s *compile.AccumStep, top bool) *siteBatch {
	j := s.Join
	if j == nil {
		return nil
	}
	o := c.kernelOpts(nil)
	// The source-class kinds of the equality attrs (analyzeJoin found the
	// class). The plan is shared by all worlds and workers: immutable after.
	b := &siteBatch{}
	srcCls, _ := c.prog.Info.Schema.Class(s.SourceClass)
	for _, eq := range j.Eqs {
		b.eqKinds = append(b.eqKinds, srcCls.State[eq.AttrIdx].Kind)
	}
	if len(j.Inner) == 1 && payloadValueKind(s.ValKind) && s.Comb != combinator.SetUnion {
		if em, ok := j.Inner[0].(*compile.EmitStep); ok && em.AccumSlot == s.Slot && !em.SetInsert && em.ValSrc != nil {
			valProg, valBc, valCols, okVal := vexpr.CompileAccumOpts(em.ValSrc, s.IterSlot, o)
			okKey := true
			var keyProg *vexpr.Prog
			var keyBc []vexpr.BcastSrc
			var keyCols []int
			if em.KeyFn != nil {
				// String minby/maxby keys cannot fold over dictionary codes
				// (first-intern order, not lexicographic).
				if em.KeySrc == nil || em.KeySrc.Type().Kind == value.KindString {
					okKey = false
				} else {
					keyProg, keyBc, keyCols, okKey = vexpr.CompileAccumOpts(em.KeySrc, s.IterSlot, o)
				}
			}
			if okVal && okKey {
				b.vec = true
				b.valProg, b.valBcast = valProg, valBc
				b.keyProg, b.keyBcast = keyProg, keyBc
				b.cols = mergeCols(valCols, keyCols)
				b.needIDs = valProg.NeedIDs() || (keyProg != nil && keyProg.NeedIDs())
				c.addFusedOps(valProg)
				c.addFusedOps(keyProg)
			}
		}
	}
	if len(j.ResidualSrcs) > 0 {
		progs := make([]*vexpr.Prog, 0, len(j.ResidualSrcs))
		bcs := make([][]vexpr.BcastSrc, 0, len(j.ResidualSrcs))
		var cols []int
		needIDs := false
		ok := true
		for _, src := range j.ResidualSrcs {
			p, bc, cc, compiled := vexpr.CompileAccumOpts(src, s.IterSlot, o)
			if !compiled {
				ok = false
				break
			}
			progs = append(progs, p)
			bcs = append(bcs, bc)
			cols = mergeCols(cols, cc)
			needIDs = needIDs || p.NeedIDs()
		}
		if ok {
			b.resProgs, b.resBcast = progs, bcs
			b.resCols, b.resNeedIDs = cols, needIDs
			for _, p := range progs {
				c.addFusedOps(p)
			}
		}
	}
	// Hoisting evaluates everything before the probing row's steps run, so
	// no kernel may read its frame slots.
	bounded := b.compileBounds(c, j.Ranges)
	b.hoist = top && b.vec && (j.Residual == nil || b.resProgs != nil) &&
		len(j.Eqs) == 0 && len(j.Ranges) > 0 && bounded &&
		!readsSlots(b.valBcast) && !readsSlots(b.keyBcast) && !slices.ContainsFunc(b.resBcast, readsSlots)
	return b
}

// compileBounds compiles each self-only range dimension's bounds as kernels
// over the probing class, reporting whether every dimension compiled to
// kernels that read nothing but the probing row's own columns and
// constants. A dimension that does not gets no kernels: windowBox then
// leaves it unbounded.
func (b *siteBatch) compileBounds(c *Compiled, dims []compile.RangeDim) bool {
	o := c.kernelOpts(nil)
	compileAll := func(srcs []ast.Expr) ([]*vexpr.Prog, bool) {
		progs := make([]*vexpr.Prog, 0, len(srcs))
		for _, e := range srcs {
			p, ok := vexpr.CompileOpts(e, o)
			if !ok || p.NeedIDs() {
				return nil, false
			}
			progs = append(progs, p)
		}
		return progs, true
	}
	b.loProgs, b.hiProgs = make([][]*vexpr.Prog, len(dims)), make([][]*vexpr.Prog, len(dims))
	all := true
	for d, rd := range dims {
		if !rd.SelfOnly || len(rd.LoSrcs) != len(rd.Lo) || len(rd.HiSrcs) != len(rd.Hi) {
			all = false
			continue
		}
		lo, okLo := compileAll(rd.LoSrcs)
		hi, okHi := compileAll(rd.HiSrcs)
		if !okLo || !okHi {
			all = false
			continue
		}
		b.loProgs[d], b.hiProgs[d] = lo, hi
	}
	return all
}

func readsSlots(srcs []vexpr.BcastSrc) bool {
	return slices.ContainsFunc(srcs, func(s vexpr.BcastSrc) bool { return s.Kind == vexpr.BcastSlot })
}

func payloadValueKind(k value.Kind) bool {
	return k == value.KindNumber || k == value.KindBool || k == value.KindRef
}

func mergeCols(a, b []int) []int {
	out := slices.Clone(a)
	for _, c := range b {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// segReset empties the candidate stream.
func (x *execCtx) segReset() {
	x.segRows, x.segEnds, x.segProbe = x.segRows[:0], x.segEnds[:0], x.segProbe[:0]
}

// probeSeg appends probing row pr's candidates for the box [lo, hi] (or
// the equality key) to the stream as one segment, re-checked per range
// dimension and against the key conjunct, and returns how many candidates
// the index produced.
func (x *execCtx) probeSeg(site *siteRT, srcRT *classRT, pr int, lo, hi []float64, key uint64) int {
	start := len(x.segRows)
	rows := x.segRows
	pp := x.sitePart(site)
	j := site.step.Join
	checked := 0 // leading range dimensions the index tested exactly
	kd, kt := j.Key, index.AnyKey
	if kd != nil {
		kt = index.KeyTest{Val: x.rt.tab.NumColumn(kd.SelfAttr)[pr], Ne: kd.Op == token.NEQ}
	}
	switch site.strategy {
	case plan.HashIndex:
		if pp.hash != nil {
			_, rr := pp.hash.Lookup(key)
			rows = append(rows, rr...)
		}
	case plan.GridIndex, plan.RangeTreeIndex:
		x.sampleExtent(site, pr, lo, hi)
		switch t := pp.tree.(type) {
		case *index.Grid:
			rows = t.QueryRows(lo, hi, kt, rows)
			checked, kd = 2, nil // the grid tested its dimensions and the key
		case *index.RangeTree:
			rows = t.QueryRows(lo, hi, rows)
		}
		if x.w.parts != nil {
			// Partitioned probes canonicalize candidates to physical-row
			// order: the fold order of ⊕ contributions is then independent
			// of the partition layout and of which index traversal produced
			// the candidates, which is what makes any partition count
			// bit-identical to Partitions=1.
			index.SortRows(rows[start:])
		}
	default: // NestedLoop
		if x.w.parts != nil {
			rows = append(rows, pp.view.Rows()...)
		} else {
			rows = srcRT.tab.LiveRows(rows)
		}
	}
	cand := len(rows) - start

	// Range conjuncts: exact closed-interval compares on raw columns. A
	// grid already tested its two dimensions exactly, on the same values,
	// and stores no NaN point; the range tree's leaf test (c < lo || c >
	// hi) lets NaN coordinates through, so every other dimension, index
	// and scan is re-checked here; so is the key off the grid.
	for di := checked; di < len(j.Ranges); di++ {
		col := srcRT.tab.NumColumn(j.Ranges[di].AttrIdx)
		l, h := lo[di], hi[di]
		k := start
		for _, r := range rows[start:] {
			if c := col[r]; c >= l && c <= h {
				rows[k] = r
				k++
			}
		}
		rows = rows[:k]
	}
	if kd != nil {
		rows = rows[:start+len(filterKey(rows[start:], srcRT.tab.NumColumn(kd.AttrIdx), kt))]
	}
	x.segRows = rows
	x.segEnds = append(x.segEnds, int32(len(rows)))
	x.segProbe = append(x.segProbe, int32(pr))
	return cand
}

// probeOne probes the site for the executing row as a one-segment stream
// — the box and equality keys evaluated by closures — and returns how many
// candidates the index produced.
func (x *execCtx) probeOne(site *siteRT, srcRT *classRT) int {
	j := site.step.Join
	var lo, hi []float64
	if len(j.Ranges) > 0 {
		lo, hi = x.evalBox(site)
	}
	var key uint64
	if len(j.Eqs) > 0 {
		key = x.evalEqKeys(site)
	}
	x.segReset()
	return x.probeSeg(site, srcRT, x.row, lo, hi, key)
}

// filterOne narrows probeOne's segment to the join's survivors — equality
// payload compares (they also filter composite-hash collisions), then the
// residual — and charges the probe.
func (x *execCtx) filterOne(s *compile.AccumStep, site *siteRT, srcRT *classRT, cand int) {
	j, b, tab := s.Join, site.batch, srcRT.tab
	rows := x.segRows
	for i, eq := range j.Eqs {
		// A kind mismatch is never equal. Strings probe through the
		// dictionary (equal strings ⇔ equal codes), and a never-interned
		// probe value matches no stored row.
		want := x.eqVals[i]
		p, ok := payloadOf(want), want.Kind() == b.eqKinds[i]
		if ok && want.Kind() == value.KindString {
			p, ok = x.w.dict.CodeOf(want.AsString())
			x.dictLookups++
		}
		if !ok {
			rows = rows[:0]
			break
		}
		rows = filterKey(rows, tab.NumColumn(eq.AttrIdx), index.KeyTest{Val: p})
	}
	// The residual: conjunct mask kernels when every conjunct compiled,
	// else the interpreted closure per survivor.
	if j.Residual != nil && len(b.resProgs) == 0 {
		ids := tab.RawIDs()
		k := 0
		for _, r := range rows {
			x.frame[s.IterSlot] = value.Ref(ids[r])
			if j.Residual(&x.ctx).AsBool() {
				rows[k] = r
				k++
			}
		}
		rows = rows[:k]
	}
	x.segRows = rows
	x.segEnds[0] = int32(len(rows))
	if len(b.resProgs) > 0 {
		x.filterResidual(b, srcRT)
	}
	x.counted(1, cand, len(x.segRows))
}

// filterKey compacts rows to those whose col payload passes kt.
func filterKey(rows []int32, col []float64, kt index.KeyTest) []int32 {
	k := 0
	for _, r := range rows {
		if kt.Pass(col[r]) {
			rows[k] = r
			k++
		}
	}
	return rows[:k]
}

// joinWindow probes every hoisted site of class rt for the probing rows of
// the window win — the live rows (owned by partition win.owner, when assign
// is set) whose program counter is at the site's phase — and leaves each
// row's combined result in the site's result lane (x.sc.hoist, by row −
// win.lo) for runAccum and the kernels to read. x.sc must be bound to the
// window.
func (x *execCtx) joinWindow(rt *classRT, win shard, assign []int32) {
	x.rt = rt
	lo, hi := win.lo, win.hi
	alive := rt.tab.AliveMask()
	pcs := rt.tab.NumColumn(rt.pcCol)
	for h, site := range rt.hoist {
		if !site.hoisted {
			continue
		}
		s, b := site.step, site.batch
		srcRT := x.w.classes[s.SourceClass]
		b.windowBounds(x.machine, x.sc, hi-lo)
		res := window(&x.sc.hoist, h, hi-lo)
		dims := len(s.Join.Ranges)
		box := grow(x.boxBuf, 2*dims)
		x.boxBuf = box
		x.segReset()
		probes, cand, matched := 0, 0, 0
		for r := lo; r < hi; r++ {
			if assign != nil {
				if assign[r] != win.owner {
					continue
				}
			} else if !alive[r] {
				continue
			}
			if int(pcs[r]) != site.phase {
				continue
			}
			b.windowBox(x.sc, r-lo, box[:dims], box[dims:])
			cand += x.probeSeg(site, srcRT, r, box[:dims], box[dims:], 0)
			probes++
			if len(x.segRows) >= segFlush {
				matched += x.flushSegs(s, b, srcRT, res, lo)
				x.segReset()
			}
		}
		matched += x.flushSegs(s, b, srcRT, res, lo)
		if probes > 0 {
			x.counted(probes, cand, matched)
		}
	}
}

// windowBounds runs the site's bound kernels on machine m over the n rows
// of the window sc is bound to, one lane of sc.bounds per bound in
// dimension order (lower bounds, then upper bounds), and returns the lane
// count.
func (b *siteBatch) windowBounds(m *vexpr.Machine, sc *vecScratch, n int) int {
	k := 0
	run := func(progs []*vexpr.Prog) {
		for _, p := range progs {
			p.Run(m, &sc.env, 0, n, window(&sc.bounds, k, n))
			k++
		}
	}
	for d := range b.loProgs {
		run(b.loProgs[d])
		run(b.hiProgs[d])
	}
	return k
}

// windowBox assembles window row i's box from the bound lanes with
// evalDimBounds' semantics: the tightest bounds, and a NaN bound collapses
// its dimension to the empty interval. A dimension without kernels is
// unbounded.
func (b *siteBatch) windowBox(sc *vecScratch, i int, lo, hi []float64) {
	k, bounds := 0, sc.bounds
	for d := range b.loProgs {
		l, h, nan := math.Inf(-1), math.Inf(1), false
		for range b.loProgs[d] {
			v := bounds[k][i]
			k++
			nan = nan || math.IsNaN(v)
			if v > l {
				l = v
			}
		}
		for range b.hiProgs[d] {
			v := bounds[k][i]
			k++
			nan = nan || math.IsNaN(v)
			if v < h {
				h = v
			}
		}
		if nan {
			l, h = math.Inf(1), math.Inf(-1)
		}
		lo[d], hi[d] = l, h
	}
}

// flushSegs filters and folds the stream gathered so far into res (indexed
// by probing row − base) and returns the surviving candidate count.
func (x *execCtx) flushSegs(s *compile.AccumStep, b *siteBatch, srcRT *classRT, res []float64, base int) int {
	if len(x.segEnds) == 0 {
		return 0
	}
	if len(b.resProgs) > 0 {
		x.filterResidual(b, srcRT)
	}
	x.foldSegs(s, b, srcRT, res, base)
	return len(x.segRows)
}

// counted charges one batch of probes to the join counters: probes, the
// candidates the index produced, and the survivors that reached the fold.
func (x *execCtx) counted(probes, cand, matched int) {
	x.joinProbes += int64(probes)
	x.joinMatches += int64(matched)
	x.joinBatched += int64(cand)
}

// filterResidual evaluates the compiled residual conjuncts as mask kernels
// over the candidate stream and compacts every segment to its survivors.
// Conjunction order is immaterial: SGL expressions are pure and total.
func (x *execCtx) filterResidual(b *siteBatch, srcRT *classRT) {
	rows := x.segRows
	m := len(rows)
	if m == 0 {
		return
	}
	x.gatherLanes(srcRT, b.resCols, b.resNeedIDs, rows)
	env := &x.accEnv
	mask := grow(x.resBuf, m)
	x.resBuf = mask
	for pi, prog := range b.resProgs {
		env.Slots = x.probeLanes(b.resBcast[pi])
		if pi == 0 {
			prog.Run(x.machine, env, 0, m, mask)
			continue
		}
		tmp := grow(x.resBuf2, m)
		x.resBuf2 = tmp
		prog.Run(x.machine, env, 0, m, tmp)
		for i, v := range tmp {
			if v == 0 {
				mask[i] = 0
			}
		}
	}
	k, start := int32(0), int32(0)
	for si, end := range x.segEnds {
		for i := start; i < end; i++ {
			if mask[i] != 0 {
				rows[k] = rows[i]
				k++
			}
		}
		start, x.segEnds[si] = end, k
	}
	x.segRows = rows[:k]
}

// foldSegs runs the value (and key) kernels once over the candidate stream
// and folds each segment into a fresh accumulator, storing the combined
// result's payload at res[probing row − base] (the result kind's zero
// value when no candidate survived).
func (x *execCtx) foldSegs(s *compile.AccumStep, b *siteBatch, srcRT *classRT, res []float64, base int) {
	rows := x.segRows
	m := len(rows)
	var vals, keys []float64
	if m > 0 {
		x.gatherLanes(srcRT, b.cols, b.needIDs, rows)
		env := &x.accEnv
		x.valBuf = grow(x.valBuf, m)
		env.Slots = x.probeLanes(b.valBcast)
		b.valProg.Run(x.machine, env, 0, m, x.valBuf)
		vals = x.valBuf
		if b.keyProg != nil {
			x.keyBuf = grow(x.keyBuf, m)
			env.Slots = x.probeLanes(b.keyBcast)
			b.keyProg.Run(x.machine, env, 0, m, x.keyBuf)
			keys = x.keyBuf
		}
	}
	zero := payloadOf(value.Zero(s.Comb.ResultKind(s.ValKind)))
	start := int32(0)
	for si, end := range x.segEnds {
		p := zero
		switch {
		case end == start:
		case s.Comb == combinator.MinBy || s.Comb == combinator.MaxBy:
			p = foldBy(s.Comb == combinator.MaxBy, vals[start:end], keys[start:end])
		default:
			acc := combinator.New(s.Comb, s.ValKind)
			acc.AddPayloads(vals[start:end], nil)
			p, _ = acc.ResultPayload()
		}
		res[int(x.segProbe[si])-base] = p
		start = end
	}
}

// foldBy folds a non-empty minby/maxby segment of raw payloads comparison
// for comparison as Accumulator.Add (combinator.ByBeats: NaN keys and
// payloads rank after every number), so the first of equal pairs wins.
// Bool and ref lanes carry 0/1 and integral ids: the payload is the result.
func foldBy(maxBy bool, vals, keys []float64) float64 {
	bk, bv := keys[0], vals[0]
	for i, v := range vals[1:] {
		k := keys[i+1]
		if combinator.ByBeats(maxBy, k, bk, v, bv) {
			bk, bv = k, v
		}
	}
	return bv
}

// gatherLanes fills the context's per-attr candidate lanes (and the id lane
// when needed) for the given columns, binding them into the shared env.
func (x *execCtx) gatherLanes(srcRT *classRT, cols []int, needIDs bool, rows []int32) {
	k := len(rows)
	tab := srcRT.tab
	x.lanes = extend(x.lanes, len(srcRT.cls.State))
	for _, a := range cols {
		src := tab.NumColumn(a)
		lane := grow(x.lanes[a], k)
		x.lanes[a] = lane
		for i, r := range rows {
			lane[i] = src[r]
		}
	}
	env := &x.accEnv
	env.Cols = x.lanes
	env.Gather = x.w.gatherFn
	if needIDs {
		idLane := grow(x.idLane, k)
		x.idLane = idLane
		rawIDs := tab.RawIDs()
		for i, r := range rows {
			idLane[i] = float64(rawIDs[r])
		}
		env.IDs = idLane
	}
}

// probeLanes expands the probing-row scalars a gathered program reads into
// per-candidate lanes: every candidate of a segment carries its probe's
// value. String-kinded sources carry dictionary codes: state attrs read
// their code lane directly; frame slots (single-probe streams only) intern
// through Code — interning (not a NaN miss sentinel) keeps slot-vs-slot
// comparisons correct: two slots holding the same never-stored string must
// still compare equal, exactly as the scalar evaluator would. Dict.Code is
// safe under worker parallelism (mutex-guarded copy-on-write against
// lock-free snapshot readers).
func (x *execCtx) probeLanes(srcs []vexpr.BcastSrc) [][]float64 {
	m := len(x.segRows)
	x.pLanes = extend(x.pLanes, len(srcs))
	tab := x.rt.tab
	for i, src := range srcs {
		lane := grow(x.pLanes[i], m)
		x.pLanes[i] = lane
		start := int32(0)
		for si, end := range x.segEnds {
			if end == start {
				continue
			}
			pr := x.segProbe[si]
			var v float64
			switch src.Kind {
			case vexpr.BcastStateAttr:
				v = tab.NumColumn(src.Idx)[pr]
			case vexpr.BcastSlot:
				if f := x.frame[src.Idx]; f.Kind() == value.KindString {
					x.dictLookups++
					v = x.w.dict.Code(f.AsString())
				} else {
					v = payloadOf(f)
				}
			default: // BcastSelfID
				v = float64(tab.RawIDs()[pr])
			}
			for k := start; k < end; k++ {
				lane[k] = v
			}
			start = end
		}
	}
	return x.pLanes[:len(srcs)]
}
