package engine

// The batched join driver. The scalar accum path interprets the whole loop
// body once per index candidate: every `u.attr` read is an id→row lookup
// plus value boxing, and the predicate the index already served is
// re-evaluated from scratch. The batched driver instead works set-at-a-time
// (§4.1) over a *segmented candidate stream*: the candidates of one or more
// probes, one segment per probe.
//
//  1. Probe: each probe's box (or equality key) gathers candidate *rows*
//     through the index's batch probe, re-checked on raw columns per range
//     dimension the index did not already test exactly (a grid tests both
//     of its own; the range tree lets NaN through) and, for single probes,
//     per equality conjunct; under Partitions each segment is sorted to
//     physical-row order.
//  2. Filter: the residual conjuncts run as mask kernels once over the
//     whole stream, compacting the segments.
//  3. Fold: the value (and minby/maxby key) kernels run once over the
//     stream, and each segment folds through combinator.AddPayloads.
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
	// rows; loProgs/hiProgs[d] are the kernels of range dimension d's
	// bounds over the probing class.
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
// the dictionary, so string conjuncts like `u.player != player` run as mask
// kernels over code lanes instead of bailing the probe to the scalar loop.
// top reports that s sits directly in a phase's step list. The result is
// immutable and shared by every world on this compilation.
func newSiteBatch(c *Compiled, s *compile.AccumStep, top bool) *siteBatch {
	j := s.Join
	if j == nil {
		return nil
	}
	o := c.kernelOpts(nil)
	b := &siteBatch{}
	for range j.Eqs {
		b.eqKinds = append(b.eqKinds, value.KindInvalid)
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
	// Record the source-class kinds of the equality attrs; the batch plan is
	// shared by all worlds and workers and must be immutable afterwards.
	if srcCls, ok := c.prog.Info.Schema.Class(s.SourceClass); ok {
		for i, eq := range j.Eqs {
			b.eqKinds[i] = srcCls.State[eq.AttrIdx].Kind
		}
	}
	// Hoisting evaluates everything before the probing row's steps run, so
	// no kernel may read its frame slots.
	b.hoist = top && b.vec && (j.Residual == nil || b.resProgs != nil) &&
		len(j.Eqs) == 0 && len(j.Ranges) > 0 && b.compileBounds(c, j.Ranges) &&
		!readsSlots(b.valBcast) && !readsSlots(b.keyBcast) && !slices.ContainsFunc(b.resBcast, readsSlots)
	return b
}

// compileBounds compiles every range bound as a kernel over the probing
// class, reporting whether all of them compiled and read nothing but the
// probing row's own columns and constants.
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
	var los, his [][]*vexpr.Prog
	for _, rd := range dims {
		if !rd.SelfOnly || len(rd.LoSrcs) != len(rd.Lo) || len(rd.HiSrcs) != len(rd.Hi) {
			return false
		}
		lo, okLo := compileAll(rd.LoSrcs)
		hi, okHi := compileAll(rd.HiSrcs)
		if !okLo || !okHi {
			return false
		}
		los, his = append(los, lo), append(his, hi)
	}
	b.loProgs, b.hiProgs = los, his
	return true
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
// dimension, and returns how many candidates the index produced.
func (x *execCtx) probeSeg(site *siteRT, srcRT *classRT, pr int, lo, hi []float64, key uint64) int {
	start := len(x.segRows)
	rows := x.segRows
	pp := x.sitePart(site)
	checked := 0 // leading range dimensions the index tested exactly
	switch site.strategy {
	case plan.HashIndex:
		if pp.hash != nil {
			_, rr := pp.hash.Lookup(key)
			rows = append(rows, rr...)
		}
	case plan.GridIndex, plan.RangeTreeIndex:
		x.sampleExtent(site, pr, lo, hi)
		if pp.tree != nil {
			rows = pp.tree.QueryRows(lo, hi, rows)
			if _, ok := pp.tree.(*index.Grid); ok {
				checked = 2
			}
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
	// and scan is re-checked here.
	for di := checked; di < len(site.step.Join.Ranges); di++ {
		rd := site.step.Join.Ranges[di]
		col := srcRT.tab.NumColumn(rd.AttrIdx)
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
		want := x.eqVals[i]
		if payloadValueKind(b.eqKinds[i]) {
			if want.Kind() != b.eqKinds[i] {
				rows = rows[:0] // kind mismatch can never be equal
				break
			}
			rows = filterPayload(rows, tab.NumColumn(eq.AttrIdx), payloadOf(want))
		} else if b.eqKinds[i] == value.KindString && x.w.dict != nil {
			// Probe through the dictionary: equal strings ⇔ equal codes.
			// A never-interned probe value cannot match any stored row.
			if want.Kind() != value.KindString {
				rows = rows[:0]
				break
			}
			p, interned := x.w.dict.CodeOf(want.AsString())
			x.dictLookups++
			if !interned {
				rows = rows[:0]
				break
			}
			rows = filterPayload(rows, tab.NumColumn(eq.AttrIdx), p)
		} else {
			k := 0
			for _, r := range rows {
				if tab.At(int(r), eq.AttrIdx).Equal(want) {
					rows[k] = r
					k++
				}
			}
			rows = rows[:k]
		}
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

func filterPayload(rows []int32, col []float64, p float64) []int32 {
	k := 0
	for _, r := range rows {
		if col[r] == p {
			rows[k] = r
			k++
		}
	}
	return rows[:k]
}

// joinWindow probes every hoisted site of class rt for the probing rows in
// [lo, hi) — the live rows (owned by partition owner, when assign is set)
// whose program counter is at the site's phase — and leaves each row's
// combined result in the site's result lane for runAccum to read.
func (x *execCtx) joinWindow(rt *classRT, lo, hi int, assign []int32, owner int32) {
	x.rt, x.winLo, x.winHi = rt, lo, hi
	alive := rt.tab.AliveMask()
	pcs := rt.tab.NumColumn(rt.pcCol)
	for len(x.hoistRes) < len(rt.hoist) {
		x.hoistRes = append(x.hoistRes, make([]float64, vexpr.BatchSize))
	}
	for h, site := range rt.hoist {
		if !site.hoisted {
			continue
		}
		s, b := site.step, site.batch
		srcRT := x.w.classes[s.SourceClass]
		x.windowBounds(b, rt, lo, hi)
		dims := len(s.Join.Ranges)
		box := grow(x.boxBuf, 2*dims)
		x.boxBuf = box
		x.segReset()
		probes, cand, matched := 0, 0, 0
		for r := lo; r < hi; r++ {
			if assign != nil {
				if assign[r] != owner {
					continue
				}
			} else if !alive[r] {
				continue
			}
			if int(pcs[r]) != site.phase {
				continue
			}
			x.windowBox(b, r-lo, box[:dims], box[dims:])
			cand += x.probeSeg(site, srcRT, r, box[:dims], box[dims:], 0)
			probes++
			if len(x.segRows) >= segFlush {
				matched += x.flushSegs(s, b, srcRT, x.hoistRes[h], lo)
				x.segReset()
			}
		}
		matched += x.flushSegs(s, b, srcRT, x.hoistRes[h], lo)
		if probes > 0 {
			x.counted(probes, cand, matched)
		}
	}
}

// windowBounds runs a hoisted site's bound kernels over the probing rows
// [lo, hi), one output lane per bound in dimension order (lower bounds,
// then upper bounds), indexed by row − lo.
func (x *execCtx) windowBounds(b *siteBatch, rt *classRT, lo, hi int) {
	n := hi - lo
	cols := rt.tab.NumColumns()
	x.boundCols = grow(x.boundCols, len(cols))
	for a, c := range cols {
		x.boundCols[a] = nil
		if c != nil {
			x.boundCols[a] = c[lo:hi]
		}
	}
	env := &x.accEnv // gatherLanes rebinds Cols before any candidate kernel
	env.Cols, env.Gather = x.boundCols, x.w.gatherFn
	k := 0
	run := func(progs []*vexpr.Prog) {
		for _, p := range progs {
			if len(x.boundOut) == k {
				x.boundOut = append(x.boundOut, nil)
			}
			x.boundOut[k] = grow(x.boundOut[k], n)
			p.Run(x.machine, env, 0, n, x.boundOut[k])
			k++
		}
	}
	for d := range b.loProgs {
		run(b.loProgs[d])
		run(b.hiProgs[d])
	}
}

// windowBox assembles probing row i's box from the bound lanes with
// evalDimBounds' semantics: the tightest bounds, and a NaN bound collapses
// its dimension to the empty interval.
func (x *execCtx) windowBox(b *siteBatch, i int, lo, hi []float64) {
	k := 0
	for d := range b.loProgs {
		l, h, nan := math.Inf(-1), math.Inf(1), false
		for range b.loProgs[d] {
			v := x.boundOut[k][i]
			k++
			nan = nan || math.IsNaN(v)
			if v > l {
				l = v
			}
		}
		for range b.hiProgs[d] {
			v := x.boundOut[k][i]
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
		acc := combinator.New(s.Comb, s.ValKind)
		if end > start {
			var k []float64
			if keys != nil {
				k = keys[start:end]
			}
			acc.AddPayloads(vals[start:end], k)
		}
		p, ok := acc.ResultPayload()
		if !ok {
			p = zero
		}
		res[int(x.segProbe[si])-base] = p
		start = end
	}
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
