package engine

// The batched join driver. The scalar accum path interprets the whole loop
// body once per index candidate: every `u.attr` read is an id→row map
// lookup plus value boxing, and the predicate the index already served is
// re-evaluated from scratch. The batched driver instead works set-at-a-time
// per probe (§4.1):
//
//  1. gather candidate *rows* through the index's batch probe (QueryRows /
//     RowHash.Lookup rows) — no per-match map lookup;
//  2. re-check the analyzed predicate over raw columns: closed-interval
//     compares per range dimension (exact, NaN-safe, and they also kill
//     composite-hash collisions' range cousins), payload equality per
//     equality conjunct, then the compiled residual per survivor;
//  3. execute the contribution: single accum emissions over columnar
//     payloads gather the source columns they touch into vexpr lanes and
//     fold through batch kernels in candidate order (bit-identical to the
//     scalar fold); everything else runs the compiled Join.Inner per
//     survivor — still skipping the interpreted predicate.
//
// Candidate order is exactly the order the scalar path would visit, and the
// fold replicates Accumulator.Add comparison-for-comparison, so scalar and
// batched execution produce bit-identical worlds at every strategy.

import (
	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/plan"
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
}

// newSiteBatch analyzes an accum step for batched execution. Any accum with
// an analyzed join can batch (the generic inner runs per survivor); the
// columnar fold additionally requires the single-emission shape. Fold
// VALUES stay numeric (payloadValueKind) — an accumulator of strings would
// need per-contribution decode — but residual predicates compile through
// the dictionary, so string conjuncts like `u.player != player` run as mask
// kernels over code lanes instead of bailing the probe to the scalar loop.
// The result is immutable and shared by every world on this compilation.
func newSiteBatch(c *Compiled, s *compile.AccumStep) *siteBatch {
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
	return b
}

func payloadValueKind(k value.Kind) bool {
	return k == value.KindNumber || k == value.KindBool || k == value.KindRef
}

func mergeCols(a, b []int) []int {
	out := append([]int(nil), a...)
	for _, c := range b {
		seen := false
		for _, o := range out {
			if o == c {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, c)
		}
	}
	return out
}

// runAccumBatched executes one probe of an analyzed accum join through the
// batch-gathered pipeline. The accumulator for s.Slot is already armed.
func (x *execCtx) runAccumBatched(s *compile.AccumStep, site *siteRT, srcRT *classRT) {
	j := s.Join
	b := site.batch
	tab := srcRT.tab
	ids := tab.RawIDs()

	var lo, hi []float64
	if len(j.Ranges) > 0 {
		lo, hi = x.evalBox(site)
	}

	// (1) Candidate rows, in the same order the scalar path visits them:
	// index traversal order normally, canonical physical-row order under
	// partitioned execution (see the scalar tree/grid path in exec.go).
	pp := x.sitePart(site)
	rows := x.rowsBuf[:0]
	switch site.strategy {
	case plan.HashIndex:
		key := x.evalEqKeys(site)
		if pp.hash != nil {
			_, rr := pp.hash.Lookup(key)
			rows = append(rows, rr...)
		}
	case plan.GridIndex, plan.RangeTreeIndex:
		x.sampleExtent(site, lo, hi)
		if pp.tree != nil {
			rows = pp.tree.QueryRows(lo, hi, rows)
		}
		if x.w.parts != nil {
			index.SortRows(rows)
		}
	default: // NestedLoop
		if x.w.parts != nil {
			rows = append(rows, pp.view.Rows()...)
		} else {
			for r, ok := range tab.AliveMask() {
				if ok {
					rows = append(rows, int32(r))
				}
			}
		}
	}
	cand := len(rows)

	// (2a) Range conjuncts: exact closed-interval compares on raw columns.
	// Index-covered dimensions are nearly free to re-verify and this also
	// catches NaN coordinates an index cannot order.
	for di := range j.Ranges {
		col := tab.NumColumn(j.Ranges[di].AttrIdx)
		l, h := lo[di], hi[di]
		k := 0
		for _, r := range rows {
			if c := col[r]; c >= l && c <= h {
				rows[k] = r
				k++
			}
		}
		rows = rows[:k]
	}

	// (2b) Equality conjuncts: payload compares (they also filter composite-
	// hash collisions). Strategies other than hash haven't evaluated keys.
	if len(j.Eqs) > 0 {
		if site.strategy != plan.HashIndex {
			x.evalEqKeys(site)
		}
		for i, eq := range j.Eqs {
			want := x.eqVals[i]
			if payloadValueKind(b.eqKinds[i]) {
				if want.Kind() != b.eqKinds[i] {
					rows = rows[:0] // kind mismatch can never be equal
					break
				}
				p := payloadOf(want)
				col := tab.NumColumn(eq.AttrIdx)
				k := 0
				for _, r := range rows {
					if col[r] == p {
						rows[k] = r
						k++
					}
				}
				rows = rows[:k]
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
				col := tab.NumColumn(eq.AttrIdx)
				k := 0
				for _, r := range rows {
					if col[r] == p {
						rows[k] = r
						k++
					}
				}
				rows = rows[:k]
			} else {
				attr := eq.AttrIdx
				k := 0
				for _, r := range rows {
					if tab.At(int(r), attr).Equal(want) {
						rows[k] = r
						k++
					}
				}
				rows = rows[:k]
			}
		}
	}

	// (2c) Residual predicate: vectorized conjunct masks over gathered
	// lanes when every conjunct compiled, else the interpreted closure per
	// survivor.
	if j.Residual != nil {
		if len(b.resProgs) > 0 {
			rows = x.filterResidualVec(b, srcRT, rows)
		} else {
			iterSlot := s.IterSlot
			k := 0
			for _, r := range rows {
				x.frame[iterSlot] = value.Ref(ids[r])
				if j.Residual(&x.ctx).AsBool() {
					rows[k] = r
					k++
				}
			}
			rows = rows[:k]
		}
	}
	matched := len(rows)

	// (3) Contributions.
	if matched > 0 {
		if b.vec {
			x.foldVec(s, b, srcRT, rows)
		} else {
			// Stack-discipline the buffer: nested accums inside Inner must
			// append past our survivors, not clobber them.
			x.rowsBuf = rows[len(rows):]
			iterSlot := s.IterSlot
			for _, r := range rows {
				x.frame[iterSlot] = value.Ref(ids[r])
				x.runSteps(j.Inner)
			}
		}
	}
	x.rowsBuf = rows[:0]

	site.observe(x.w, 1, int64(cand))
	x.joinProbes++
	x.joinMatches += int64(matched)
	x.joinBatched += int64(cand)
}

// filterResidualVec evaluates the compiled residual conjuncts as mask
// kernels over gathered candidate lanes and compacts rows to the survivors.
// Conjunction order is immaterial: SGL expressions are pure and total.
func (x *execCtx) filterResidualVec(b *siteBatch, srcRT *classRT, rows []int32) []int32 {
	k := len(rows)
	if k == 0 {
		return rows
	}
	x.gatherLanes(srcRT, b.resCols, b.resNeedIDs, rows)
	env := &x.accEnv
	mask := grow(x.resBuf, k)
	x.resBuf = mask
	for pi, prog := range b.resProgs {
		env.Bcast = x.fillBcast(b.resBcast[pi])
		if pi == 0 {
			prog.Run(x.machine, env, 0, k, mask)
			continue
		}
		tmp := grow(x.resBuf2, k)
		x.resBuf2 = tmp
		prog.Run(x.machine, env, 0, k, tmp)
		for i, v := range tmp[:k] {
			if v == 0 {
				mask[i] = 0
			}
		}
	}
	kk := 0
	for i, r := range rows {
		if mask[i] != 0 {
			rows[kk] = r
			kk++
		}
	}
	return rows[:kk]
}

// gatherLanes fills the context's per-attr candidate lanes (and the id lane
// when needed) for the given columns, binding them into the shared env.
func (x *execCtx) gatherLanes(srcRT *classRT, cols []int, needIDs bool, rows []int32) {
	k := len(rows)
	tab := srcRT.tab
	for len(x.lanes) < len(srcRT.cls.State) {
		x.lanes = append(x.lanes, nil)
	}
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

// foldVec gathers the columns the contribution reads into candidate lanes,
// runs the compiled value (and key) kernels, and folds the result lanes into
// the armed accumulator in candidate order.
func (x *execCtx) foldVec(s *compile.AccumStep, b *siteBatch, srcRT *classRT, rows []int32) {
	k := len(rows)
	x.gatherLanes(srcRT, b.cols, b.needIDs, rows)
	env := &x.accEnv
	x.valBuf = grow(x.valBuf, k)
	env.Bcast = x.fillBcast(b.valBcast)
	b.valProg.Run(x.machine, env, 0, k, x.valBuf)
	var keys []float64
	if b.keyProg != nil {
		x.keyBuf = grow(x.keyBuf, k)
		env.Bcast = x.fillBcast(b.keyBcast)
		b.keyProg.Run(x.machine, env, 0, k, x.keyBuf)
		keys = x.keyBuf
	}
	x.accum[s.Slot].AddPayloads(x.valBuf[:k], keys)
}

// fillBcast evaluates the probing-row scalars a gathered program broadcasts.
// String-kinded sources broadcast dictionary codes: state attrs read their
// code lane directly; frame slots intern through Code — interning (not a
// NaN miss sentinel) keeps slot-vs-slot comparisons correct: two slots
// holding the same never-stored string must still compare equal, exactly as
// the scalar evaluator would. Dict.Code is safe under worker parallelism
// (mutex-guarded copy-on-write against lock-free snapshot readers).
func (x *execCtx) fillBcast(srcs []vexpr.BcastSrc) []float64 {
	bc := x.bcastBuf[:0]
	for _, s := range srcs {
		switch s.Kind {
		case vexpr.BcastStateAttr:
			bc = append(bc, x.rt.tab.NumColumn(s.Idx)[x.row])
		case vexpr.BcastSlot:
			if v := x.frame[s.Idx]; v.Kind() == value.KindString {
				x.dictLookups++
				bc = append(bc, x.w.dict.Code(v.AsString()))
			} else {
				bc = append(bc, payloadOf(v))
			}
		default: // BcastSelfID
			bc = append(bc, float64(x.id))
		}
	}
	x.bcastBuf = bc
	return bc
}
