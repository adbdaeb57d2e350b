package engine

// The vectorized execution path: instead of interpreting closure trees one
// object at a time, eligible update rules and effect-phase scripts compile
// (at world construction) into vexpr batch kernels that stream whole class
// extents through the columnar tables — the set-at-a-time processing model
// the paper argues distinguishes database-style engines from scripting
// middleware (§2, §4).
//
// Eligibility is per expression and per phase. An update rule vectorizes
// when its expression compiles to a kernel (numeric/bool/ref payloads only)
// and its target attribute is columnar. An effect phase vectorizes when
// every step is a let, an if, or a self-targeted scalar effect emission
// whose expressions all compile; accum loops, atomic blocks, cross-object
// emissions and set effects keep the phase on the scalar path. Self-only
// emissions are a correctness requirement, not just a simplification: they
// guarantee each accumulator receives its contributions in exactly the
// order the scalar row loop would produce, so the two paths are
// bit-identical, not merely ⊕-equivalent. They are also what makes the
// kernels shardable: every lane writes only its own row's accumulator, so
// batch-aligned row shards run concurrently with no synchronization.
//
// The scalar closure evaluator remains the semantic reference; the choice
// between the two is a physical-plan decision made per class and tick by
// plan.Costs.ChooseExec (forcible through Options.Exec), composed with the
// parallelism decision of plan.Costs.ChooseWorkers.

import (
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// vecUpdateRule is one update rule compiled to a batch kernel.
type vecUpdateRule struct {
	attrIdx int
	prog    *vexpr.Prog
}

// vecStep mirrors the subset of compile.Step the batch path executes.
type vecStep interface{ vecStep() }

type vecLet struct {
	slot int
	prog *vexpr.Prog
}

type vecEmit struct {
	attrIdx int
	kind    value.Kind // declared effect value kind
	val     *vexpr.Prog
	key     *vexpr.Prog // non-nil for minby/maxby emissions
	valBuf  int
	keyBuf  int
	// fold routes contributions through the unboxed payload fold
	// (Column.AddPayloadRows) instead of constructing a value.Value per
	// row. Set for payload-kind emissions unless Options.Unfused pins the
	// pre-fusion executor; string emissions always decode at the boundary.
	fold bool
}

type vecIf struct {
	cond    *vexpr.Prog
	condBuf int
	then    []vecStep
	els     []vecStep
	depth   int
}

func (*vecLet) vecStep()  {}
func (*vecEmit) vecStep() {}
func (*vecIf) vecStep()   {}

// vecPhase is one effect-phase step list compiled to batch form.
type vecPhase struct {
	steps    []vecStep
	kernels  int  // total batch operators, the cost-model work unit
	needIDs  bool // any kernel reads self()
	maxSlot  int  // highest frame slot written, -1 if none
	nBufs    int  // scratch output vectors reserved by emits and ifs
	maxDepth int  // deepest if-nesting level (selection-mask levels - 1)
}

// vecScratch is one independent set of kernel I/O state: the environment
// binding, the id vector for self() kernels, frame-slot vectors, emit/if
// output buffers and the selection-mask stack. Contiguous shards share the
// class's embedded scratch (they write range-disjoint [lo, hi) slices, so
// pre-sizing makes that safe); ownership-masked shards running on several
// workers use the worker's own (workerSlot.pvec), because partition row
// spans may interleave arbitrarily — hash layouts, drifted ownership — and
// so cannot share mask storage.
type vecScratch struct {
	env      vexpr.Env
	ids      []float64
	slotVecs [][]float64
	bufs     [][]float64 // per-emit/if output vectors
	masks    [][]bool    // selection masks by if-nesting depth
}

// vecClassProgs is the immutable, compile-time half of a class's batch
// plan: the kernels themselves plus their structural metadata. It lives on
// compiledClass and is shared read-only by every world instantiated from
// the same Compiled.
type vecClassProgs struct {
	updates       []vecUpdateRule
	scalarUpdates []compile.UpdatePlan // rules that stay on the closure path
	updateKernels int
	updateFx      []int // effect attrs read by update kernels
	updateNeedIDs bool

	phases    []*vecPhase // indexed by phase; nil = scalar only
	hasPhases bool        // any phase compiled (guards the per-tick scan)
}

// vecClassPlan is the per-world half: the shared kernels (embedded by
// pointer) plus this world's scratch, sized to its table capacity on
// demand. Kernels run on the executing worker slot's machine.
type vecClassPlan struct {
	*vecClassProgs

	sc vecScratch
}

// phaseCounts returns the number of live rows at each script phase — the
// rows the scalar path would actually visit per phase.
func (rt *classRT) phaseCounts() []int {
	rt.countsBuf = grow(rt.countsBuf, rt.plan.NumPhases)
	clear(rt.countsBuf)
	if rt.plan.NumPhases == 1 {
		rt.countsBuf[0] = rt.tab.Len()
		return rt.countsBuf
	}
	pcCol := rt.tab.NumColumn(rt.pcCol)
	for r, ok := range rt.tab.AliveMask() {
		if ok {
			rt.countsBuf[int(pcCol[r])]++
		}
	}
	return rt.countsBuf
}

// chooseEffectExec makes the per-class two-axis decision for the effect
// phase. The exec axis picks, per phase, batch kernels vs the scalar row
// loop — before the extent is split, so every worker and partition count
// makes identical choices; the returned work estimate feeds the parallelism
// axis (plan.Costs.ChooseWorkers). vecSel is nil when no phase vectorizes;
// all reports that the scalar row loop has nothing to do: every phase with
// steps vectorizes and no join site is hoisted. Tracing keeps every phase
// scalar so the per-emission hook keeps firing.
func (w *World) chooseEffectExec(rt *classRT) (vecSel []bool, all bool, work float64) {
	c := w.execCosts
	vecOK := rt.vec != nil && rt.vec.hasPhases && w.tracer == nil && w.opts.Exec != plan.ExecScalar
	if !vecOK && (!w.parallelOK() || w.parts != nil) {
		return nil, false, 0 // neither axis has a choice: spare the per-phase row count
	}
	counts := rt.phaseCounts()
	capRows := rt.tab.Cap()
	all = true
	for p, steps := range rt.plan.Phases {
		if len(steps) == 0 {
			continue
		}
		var vp *vecPhase
		if vecOK {
			vp = rt.vec.phases[p]
		}
		if vp != nil && c.ChooseExec(w.opts.Exec, counts[p], capRows, vp.kernels) == plan.ExecVectorized {
			if vecSel == nil {
				vecSel = rt.vecSelBuf[:0]
				for range rt.plan.Phases {
					vecSel = append(vecSel, false)
				}
				rt.vecSelBuf = vecSel
			}
			vecSel[p] = true
			work += c.VecSetup + c.VecVisit*float64(capRows)*float64(vp.kernels)
		} else {
			all = false
			work += c.ScalarVisit * float64(counts[p]) * rt.phaseCost[p]
		}
	}
	return vecSel, all && vecSel != nil && len(rt.hoist) == 0, work
}

// buildVecProgs compiles everything vectorizable about a class. Structural
// eligibility — payload kinds, step shapes, the cross-self-emission hazard
// — comes from the unified analysis (internal/analysis); this function
// adds the expression-compilability half by lowering eligible rules and
// phases through the vexpr compiler. Returns nil when nothing compiled,
// which keeps the scalar fast path branch-free.
func buildVecProgs(c *Compiled, cc *compiledClass) *vecClassProgs {
	v := &vecClassProgs{}
	fxSeen := make(map[int]bool)
	for i, u := range cc.plan.Updates {
		prog, ok := vexpr.CompileOpts(u.Src.Expr, c.kernelOpts(nil))
		if !ok || !cc.ai.Updates[i].VecKind {
			v.scalarUpdates = append(v.scalarUpdates, u)
			continue
		}
		v.updates = append(v.updates, vecUpdateRule{attrIdx: u.AttrIdx, prog: prog})
		v.updateKernels += prog.Kernels()
		v.updateNeedIDs = v.updateNeedIDs || prog.NeedIDs()
		c.addFusedOps(prog)
		for _, ai := range prog.FxUsed() {
			if !fxSeen[ai] {
				fxSeen[ai] = true
				v.updateFx = append(v.updateFx, ai)
			}
		}
	}
	v.phases = make([]*vecPhase, len(cc.plan.Phases))
	any := len(v.updates) > 0
	// A scalar phase that cross-emits into this same class could interleave
	// with a vectorized phase's self-emissions in a different order than
	// the scalar row loop (row 3's cross-contribution into row 9 vs row
	// 9's own), which would break bit-identity for ⊕ folds. Vectorized
	// phases themselves never cross-emit (analysis rejects the shape), so
	// the hazard exists exactly when any phase emits into the own class via
	// a target expression — analysis.Class.CrossSelfEmit; in that case no
	// phase of the class vectorizes.
	if !cc.ai.CrossSelfEmit {
		for p, steps := range cc.plan.Phases {
			if !cc.ai.Phases[p].Vectorizable {
				continue
			}
			if vp := compileVecPhase(c, cc, steps); vp != nil {
				v.phases[p] = vp
				v.hasPhases = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return v
}

// compileVecPhase lowers one structurally eligible phase's step list to
// batch form, or nil when any expression falls outside the vexpr subset.
func compileVecPhase(c *Compiled, cc *compiledClass, steps []compile.Step) *vecPhase {
	vp := &vecPhase{maxSlot: -1}
	defined := make(map[int]bool)
	out, ok := compileVecSteps(c, cc, steps, defined, 0, vp)
	if !ok {
		return nil
	}
	vp.steps = out
	return vp
}

func compileVecSteps(c *Compiled, cc *compiledClass, steps []compile.Step, defined map[int]bool, depth int, vp *vecPhase) ([]vecStep, bool) {
	slotOK := func(slot int) bool { return defined[slot] }
	kc := func(prog *vexpr.Prog) {
		vp.kernels += prog.Kernels()
		vp.needIDs = vp.needIDs || prog.NeedIDs()
		c.addFusedOps(prog)
	}
	var out []vecStep
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.LetStep:
			prog, ok := vexpr.CompileOpts(s.Src, c.kernelOpts(slotOK))
			if !ok {
				return nil, false
			}
			defined[s.Slot] = true
			if s.Slot > vp.maxSlot {
				vp.maxSlot = s.Slot
			}
			kc(prog)
			out = append(out, &vecLet{slot: s.Slot, prog: prog})
		case *compile.IfStep:
			cond, ok := vexpr.CompileOpts(s.CondSrc, c.kernelOpts(slotOK))
			if !ok {
				return nil, false
			}
			st := &vecIf{cond: cond, condBuf: vp.newBuf(), depth: depth}
			kc(cond)
			if depth+1 > vp.maxDepth {
				vp.maxDepth = depth + 1
			}
			if st.then, ok = compileVecSteps(c, cc, s.Then, defined, depth+1, vp); !ok {
				return nil, false
			}
			if st.els, ok = compileVecSteps(c, cc, s.Else, defined, depth+1, vp); !ok {
				return nil, false
			}
			out = append(out, st)
		case *compile.EmitStep:
			// The structural requirements — self-targeted scalar emissions
			// of columnar payload kinds only, which keep per-accumulator
			// contribution order identical to the scalar row loop — are
			// certified by analysis.Script.Vectorizable before this runs.
			// String-valued payloads ride the dictionary: the kernel emits
			// codes, decoded back at the accumulator boundary below.
			kind := cc.cls.Effects[s.AttrIdx].Kind
			val, ok := vexpr.CompileOpts(s.ValSrc, c.kernelOpts(slotOK))
			if !ok {
				return nil, false
			}
			st := &vecEmit{
				attrIdx: s.AttrIdx, kind: kind, val: val, valBuf: vp.newBuf(), keyBuf: -1,
				fold: !c.unfused && kind != value.KindString,
			}
			kc(val)
			if s.KeyFn != nil {
				// Dictionary codes are first-intern-ordered, not
				// lexicographic, so a string-typed minby/maxby key must not
				// fold over codes — the phase stays scalar.
				if s.KeySrc.Type().Kind == value.KindString {
					return nil, false
				}
				key, ok := vexpr.CompileOpts(s.KeySrc, c.kernelOpts(slotOK))
				if !ok {
					return nil, false
				}
				st.key, st.keyBuf = key, vp.newBuf()
				kc(key)
			}
			out = append(out, st)
		default: // AccumStep, AtomicStep
			return nil, false
		}
	}
	return out, true
}

// newBuf reserves one scratch output vector for an emit or if condition.
func (vp *vecPhase) newBuf() int {
	vp.nBufs++
	return vp.nBufs - 1
}

// gatherState implements vexpr.Env.Gather over committed (tick-start)
// state, matching the closure evaluator's null/dangling semantics: absent
// rows read as the attribute's zero payload.
func (w *World) gatherState(class string, attrIdx int, refs, out []float64, zero float64) {
	rt := w.classes[class]
	gatherRows(rt, rt.tab.NumColumn(attrIdx), refs, out, zero)
}

// gatherRows reads col at the row of every ref, zero for dead refs.
func gatherRows(rt *classRT, col []float64, refs, out []float64, zero float64) {
	for i, f := range refs {
		if row := rt.tab.Row(value.ID(f)); row >= 0 {
			out[i] = col[row]
		} else {
			out[i] = zero
		}
	}
}

// payloadOf extracts the columnar float64 payload of a scalar value.
func payloadOf(v value.Value) float64 {
	switch v.Kind() {
	case value.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	case value.KindRef:
		return float64(v.AsRef())
	default:
		return v.AsNumber()
	}
}

// payloadValue reconstructs a scalar value from its columnar payload.
func payloadValue(k value.Kind, f float64) value.Value {
	switch k {
	case value.KindBool:
		return value.Bool(f != 0)
	case value.KindRef:
		return value.Ref(value.ID(f))
	default:
		return value.Num(f)
	}
}

// grow returns s resized to n elements, reallocated (contents dropped) only
// when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extend returns s lengthened with zero values to at least n elements,
// keeping its contents.
func extend[T any](s []T, n int) []T {
	for len(s) < n {
		var zero T
		s = append(s, zero)
	}
	return s
}

func (s *vecScratch) buf(i, n int) []float64 {
	s.bufs = extend(s.bufs, i+1)
	s.bufs[i] = grow(s.bufs[i], n)
	return s.bufs[i]
}

func (s *vecScratch) mask(depth, n int) []bool {
	s.masks = extend(s.masks, depth+1)
	s.masks[depth] = grow(s.masks[depth], n)
	return s.masks[depth]
}

// fillIDs materializes the per-row object-id vector for self() kernels.
func (s *vecScratch) fillIDs(rt *classRT, n int) {
	s.ids = grow(s.ids, n)
	for r := 0; r < n; r++ {
		s.ids[r] = float64(rt.tab.ID(r))
	}
	s.env.IDs = s.ids
}

// bindEnv points the scratch's kernel environment at the class's current
// columns.
func (s *vecScratch) bindEnv(w *World, rt *classRT) {
	s.env.Cols = rt.tab.NumColumns()
	s.env.Gather = w.gatherFn
}

// prepareVecScratch readies one scratch for every selected phase —
// environment binding, id vector, slot/buf/mask sizing — before any kernel
// runs through it: once per pass for the class's shared scratch, once per
// worker and pass for private ones.
func (w *World) prepareVecScratch(rt *classRT, sc *vecScratch, vecSel []bool, n int) {
	v := rt.vec
	sc.bindEnv(w, rt)
	needIDs := false
	for p, on := range vecSel {
		if !on {
			continue
		}
		vp := v.phases[p]
		needIDs = needIDs || vp.needIDs
		if vp.maxSlot >= 0 {
			sc.slotVecs = extend(sc.slotVecs, vp.maxSlot+1)
			for i := range sc.slotVecs {
				sc.slotVecs[i] = grow(sc.slotVecs[i], n)
			}
			sc.env.Slots = sc.slotVecs
		}
		for i := 0; i < vp.nBufs; i++ {
			sc.buf(i, n)
		}
		for d := 0; d <= vp.maxDepth; d++ {
			sc.mask(d, n)
		}
	}
	if needIDs {
		sc.fillIDs(rt, n)
	}
}

// touchedLog records rows whose accumulator went from empty to non-empty
// during a shard's vectorized sweeps. Shards write the shared accumulator
// cells directly (rows are disjoint) but must not append to the shared
// touched lists concurrently; the logs merge in shard order after the
// barrier, keeping the list contents deterministic.
type touchedLog struct {
	rows [][]int // indexed by effect attr
}

func (t *touchedLog) ensure(nAttrs int) {
	t.rows = extend(t.rows, nAttrs)
}

func (t *touchedLog) reset() {
	for i := range t.rows {
		t.rows[i] = t.rows[i][:0]
	}
}

// vecPhaseRange executes one vectorized effect phase over the shard's rows:
// the base selection mask is (alive, or owned by the shard's partition when
// assign is non-nil) ∧ pc=phase, refined by nested if conditions; kernels
// evaluate unmasked (expressions are total, dead lanes are ignored) and only
// masked rows emit. Emissions are self-only and therefore row-disjoint
// across shards, so they fold into the shared accumulators directly; tl
// keeps the shared touched lists out of the concurrent path. sc must have
// been pre-sized by prepareVecScratch. Returns the number of selected rows.
func (w *World) vecPhaseRange(rt *classRT, phase int, vp *vecPhase, sh shard, assign []int32, sc *vecScratch, m *vexpr.Machine, tl *touchedLog) int {
	mask := sc.masks[0][sh.lo:sh.hi]
	if assign == nil {
		copy(mask, rt.tab.AliveMask()[sh.lo:sh.hi])
	} else {
		for i, o := range assign[sh.lo:sh.hi] {
			mask[i] = o == sh.owner
		}
	}
	if rt.plan.NumPhases > 1 {
		for i, pc := range rt.tab.NumColumn(rt.pcCol)[sh.lo:sh.hi] {
			mask[i] = mask[i] && int(pc) == phase
		}
	}
	selected := 0
	for _, on := range mask {
		if on {
			selected++
		}
	}
	if selected > 0 {
		w.execVecSteps(rt, vp.steps, sc.masks[0], sh.lo, sh.hi, sc, m, tl)
	}
	return selected
}

func (w *World) execVecSteps(rt *classRT, steps []vecStep, mask []bool, lo, hi int, sc *vecScratch, m *vexpr.Machine, tl *touchedLog) {
	for _, s := range steps {
		switch s := s.(type) {
		case *vecLet:
			s.prog.Run(m, &sc.env, lo, hi, sc.slotVecs[s.slot])
		case *vecEmit:
			val := sc.bufs[s.valBuf]
			s.val.Run(m, &sc.env, lo, hi, val)
			var key []float64
			if s.key != nil {
				key = sc.bufs[s.keyBuf]
				s.key.Run(m, &sc.env, lo, hi, key)
			}
			fx, log := &rt.fx[s.attrIdx], &tl.rows[s.attrIdx]
			if s.fold {
				// Fused fold: kernel outputs are already column payloads, so
				// they go straight into the column's batch payload fold with
				// no per-row boxing or combinator dispatch.
				fx.AddPayloadRows(mask, lo, hi, val, key, log)
				break
			}
			// String-valued kernels emit dictionary codes; decode at the
			// accumulator boundary so the fold sees the same value.Value the
			// scalar row loop would contribute.
			isStr := s.kind == value.KindString
			decodes := int64(0)
			for r := lo; r < hi; r++ {
				if !mask[r] {
					continue
				}
				k := 0.0
				if key != nil {
					k = key[r]
				}
				var v value.Value
				if isStr {
					v = value.Str(w.dict.Lookup(val[r]))
					decodes++
				} else {
					v = payloadValue(s.kind, val[r])
				}
				if fx.Add(r, v, k) {
					*log = append(*log, r)
				}
			}
			if decodes > 0 && !w.opts.DisableStats {
				atomic.AddInt64(&w.execStats.DictLookups, decodes)
			}
		case *vecIf:
			cond := sc.bufs[s.condBuf]
			s.cond.Run(m, &sc.env, lo, hi, cond)
			sub := sc.masks[s.depth+1]
			any := false
			for r := lo; r < hi; r++ {
				sub[r] = mask[r] && cond[r] != 0
				any = any || sub[r]
			}
			if any {
				w.execVecSteps(rt, s.then, sub, lo, hi, sc, m, tl)
			}
			if s.els != nil {
				any = false
				for r := lo; r < hi; r++ {
					sub[r] = mask[r] && cond[r] == 0
					any = any || sub[r]
				}
				if any {
					w.execVecSteps(rt, s.els, sub, lo, hi, sc, m, tl)
				}
			}
		}
	}
}

// bindFxVec points rt.fxVecs[ai] at effect attr ai's dense result payloads
// over rows [0, n): the fold column itself for the zero-copy kinds, a fill
// of the vector's own buffer for the others (Column.ResultPayloads).
func (rt *classRT) bindFxVec(ai, n int) []float64 {
	rt.fxVecs = extend(rt.fxVecs, len(rt.fx))
	rt.fxVecs[ai] = rt.fx[ai].ResultPayloads(rt.fxVecs[ai], n)
	return rt.fxVecs[ai]
}

// ExecStats reports how much per-row expression work ran vectorized versus
// scalar, and how many shards the worker pool executed, since the world was
// created (§4's set-at-a-time accounting).
func (w *World) ExecStats() stats.ExecCounters { return w.execStats }
