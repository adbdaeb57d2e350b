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
// every step is a let, an if, a scalar effect emission, a top-level accum
// loop whose join site hoists (its result is a lane: the kernels run
// window by window behind joinWindow, join.go), or an atomic block of
// payload emissions in a frame-free class, and all their expressions
// compile; nested accum loops and set effects stay scalar.
//
// Every accumulator still receives its contributions in exactly the order
// the scalar row loop would produce, so the two paths are bit-identical,
// not merely ⊕-equivalent. Self-emissions fold in place during the sweep:
// each lane writes only its own row's accumulator, so batch-aligned row
// shards run concurrently with no synchronization. Targeted emissions are
// lanes (target ref, value, key) appended to the shard sink row-major, for
// the merge to replay in row order. An atomic block's guard is a mask and
// its intents are built per window from payload and target lanes, in the
// order runAtomic makes them; unlike a plain targeted lane, a dangling
// target stays in its intent (row -1) so that admission aborts the whole
// transaction instead of half-applying it. A phase that folds a
// self-emission into an effect some own-class targeted emission also feeds
// would interleave the two wrongly, so it stays scalar
// (analysis.Script.Pinned).
//
// The scalar closure evaluator remains the semantic reference. Which path a
// phase takes is decided per class and tick by chooseEffectExec from what
// the tree can observe (compiled, hoisted, untraced, populated), and
// Options.Exec = ExecScalar forces the reference path.

import (
	"slices"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/plan"
	"repro/internal/sgl/ast"
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
	kind    value.Kind // declared effect value kind (of the target class)
	val     *vexpr.Prog
	key     *vexpr.Prog // non-nil for minby/maxby emissions
	valBuf  int
	keyBuf  int
	// fold routes contributions through the unboxed payload fold
	// (Column.AddPayloadRows) instead of constructing a value.Value per
	// row. Set for payload-kind emissions unless CompileUnfused pins the
	// pre-fusion executor; string emissions always decode at the boundary.
	fold bool

	// target is a targeted emission's ref kernel: its lane, null where the
	// mask is off, names the receiver in class World.order[dst].
	target *vexpr.Prog
	tgtBuf int
	dst    int
}

// vecAccum binds a hoisted accum site's result lane as its frame slot.
type vecAccum struct {
	step *compile.AccumStep
	slot int
}

// vecAtomic is an atomic block whose intents kernels build: sel keeps the
// guard mask the block ran under (a mask level past the if-nesting ones),
// runs are its distinct computed payload, target and base kernels, emits
// reads their lanes per masked row in slot order, and bases are the lanes
// of the site's stable constraint bases (txnBases).
type vecAtomic struct {
	step  *compile.AtomicStep
	sel   int
	runs  []lane // the computed lanes
	emits []atomicEmit
	bases []lane
}

type atomicEmit struct {
	val lane
	tgt *lane // nil = self
}

// lane is where an intent reads one expression's value for a row: a kernel
// output buffer, a state column read in place, or a constant. Only
// computed expressions cost a window lane.
type lane struct {
	prog     *vexpr.Prog // computed lanes: writes bufs[buf]
	buf, col int         // buf >= 0: scratch buffer; else col >= 0: column; else k
	k        float64
}

// at reads the lane at physical row r of the scratch's window.
func (l lane) at(sc *vecScratch, r int) float64 {
	switch {
	case l.buf >= 0:
		return sc.bufs[l.buf][r-sc.lo]
	case l.col >= 0:
		return sc.env.Cols[l.col][r-sc.lo]
	}
	return l.k
}

type vecIf struct {
	cond    *vexpr.Prog
	condBuf int
	then    []vecStep
	els     []vecStep
	depth   int
}

func (*vecLet) vecStep()    {}
func (*vecEmit) vecStep()   {}
func (*vecAccum) vecStep()  {}
func (*vecIf) vecStep()     {}
func (*vecAtomic) vecStep() {}

// vecPhase is one effect-phase step list compiled to batch form.
type vecPhase struct {
	steps    []vecStep
	needIDs  bool // any kernel reads self()
	maxSlot  int  // highest frame slot written, -1 if none
	nBufs    int  // scratch output vectors reserved by emits and ifs
	maxDepth int  // deepest if-nesting level (selection-mask levels - 1)

	accums  []*compile.AccumStep // hoisted sites whose result lanes the phase reads
	targets []*vecEmit           // targeted emissions, in step order
	atomics []*vecAtomic         // atomic blocks, in step order
}

// ordered reports that the phase appends to a sink stream (targeted
// emissions or intents) that must stay in ascending row order.
func (vp *vecPhase) ordered() bool { return len(vp.targets) > 0 || len(vp.atomics) > 0 }

// vecScratch is one worker's kernel I/O state for the window of rows
// [lo, lo+n) it runs: the environment, bound to window views of the class's
// columns (and, for update rules, of its effect vectors), and the worker's
// kernel lanes — the id lane for self() kernels, let outputs, emit/if
// outputs, the selection-mask stack and the hoisted join sites' result and
// bound lanes. Every lane is window-relative (index = row − lo) and grows
// only to the longest window run through it, at most vexpr.BatchSize.
// Worker slot 0 runs on the tick arena's scratch, so worlds ticking on an
// ArenaPool share it; every other slot owns one (workerSlot.vec). No two
// workers share a lane, whatever the shards' spans.
type vecScratch struct {
	env   vexpr.Env
	lo    int
	cols  [][]float64 // env.Cols
	fx    [][]float64 // env.Fx
	slots [][]float64 // env.Slots: the lane each frame slot reads

	ids    []float64
	lets   [][]float64 // let outputs by frame slot
	bufs   [][]float64 // emit/if outputs
	masks  [][]bool    // selection masks by if-nesting depth, then atomic blocks
	hoist  [][]float64 // hoisted sites' results by siteRT.hoistIdx
	bounds [][]float64 // one hoisted site's box bounds
}

// vecClassProgs is the immutable, compile-time half of a class's batch
// plan: the kernels themselves plus their structural metadata. It lives on
// compiledClass and is shared read-only by every world instantiated from
// the same Compiled.
type vecClassProgs struct {
	updates       []vecUpdateRule
	scalarUpdates []compile.UpdatePlan // rules that stay on the closure path
	updateFx      []int                // effect attrs read by update kernels
	updateNeedIDs bool

	phases    []*vecPhase // indexed by phase; nil = scalar only
	hasPhases bool        // any phase compiled (guards the per-tick scan)
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

// chooseEffectExec picks, per phase, batch kernels or the scalar row loop —
// before the extent is split, so every worker and partition count makes
// identical choices. A phase runs as kernels when it compiled to them, its
// accum sites all hoist this tick (an unhoisted site has no result lane), no
// tracer is installed (tracing keeps every phase scalar for the
// per-emission hook) and some live row is at it; a phase no live row is at
// runs neither. A phase with targeted emissions or atomic blocks needs all
// and no second such phase, its appends being the sink's only, ascending
// row streams. vecSel is nil when no phase vectorizes; all reports that the
// scalar row loop has nothing to do.
func (w *World) chooseEffectExec(rt *classRT) (vecSel []bool, all bool) {
	if rt.vec == nil || !rt.vec.hasPhases || w.tracer != nil || w.opts.Exec == plan.ExecScalar {
		return nil, false
	}
	counts := rt.phaseCounts()
	vecSel, all = rt.vecSelBuf[:0], true
	targeted := 0
	for p, steps := range rt.plan.Phases {
		vp := rt.vec.phases[p]
		on := len(steps) > 0 && counts[p] > 0 && vp != nil && w.hoistedAll(vp)
		if on && vp.ordered() {
			targeted++
		}
		all = all && (on || len(steps) == 0 || counts[p] == 0)
		vecSel = append(vecSel, on)
	}
	rt.vecSelBuf = vecSel
	demote, any := !all || targeted > 1, false
	for p := range vecSel {
		if vecSel[p] && demote && rt.vec.phases[p].ordered() {
			vecSel[p], all = false, false
		}
		any = any || vecSel[p]
	}
	if !any {
		return nil, false
	}
	return vecSel, all
}

// hoistedAll reports that every accum site of the phase hoists this tick.
func (w *World) hoistedAll(vp *vecPhase) bool {
	for _, s := range vp.accums {
		if !w.siteIndex[s].hoisted {
			return false
		}
	}
	return true
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
	// Row 3's targeted emission into row 9 replays from the sink after the
	// sweep, row 9's self-emission folds during it: on a shared attribute
	// that breaks ⊕ order, so such phases stay scalar (Script.Pinned).
	for p, steps := range cc.plan.Phases {
		if !cc.ai.Phases[p].Vectorizable || cc.ai.Phases[p].Pinned >= 0 {
			continue
		}
		if vp := compileVecPhase(c, cc, steps); vp != nil {
			v.phases[p] = vp
			v.hasPhases = true
			any = true
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
	for i, a := range vp.atomics {
		a.sel = vp.maxDepth + 1 + i
	}
	return vp
}

func compileVecSteps(c *Compiled, cc *compiledClass, steps []compile.Step, defined map[int]bool, depth int, vp *vecPhase) ([]vecStep, bool) {
	slotOK := func(slot int) bool { return defined[slot] }
	kc := func(prog *vexpr.Prog) {
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
		case *compile.AccumStep: // top-level (analysis); a lane if it hoists
			if b := c.batches[s]; b == nil || !b.hoist {
				return nil, false
			}
			defined[s.Slot] = true
			vp.maxSlot = max(vp.maxSlot, s.Slot)
			vp.accums = append(vp.accums, s)
			out = append(out, &vecAccum{step: s, slot: s.Slot})
		case *compile.EmitStep:
			// Analysis certified the shapes: scalar emissions of columnar
			// payload kinds. String-valued self-emissions ride the
			// dictionary: the kernel emits codes, decoded at the fold.
			dst := c.classes[s.Class]
			kind := dst.cls.Effects[s.AttrIdx].Kind
			val, ok := vexpr.CompileOpts(s.ValSrc, c.kernelOpts(slotOK))
			if !ok {
				return nil, false
			}
			st := &vecEmit{
				attrIdx: s.AttrIdx, kind: kind, val: val, valBuf: vp.newBuf(), keyBuf: -1,
				fold: !c.unfused && kind != value.KindString,
			}
			kc(val)
			if s.TargetSrc != nil {
				tgt, ok := vexpr.CompileOpts(s.TargetSrc, c.kernelOpts(slotOK))
				if !ok {
					return nil, false
				}
				st.target, st.tgtBuf, st.dst = tgt, vp.newBuf(), slices.Index(c.order, dst)
				kc(tgt)
				vp.targets = append(vp.targets, st)
			}
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
		case *compile.AtomicStep:
			// Analysis certified a frame-free class and a body of payload
			// emissions. Equal expressions share one lane.
			st := &vecAtomic{step: s}
			lanes := make(map[string]lane)
			laneOf := func(src ast.Expr) (lane, bool) {
				text := ast.ExprString(src)
				if l, ok := lanes[text]; ok {
					return l, true
				}
				prog, ok := vexpr.CompileOpts(src, c.kernelOpts(slotOK))
				if !ok {
					return lane{}, false
				}
				l := lane{buf: -1, col: -1}
				if col, ok := prog.Column(); ok {
					l.col = col
				} else if k, ok := prog.Constant(); ok {
					l.k = k
				} else {
					l.prog, l.buf = prog, vp.newBuf()
					kc(prog)
					st.runs = append(st.runs, l)
				}
				lanes[text] = l
				return l, true
			}
			for _, b := range s.Body {
				e := b.(*compile.EmitStep)
				var ae atomicEmit
				var ok bool
				if ae.val, ok = laneOf(e.ValSrc); !ok {
					return nil, false
				}
				if e.TargetSrc != nil {
					tgt, ok := laneOf(e.TargetSrc)
					if !ok {
						return nil, false
					}
					ae.tgt = &tgt
				}
				st.emits = append(st.emits, ae)
			}
			for _, b := range txnBases(c.ai.Atomic(s)) {
				l, ok := laneOf(b.src)
				if !ok {
					return nil, false
				}
				st.bases = append(st.bases, l)
			}
			out = append(out, st)
			vp.atomics = append(vp.atomics, st)
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

// window returns lane i of ls sized to n, reallocated only when short.
func window[T any](ls *[][]T, i, n int) []T {
	*ls = extend(*ls, i+1)
	(*ls)[i] = grow((*ls)[i], n)
	return (*ls)[i]
}

// bindWindow points the kernel environment at rows [lo, hi) of the class's
// columns; effect vectors, the id lane and slot lanes are bound by the
// passes that read them.
func (sc *vecScratch) bindWindow(w *World, rt *classRT, lo, hi int) {
	cols := rt.tab.NumColumns()
	sc.lo, sc.cols = lo, grow(sc.cols, len(cols))
	for a, c := range cols {
		sc.cols[a] = nil
		if c != nil {
			sc.cols[a] = c[lo:hi]
		}
	}
	sc.env = vexpr.Env{Cols: sc.cols, Gather: w.gatherFn}
}

// unbind drops the scratch's views of a world's columns, so a pooled arena
// keeps no world reachable between checkouts.
func (sc *vecScratch) unbind() {
	clear(sc.cols)
	clear(sc.fx)
	clear(sc.slots)
	sc.env = vexpr.Env{}
}

// fillIDs fills the window's object-id lane for self() kernels.
func (sc *vecScratch) fillIDs(rt *classRT, n int) {
	ids := grow(sc.ids, n)
	for i, id := range rt.tab.RawIDs()[sc.lo : sc.lo+n] {
		ids[i] = float64(id)
	}
	sc.ids, sc.env.IDs = ids, ids
}

// vecPhaseRange executes one vectorized effect phase over the window win
// of the shard's rows, on the lanes of x.sc (bound to the window): the base
// selection mask is (alive, or owned by the shard's partition when assign
// is non-nil) ∧ pc=phase, refined by nested if conditions; kernels evaluate
// unmasked (expressions are total, dead lanes are ignored) and only masked
// rows emit. Self-emissions fold into the shared accumulators directly
// (shards own disjoint rows); x holds the window's join results, the
// machine and the sink. Returns the selected row count.
func (w *World) vecPhaseRange(x *execCtx, rt *classRT, phase int, vp *vecPhase, win shard, assign []int32) int {
	sc, n := x.sc, win.hi-win.lo
	mask := window(&sc.masks, 0, n)
	if assign == nil {
		copy(mask, rt.tab.AliveMask()[win.lo:win.hi])
	} else {
		for i, o := range assign[win.lo:win.hi] {
			mask[i] = o == win.owner
		}
	}
	if rt.plan.NumPhases > 1 {
		for i, pc := range rt.tab.NumColumn(rt.pcCol)[win.lo:win.hi] {
			mask[i] = mask[i] && int(pc) == phase
		}
	}
	selected := 0
	for _, on := range mask {
		if on {
			selected++
		}
	}
	if selected == 0 {
		return 0
	}
	if vp.needIDs {
		sc.fillIDs(rt, n)
	}
	sc.slots = extend(sc.slots, vp.maxSlot+1)
	sc.env.Slots = sc.slots
	for _, e := range vp.targets { // lanes an if skips stay null
		tgt := window(&sc.bufs, e.tgtBuf, n)
		for i := range tgt {
			tgt[i] = float64(value.NullID)
		}
	}
	for _, a := range vp.atomics { // and blocks it skips stay off
		clear(window(&sc.masks, a.sel, n))
	}
	w.execVecSteps(x, rt, vp.steps, mask)
	if len(vp.targets) > 0 {
		w.appendTargeted(x.sink, vp, win.lo, win.hi, sc)
	}
	if len(vp.atomics) > 0 {
		w.appendIntents(x.sink, rt, vp, win.lo, win.hi, sc)
	}
	return selected
}

// execVecSteps runs steps over the window under mask, one lane per row of
// the window.
func (w *World) execVecSteps(x *execCtx, rt *classRT, steps []vecStep, mask []bool) {
	m, sc, n := x.machine, x.sc, len(mask)
	for _, s := range steps {
		switch s := s.(type) {
		case *vecLet:
			out := window(&sc.lets, s.slot, n)
			s.prog.Run(m, &sc.env, 0, n, out)
			sc.slots[s.slot] = out
		case *vecAccum: // the hoisted result lane, read in place
			sc.slots[s.slot] = sc.hoist[w.siteIndex[s.step].hoistIdx][:n]
		case *vecEmit:
			val := window(&sc.bufs, s.valBuf, n)
			s.val.Run(m, &sc.env, 0, n, val)
			var key []float64
			if s.key != nil {
				key = window(&sc.bufs, s.keyBuf, n)
				s.key.Run(m, &sc.env, 0, n, key)
			}
			if s.target != nil {
				tgt := sc.bufs[s.tgtBuf]
				s.target.Run(m, &sc.env, 0, n, tgt)
				for i, on := range mask {
					if !on {
						tgt[i] = float64(value.NullID)
					}
				}
				break
			}
			fx := &rt.fx[s.attrIdx]
			if s.fold {
				// Fused fold: kernel outputs are already column payloads, so
				// they go straight into the column's batch payload fold with
				// no per-row boxing or combinator dispatch.
				fx.AddPayloadRows(sc.lo, mask, val, key)
				break
			}
			// String-valued kernels emit dictionary codes; decode at the
			// accumulator boundary so the fold sees the same value.Value the
			// scalar row loop would contribute.
			isStr := s.kind == value.KindString
			decodes := int64(0)
			for i, on := range mask {
				if !on {
					continue
				}
				k := 0.0
				if key != nil {
					k = key[i]
				}
				var v value.Value
				if isStr {
					v = value.Str(w.dict.Lookup(val[i]))
					decodes++
				} else {
					v = payloadValue(s.kind, val[i])
				}
				fx.Add(sc.lo+i, v, k)
			}
			if decodes > 0 && !w.opts.DisableStats {
				atomic.AddInt64(&w.execStats.DictLookups, decodes)
			}
		case *vecAtomic:
			copy(sc.masks[s.sel], mask)
			for _, l := range s.runs {
				l.prog.Run(m, &sc.env, 0, n, window(&sc.bufs, l.buf, n))
			}
		case *vecIf:
			cond := window(&sc.bufs, s.condBuf, n)
			s.cond.Run(m, &sc.env, 0, n, cond)
			sub := window(&sc.masks, s.depth+1, n)
			any := false
			for i, on := range mask {
				sub[i] = on && cond[i] != 0
				any = any || sub[i]
			}
			if any {
				w.execVecSteps(x, rt, s.then, sub)
			}
			if s.els != nil {
				any = false
				for i, on := range mask {
					sub[i] = on && cond[i] == 0
					any = any || sub[i]
				}
				if any {
					w.execVecSteps(x, rt, s.els, sub)
				}
			}
		}
	}
}

// appendTargeted logs rows [lo, hi)'s targeted emissions to the sink
// row-major (ascending row, then step order), resolving targets as runEmit
// does: null, masked-off and dangling targets contribute nothing.
func (w *World) appendTargeted(sink *shardSink, vp *vecPhase, lo, hi int, sc *vecScratch) {
	for i := range hi - lo {
		for _, e := range vp.targets {
			id := value.ID(sc.bufs[e.tgtBuf][i])
			if id == value.NullID {
				continue
			}
			dst := w.order[e.dst]
			if row := dst.tab.Row(id); row >= 0 {
				key := 0.0
				if e.key != nil {
					key = sc.bufs[e.keyBuf][i]
				}
				sink.curRow = int32(lo + i)
				sink.emit(dst, row, e.attrIdx, payloadValue(e.kind, sc.bufs[e.valBuf][i]), key)
			}
		}
	}
}

// appendIntents logs rows [lo, hi)'s intents lane by lane: per block the
// masked rows as sources, then each emission slot's target and payload and
// each stable base's referent, read from the kernels' lanes. Targets
// resolve as runEmit resolves them, except that a dangling one stays (row
// -1) for live() to abort the intent and a null one marks its slot skipped.
// Handles then go to the sink row-major (ascending row, then block order),
// the order runAtomic makes them in; an all-null intent gets none.
func (w *World) appendIntents(sink *shardSink, rt *classRT, vp *vecPhase, lo, hi int, sc *vecScratch) {
	ids := rt.tab.RawIDs()
	sink.starts, sink.open = sink.starts[:0], sink.open[:0]
	for _, a := range vp.atomics {
		site := w.txnSites[a.step]
		lg, mask, n := sink.txnLog(site), sc.masks[a.sel], 0
		for _, on := range mask {
			if on {
				n++ // an ownership-masked window may be mostly other partitions' rows
			}
		}
		i0 := lg.open(n)
		src := lg.src[i0:i0]
		for i, on := range mask {
			if on {
				src = append(src, int32(lo+i))
			}
		}
		sink.starts, sink.open = append(sink.starts, i0), append(sink.open, lg)
		sink.resolved = sink.resolved[:0]
		for k, e := range a.emits {
			tgt, row, val := lg.tgt[k][i0:], lg.row[k][i0:], lg.val[k][i0:]
			for j, r := range src {
				val[j], tgt[j], row[j] = e.val.at(sc, int(r)), ids[r], r
				if e.tgt != nil {
					tgt[j] = value.ID(e.tgt.at(sc, int(r)))
				}
			}
			if e.tgt != nil {
				sink.resolveRows(*e.tgt, lg.slots[k].rt, sc, src, row)
			}
		}
		for b, l := range a.bases {
			sink.resolveRows(l, site.baseRTs[b], sc, src, lg.base[b][i0:])
		}
	}
	for i := range hi - lo {
		for ai, a := range vp.atomics {
			if sc.masks[a.sel][i] {
				lg, j := sink.open[ai], sink.starts[ai]
				if sink.starts[ai]++; !lg.empty(j) {
					sink.curRow = int32(lo + i)
					sink.addTxn(lg.handle(j))
				}
			}
		}
	}
}

type resolvedLane struct {
	l    lane
	dst  *classRT
	rows []int32
}

// resolveRows writes the rows of dst that lane l names for the sources src
// (txnNull for a null id, -1 for a dangling one), copying them when an
// earlier slot or base of the block resolved the same lane into dst.
func (sink *shardSink) resolveRows(l lane, dst *classRT, sc *vecScratch, src, rows []int32) {
	rows = rows[:len(src)]
	for _, p := range sink.resolved {
		if p.l == l && p.dst == dst {
			copy(rows, p.rows)
			return
		}
	}
	for j, r := range src {
		rows[j] = txnNull
		if id := value.ID(l.at(sc, int(r))); id != value.NullID {
			rows[j] = int32(dst.tab.Row(id))
		}
	}
	sink.resolved = append(sink.resolved, resolvedLane{l, dst, rows})
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
