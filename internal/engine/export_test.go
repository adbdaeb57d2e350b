package engine

// Test-only exports for the differential pin tests in
// analysis_diff_test.go (package engine_test): snapshots of the
// physical-plan decisions the engine now derives through
// internal/analysis, plus verbatim copies of the pre-refactor ad-hoc
// logic those decisions must stay identical to.

import (
	"math"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sgl/ast"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// VecDecisions captures a class's batch-kernel eligibility decisions.
type VecDecisions struct {
	CrossSelf     []bool // per effect attr: fed by an own-class targeted emission
	Phases        []bool // per phase: compiled to batch form
	VecUpdates    []int  // update-rule attr indexes on the kernel path
	ScalarUpdates []int  // update-rule attr indexes kept scalar
}

// VecDecisions reports the live (analysis-routed) decisions.
func (w *World) VecDecisions(class string) VecDecisions {
	rt := w.classes[class]
	d := VecDecisions{CrossSelf: rt.ai.CrossSelf, Phases: make([]bool, len(rt.plan.Phases))}
	if rt.vec != nil {
		for p := range rt.plan.Phases {
			d.Phases[p] = rt.vec.phases[p] != nil
		}
		for _, u := range rt.vec.updates {
			d.VecUpdates = append(d.VecUpdates, u.attrIdx)
		}
		for _, u := range rt.vec.scalarUpdates {
			d.ScalarUpdates = append(d.ScalarUpdates, u.AttrIdx)
		}
	} else {
		for _, u := range rt.plan.Updates {
			d.ScalarUpdates = append(d.ScalarUpdates, u.AttrIdx)
		}
	}
	return d
}

// OldVecDecisions recomputes the same decisions with the pre-refactor
// logic: an inline cross-self-emission walk, per-update payload-kind
// checks and the structural-check-interleaved phase compiler — extended by
// hand with the per-attribute pin, hoisted accum sites, targeted emission
// lanes and frame-free atomic blocks, independently of the analysis.
func (w *World) OldVecDecisions(class string) VecDecisions {
	rt := w.classes[class]
	d := VecDecisions{Phases: make([]bool, len(rt.plan.Phases))}

	var vecUpdates, scalarUpdates []int
	anyVec := false
	for _, u := range rt.plan.Updates {
		kind := rt.cls.State[u.AttrIdx].Kind
		_, ok := vexpr.Compile(u.Src.Expr)
		if !ok || (kind != value.KindNumber && kind != value.KindBool && kind != value.KindRef) {
			scalarUpdates = append(scalarUpdates, u.AttrIdx)
			continue
		}
		vecUpdates = append(vecUpdates, u.AttrIdx)
		anyVec = true
	}

	d.CrossSelf = oldCrossSelfAttrs(rt)
	anyPhase := false
	for p, steps := range rt.plan.Phases {
		if len(steps) == 0 || oldSelfEmitsInto(steps, d.CrossSelf) {
			continue
		}
		if vp := w.oldCompileVecPhase(rt, steps); vp != nil {
			d.Phases[p] = true
			anyPhase = true
		}
	}
	// Pre-refactor buildVecPlan returned nil when nothing compiled, which
	// reported every rule as scalar.
	if !anyVec && !anyPhase {
		for _, u := range rt.plan.Updates {
			d.ScalarUpdates = append(d.ScalarUpdates, u.AttrIdx)
		}
		return d
	}
	d.VecUpdates, d.ScalarUpdates = vecUpdates, scalarUpdates
	return d
}

// oldCrossSelfAttrs marks the effect attrs a direct targeted emission of
// some phase feeds in the own class.
func oldCrossSelfAttrs(rt *classRT) []bool {
	out := make([]bool, len(rt.cls.Effects))
	var walk func(steps []compile.Step)
	walk = func(steps []compile.Step) {
		for _, s := range steps {
			switch s := s.(type) {
			case *compile.EmitStep:
				if s.TargetFn != nil && s.Class == rt.name && s.AccumSlot < 0 {
					out[s.AttrIdx] = true
				}
			case *compile.IfStep:
				walk(s.Then)
				walk(s.Else)
			case *compile.AccumStep:
				walk(s.Body)
				if s.Join != nil {
					walk(s.Join.Inner)
				}
			case *compile.AtomicStep:
			}
		}
	}
	for _, steps := range rt.plan.Phases {
		walk(steps)
	}
	return out
}

// oldSelfEmitsInto reports a direct self-emission into a marked attr.
func oldSelfEmitsInto(steps []compile.Step, marked []bool) bool {
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.EmitStep:
			if s.TargetFn == nil && s.AccumSlot < 0 && marked[s.AttrIdx] {
				return true
			}
		case *compile.IfStep:
			if oldSelfEmitsInto(s.Then, marked) || oldSelfEmitsInto(s.Else, marked) {
				return true
			}
		}
	}
	return false
}

// oldCompileVecPhase is the pre-refactor compileVecPhase with its
// structural checks interleaved with expression compilation.
func (w *World) oldCompileVecPhase(rt *classRT, steps []compile.Step) *vecPhase {
	vp := &vecPhase{maxSlot: -1}
	defined := make(map[int]bool)
	out, ok := w.oldCompileVecSteps(rt, steps, defined, 0, vp)
	if !ok {
		return nil
	}
	vp.steps = out
	return vp
}

func (w *World) oldCompileVecSteps(rt *classRT, steps []compile.Step, defined map[int]bool, depth int, vp *vecPhase) ([]vecStep, bool) {
	slotOK := func(slot int) bool { return defined[slot] }
	var out []vecStep
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.LetStep:
			prog, ok := vexpr.CompileWithSlots(s.Src, slotOK)
			if !ok {
				return nil, false
			}
			defined[s.Slot] = true
			if s.Slot > vp.maxSlot {
				vp.maxSlot = s.Slot
			}
			vp.needIDs = vp.needIDs || prog.NeedIDs()
			out = append(out, &vecLet{slot: s.Slot, prog: prog})
		case *compile.IfStep:
			cond, ok := vexpr.CompileWithSlots(s.CondSrc, slotOK)
			if !ok {
				return nil, false
			}
			st := &vecIf{cond: cond, condBuf: vp.newBuf(), depth: depth}
			vp.needIDs = vp.needIDs || cond.NeedIDs()
			if depth+1 > vp.maxDepth {
				vp.maxDepth = depth + 1
			}
			if st.then, ok = w.oldCompileVecSteps(rt, s.Then, defined, depth+1, vp); !ok {
				return nil, false
			}
			if st.els, ok = w.oldCompileVecSteps(rt, s.Else, defined, depth+1, vp); !ok {
				return nil, false
			}
			out = append(out, st)
		case *compile.AccumStep:
			if b := w.compiled.batches[s]; depth > 0 || b == nil || !b.hoist {
				return nil, false
			}
			defined[s.Slot] = true
		case *compile.EmitStep:
			if s.SetInsert || s.AccumSlot >= 0 {
				return nil, false
			}
			kind := w.classes[s.Class].cls.Effects[s.AttrIdx].Kind
			if kind != value.KindNumber && kind != value.KindBool && kind != value.KindRef {
				return nil, false
			}
			if s.TargetFn != nil {
				if _, ok := vexpr.CompileWithSlots(s.TargetSrc, slotOK); !ok {
					return nil, false
				}
			}
			val, ok := vexpr.CompileWithSlots(s.ValSrc, slotOK)
			if !ok {
				return nil, false
			}
			st := &vecEmit{attrIdx: s.AttrIdx, kind: kind, val: val, valBuf: vp.newBuf(), keyBuf: -1}
			vp.needIDs = vp.needIDs || val.NeedIDs()
			if s.KeyFn != nil {
				key, ok := vexpr.CompileWithSlots(s.KeySrc, slotOK)
				if !ok {
					return nil, false
				}
				st.key, st.keyBuf = key, vp.newBuf()
				vp.needIDs = vp.needIDs || key.NeedIDs()
			}
			out = append(out, st)
		case *compile.AtomicStep:
			// Intents from lanes: a frame-free class, and a body of number,
			// bool or ref emissions whose payloads and targets compile.
			if rt.plan.NumSlots > 0 {
				return nil, false
			}
			for _, b := range s.Body {
				e, ok := b.(*compile.EmitStep)
				if !ok || e.SetInsert {
					return nil, false
				}
				kind := w.classes[e.Class].cls.Effects[e.AttrIdx].Kind
				if (kind != value.KindNumber && kind != value.KindBool && kind != value.KindRef) || e.ValSrc.Type().Kind != kind {
					return nil, false
				}
				if _, ok := vexpr.CompileWithSlots(e.ValSrc, slotOK); !ok {
					return nil, false
				}
				if e.TargetFn != nil {
					if _, ok := vexpr.CompileWithSlots(e.TargetSrc, slotOK); !ok {
						return nil, false
					}
				}
			}
		}
	}
	return out, true
}

// SiteBatchSummary reports the batched-join compilation outcome of one
// accum site: whether the single-emission fold and the residual conjuncts
// lowered to gathered kernels.
type SiteBatchSummary struct {
	Class, Source string
	VecFold       bool
	VecResidual   bool
	Keyed         bool // the join has a key conjunct tested in the probe
	Residual      bool // some conjunct stays residual
}

// SiteBatchSummaries lists every accum site's batch plan in collection
// order.
func (w *World) SiteBatchSummaries() []SiteBatchSummary {
	var out []SiteBatchSummary
	for _, site := range w.sites {
		s := SiteBatchSummary{Class: site.class, Source: site.step.SourceClass}
		if j := site.step.Join; j != nil {
			s.Keyed, s.Residual = j.Key != nil, j.Residual != nil
		}
		if b := site.batch; b != nil {
			s.VecFold = b.vec
			s.VecResidual = len(b.resProgs) > 0
		}
		out = append(out, s)
	}
	return out
}

// AttrKey names one (class, attr) pair in a summary.
type AttrKey struct {
	Class string
	Attr  int
}

// TxnSiteSummary captures one atomic site's admission classification.
type TxnSiteSummary struct {
	Class      string
	Analyzable bool
	Cols       []int
	Slots      []int
	NeedIDs    bool
	Views      []AttrKey
	Bases      []string
	KernelCons int // constraints with a compiled mask kernel
}

func summarizeTxnSite(site *txnSite) TxnSiteSummary {
	s := TxnSiteSummary{
		Class:      site.rt.name,
		Analyzable: site.analyzable,
		Cols:       append([]int(nil), site.cols...),
		Slots:      append([]int(nil), site.slots...),
		NeedIDs:    site.needIDs,
	}
	for _, v := range site.views {
		s.Views = append(s.Views, AttrKey{Class: v.rt.name, Attr: v.attr})
	}
	for _, b := range site.bases {
		s.Bases = append(s.Bases, b.class)
	}
	for _, c := range site.cons {
		if c.prog != nil {
			s.KernelCons++
		}
	}
	return s
}

// forEachTxnSite visits every atomic site in the deterministic collection
// order of collectTxnSites.
func (w *World) forEachTxnSite(f func(rt *classRT, step *compile.AtomicStep)) {
	for _, rt := range w.order {
		var walk func(steps []compile.Step)
		walk = func(steps []compile.Step) {
			for _, s := range steps {
				switch s := s.(type) {
				case *compile.IfStep:
					walk(s.Then)
					walk(s.Else)
				case *compile.AccumStep:
					walk(s.Body)
					if s.Join != nil {
						walk(s.Join.Inner)
					}
				case *compile.AtomicStep:
					f(rt, s)
					walk(s.Body)
				}
			}
		}
		for _, steps := range rt.plan.Phases {
			walk(steps)
		}
		for _, h := range rt.plan.Handlers {
			walk(h.Body)
		}
	}
}

// TxnSiteSummaries reports the live (analysis-routed) atomic-site
// classifications in collection order.
func (w *World) TxnSiteSummaries() []TxnSiteSummary {
	var out []TxnSiteSummary
	w.forEachTxnSite(func(rt *classRT, step *compile.AtomicStep) {
		out = append(out, summarizeTxnSite(w.txnSites[step]))
	})
	return out
}

// OldTxnSiteSummaries recomputes every atomic site with the pre-refactor
// consAnalysis walk, verbatim.
func (w *World) OldTxnSiteSummaries() []TxnSiteSummary {
	var out []TxnSiteSummary
	w.forEachTxnSite(func(rt *classRT, step *compile.AtomicStep) {
		out = append(out, summarizeTxnSite(w.oldAnalyzeTxnSite(rt, step)))
	})
	return out
}

// oldConsAnalysis is the pre-refactor constraint walk, verbatim.
type oldConsAnalysis struct {
	w  *World
	rt *classRT

	ok       bool
	kernelOK bool

	cols    []int
	slots   []int
	needIDs bool
	views   []txnViewAttr
	bases   []txnBase
}

func (w *World) oldAnalyzeTxnSite(rt *classRT, step *compile.AtomicStep) *txnSite {
	site := &txnSite{rt: rt, step: step, txnProgs: &txnProgs{analyzable: true}}
	colSeen := make(map[int]bool)
	slotSeen := make(map[int]bool)
	viewSeen := make(map[txnViewKey]bool)
	for ci, src := range step.Srcs {
		c := txnConstraint{fn: step.Constraints[ci]}
		a := &oldConsAnalysis{w: w, rt: rt, ok: true, kernelOK: true}
		a.walk(src)
		if !a.ok {
			site.analyzable = false
			site.cons = append(site.cons, c)
			continue
		}
		site.bases = append(site.bases, a.bases...)
		if a.kernelOK {
			if prog, ok := vexpr.CompileWithSlots(src, func(int) bool { return true }); ok {
				c.prog = prog
				site.needIDs = site.needIDs || a.needIDs || prog.NeedIDs()
				for _, col := range a.cols {
					if !colSeen[col] {
						colSeen[col] = true
						site.cols = append(site.cols, col)
					}
				}
				for _, sl := range a.slots {
					if !slotSeen[sl] {
						slotSeen[sl] = true
						site.slots = append(site.slots, sl)
					}
				}
				for _, va := range a.views {
					k := txnViewKey{class: va.rt.name, attr: va.attr}
					if !viewSeen[k] {
						viewSeen[k] = true
						site.views = append(site.views, va)
					}
				}
			}
		}
		site.cons = append(site.cons, c)
	}
	return site
}

func (a *oldConsAnalysis) addCol(attr int) {
	a.cols = append(a.cols, attr)
	if a.rt.hasRule[attr] {
		prog := vecRuleProg(a.rt.vec, attr)
		if prog == nil {
			a.kernelOK = false
			return
		}
		a.views = append(a.views, txnViewAttr{rt: a.rt, attr: attr, prog: prog})
	}
}

func (a *oldConsAnalysis) walk(e ast.Expr) {
	if !a.ok {
		return
	}
	switch e := e.(type) {
	case *ast.NumLit, *ast.BoolLit, *ast.StrLit, *ast.NullLit:
	case *ast.Ident:
		switch e.Bind.Kind {
		case ast.BindStateAttr:
			a.addCol(e.Bind.AttrIdx)
		case ast.BindLocal, ast.BindIter:
			a.slots = append(a.slots, e.Bind.Slot)
		case ast.BindSelf:
			a.needIDs = true
		default:
			a.ok = false
		}
	case *ast.FieldExpr:
		a.walkField(e)
	case *ast.UnaryExpr:
		a.walk(e.X)
	case *ast.BinaryExpr:
		a.walk(e.X)
		a.walk(e.Y)
	case *ast.CondExpr:
		a.walk(e.C)
		a.walk(e.T)
		a.walk(e.F)
	case *ast.CallExpr:
		if e.Builtin == ast.BSelfFn {
			a.needIDs = true
		}
		for _, arg := range e.Args {
			a.walk(arg)
		}
	default:
		a.ok = false
	}
}

func (a *oldConsAnalysis) walkField(e *ast.FieldExpr) {
	if !a.stableBase(e.X) {
		a.ok = false
		return
	}
	trt := a.w.classes[e.Class]
	if trt == nil {
		a.ok = false
		return
	}
	if trt.hasRule[e.AttrIdx] {
		a.bases = append(a.bases, txnBase{fn: expr.Compile(e.X), class: e.Class})
		prog := vecRuleProg(trt.vec, e.AttrIdx)
		if prog == nil {
			a.kernelOK = false
			return
		}
		a.views = append(a.views, txnViewAttr{rt: trt, attr: e.AttrIdx, prog: prog})
	}
}

func (a *oldConsAnalysis) stableBase(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.NullLit:
		return true
	case *ast.Ident:
		switch e.Bind.Kind {
		case ast.BindSelf:
			a.needIDs = true
			return true
		case ast.BindLocal, ast.BindIter:
			a.slots = append(a.slots, e.Bind.Slot)
			return true
		case ast.BindStateAttr:
			if e.Ty.Kind != value.KindRef || a.rt.hasRule[e.Bind.AttrIdx] {
				return false
			}
			a.cols = append(a.cols, e.Bind.AttrIdx)
			return true
		}
		return false
	case *ast.FieldExpr:
		if !a.stableBase(e.X) {
			return false
		}
		trt := a.w.classes[e.Class]
		return trt != nil && e.Ty.Kind == value.KindRef && !trt.hasRule[e.AttrIdx]
	case *ast.CallExpr:
		if e.Builtin == ast.BSelfFn {
			a.needIDs = true
			return true
		}
		return false
	}
	return false
}

// ReachDim is one exported derived reach dimension.
type ReachDim struct {
	Axis   int
	Lo, Hi float64
}

// ReachComparison pairs the kernel and closure reach derivations of one
// accum site at the same world state.
type ReachComparison struct {
	Class   string
	Source  string
	Phase   int
	Spatial bool
	Reach   []ReachDim
	Shared  bool // live site.shared after the last prepare

	OldSpatial bool
	OldReach   []ReachDim
}

// CompareReachDerivations re-derives every indexed accum site's
// interaction reach twice at the current world state — once through
// deriveSiteReach's bound kernels, once through the closure oracle
// oldDeriveSiteReach — and reports both. Valid on a partitioned world
// after at least one tick (layouts exist).
func (w *World) CompareReachDerivations() []ReachComparison {
	w.acquireArena()
	defer w.releaseArena()
	var out []ReachComparison
	for _, site := range w.sites {
		if site.step.Join == nil || site.step.SourceFn != nil {
			continue
		}
		srcRT := w.classes[site.step.SourceClass]
		rc := ReachComparison{
			Class:  site.class,
			Source: site.step.SourceClass,
			Phase:  site.phase,
			Shared: site.shared,
		}
		saved := append([]dimReach(nil), site.reach...)
		rc.Spatial = w.deriveSiteReach(site)
		for _, d := range site.reach {
			rc.Reach = append(rc.Reach, ReachDim{Axis: d.axis, Lo: d.lo, Hi: d.hi})
		}
		site.reach = append(site.reach[:0], saved...)
		rc.OldSpatial, rc.OldReach = w.oldDeriveSiteReach(site, srcRT)
		out = append(out, rc)
	}
	return out
}

// oldDeriveSiteReach is the closure oracle of deriveSiteReach: every
// probing row's box evaluated by evalDimBounds, one plan.InteractionRadius
// over the whole extent per (dimension, axis), into local buffers.
func (w *World) oldDeriveSiteReach(site *siteRT, srcRT *classRT) (bool, []ReachDim) {
	if site.phase < 0 {
		return false, nil
	}
	probeRT := w.classes[site.class]
	pc := probeRT.prt
	if pc.layout.Axes == 0 {
		return false, nil
	}
	j := site.step.Join
	dims := len(j.Ranges)
	reach := make([]ReachDim, 0, dims)
	for d := 0; d < dims; d++ {
		reach = append(reach, ReachDim{Axis: -1})
	}

	naxes := pc.layout.Axes
	axisPos := make([][]float64, naxes)
	boxLo := make([][]float64, dims)
	boxHi := make([][]float64, dims)
	anyDim := false
	for d := range j.Ranges {
		if j.Ranges[d].SelfOnly {
			anyDim = true
		}
	}
	if !anyDim {
		return false, nil
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
			axisPos[k] = append(axisPos[k], tab.NumColumn(pc.axes[k])[r])
		}
		for d, rd := range j.Ranges {
			if !rd.SelfOnly {
				continue
			}
			lo, hi := evalDimBounds(&ctx, rd)
			boxLo[d] = append(boxLo[d], lo)
			boxHi[d] = append(boxHi[d], hi)
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
			rLo, rHi := plan.InteractionRadius(axisPos[k], boxLo[d], boxHi[d])
			if !plan.BoundedReach(rLo, rHi) {
				continue
			}
			if span := rLo + rHi; span < bestSpan {
				best, bestSpan = k, span
				bestLo, bestHi = rLo, rHi
			}
		}
		if best >= 0 {
			reach[d] = ReachDim{Axis: best, Lo: bestLo, Hi: bestHi}
			anchored = true
		}
	}
	return anchored, reach
}

// buildTxnView stages one tentative-view column and runs its windows
// inline, as admission's view pass does for every column its lanes read.
func (w *World) buildTxnView(va txnViewAttr) {
	s := &w.txnrt
	s.views, s.wins = s.views[:0], s.wins[:0]
	w.stageTxnView(va)
	w.growSlots(1)
	w.runPool(len(s.wins), 1, s.viewFn)
}

// SetOneSegment keeps every batched join on the one-probe driver: the
// reference arm of the segmented-join differential.
func (w *World) SetOneSegment(on bool) { w.oneSegment = on }

// HoistedSites counts the sites the last prepared tick probes through
// joinWindow.
func (w *World) HoistedSites() int {
	n := 0
	for _, s := range w.sites {
		if s.hoisted {
			n++
		}
	}
	return n
}

// EffectExec reports the effect-phase exec decision chooseEffectExec makes
// for the class's current rows: which phases run as kernels, and whether
// the scalar row loop runs at all.
func (w *World) EffectExec(class string) (kernels []bool, scalarLoop bool) {
	vecSel, all := w.chooseEffectExec(w.classes[class])
	kernels = make([]bool, len(w.classes[class].plan.Phases))
	copy(kernels, vecSel)
	return kernels, !all
}

// KernelLanes reports the kernel lanes the world retains between ticks —
// its worker slots' and, when it owns its arena, the arena's — as their
// total bytes and the longest lane's length.
func (w *World) KernelLanes() (bytes, longest int) {
	for _, ws := range w.slots {
		bytes, longest = ws.vec.footprint(bytes, longest)
	}
	if w.arena != nil {
		bytes, longest = w.arena.vec.footprint(bytes, longest)
	}
	return bytes, longest
}

// KernelLanes reports the kernel lanes the pool's idle arenas hold.
func (p *ArenaPool) KernelLanes() (bytes, longest int) {
	for _, a := range p.free {
		bytes, longest = a.vec.footprint(bytes, longest)
	}
	return bytes, longest
}

// footprint adds the scratch's own lanes (not its views of table columns)
// to a running byte total and longest length.
func (sc *vecScratch) footprint(bytes, longest int) (int, int) {
	lanes := append([][]float64{sc.ids}, sc.lets...)
	for _, ls := range [][][]float64{sc.bufs, sc.hoist, sc.bounds} {
		lanes = append(lanes, ls...)
	}
	for _, l := range lanes {
		bytes, longest = bytes+8*cap(l), max(longest, cap(l))
	}
	for _, m := range sc.masks {
		bytes, longest = bytes+cap(m), max(longest, cap(m))
	}
	return bytes, longest
}
