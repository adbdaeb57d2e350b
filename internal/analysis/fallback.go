package analysis

// Opt-in performance diagnostics: where does a program silently leave the
// fused kernel path? Unlike the default vet checks (which flag probable
// authoring mistakes and hold on every shipped scenario), scalar fallback
// is often a deliberate trade — set-valued state, ordered string logic —
// so these checks run only under `sglc vet -perf` / VetPerf.
//
// Each scalar-fallback finding names the construct that forces
// row-at-a-time execution and why the kernel compiler cannot take it,
// mirroring the exact gates in internal/vexpr and the engine's plan
// builders (engine/vector.go, engine/join.go): a diagnostic fires iff the
// engine would fall back. A join-residual finding names a join conjunct
// that compile.analyzeJoin left residual: the index probe does not test
// it, so the engine gathers every candidate before rejecting any.

import (
	"sort"

	"repro/internal/compile"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// DiagScalarFallback is the code of the opt-in performance findings that
// name a construct kept off the fused kernel path.
const DiagScalarFallback = "scalar-fallback"

// DiagJoinResidual is the code of the opt-in performance finding for a
// join conjunct the index probe cannot test: it stays residual, run as a
// mask kernel over candidates gathered first.
const DiagJoinResidual = "join-residual"

// perfDict is a throwaway intern table satisfying vexpr.Dict: the perf
// checks only need to know whether an expression *compiles* under a
// dictionary, never the codes a real world would assign.
type perfDict map[string]float64

func (d perfDict) Code(s string) float64 {
	if c, ok := d[s]; ok {
		return c
	}
	c := float64(len(d))
	d[s] = c
	return c
}

// VetPerf analyzes the program and runs only the opt-in performance
// checks, returning findings in source order.
func VetPerf(prog *compile.Program) []Diagnostic {
	return VetPerfResult(Analyze(prog))
}

// VetPerfResult runs the performance checks over an existing analysis
// result.
func VetPerfResult(r *Result) []Diagnostic {
	v := &vetter{r: r}
	names := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v.checkScalarFallback(r.Classes[n])
	}
	sort.SliceStable(v.diags, func(i, j int) bool {
		a, b := v.diags[i], v.diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return v.diags
}

// checkScalarFallback reproduces the engine's kernel-eligibility decisions
// with a throwaway dictionary and reports every point where execution
// degrades to the scalar path.
func (v *vetter) checkScalarFallback(c *Class) {
	o := vexpr.Opts{Dict: perfDict{}, SlotOK: func(int) bool { return true }}

	// Update rules: non-columnar targets and non-compiling expressions.
	for i, u := range c.Plan.Updates {
		name := c.Plan.Class.State[u.AttrIdx].Name
		if !c.Updates[i].VecKind {
			v.add(u.Src.Expr.Position(), c.Name, DiagScalarFallback,
				"update rule for %s.%s targets a %s attribute; staged kernel writes cannot maintain %s storage, so the rule runs row-at-a-time",
				c.Name, name, c.Updates[i].Kind, c.Updates[i].Kind)
			continue
		}
		if _, ok := vexpr.CompileOpts(u.Src.Expr, o); !ok {
			v.add(u.Src.Expr.Position(), c.Name, DiagScalarFallback,
				"update rule for %s.%s runs through the scalar closure: %s",
				c.Name, name, exprWhy(u.Src.Expr))
		}
	}

	// The per-attribute pin: phases that fold self-emissions into an effect
	// some own-class targeted emission also feeds stay scalar. Report it
	// once per attribute, at its first targeted emission, naming the pinned
	// phases; their kernel checks are moot.
	for a := range c.CrossSelf {
		phases := c.PinnedBy(a)
		if len(phases) == 0 {
			continue
		}
		pos := token.Pos{}
		for _, s := range c.Phases {
			for _, e := range s.Emits {
				if e.Targeted && e.Class == c.Name && e.Attr == a && e.AccumSlot < 0 && !e.InAtomic &&
					(pos == (token.Pos{}) || lessPos(e.Pos, pos)) {
					pos = e.Pos
				}
			}
		}
		eff := c.Plan.Class.Effects[a].Name
		v.add(pos, c.Name, DiagScalarFallback,
			"targeted emission into own-class effect %s.%s pins %s of %s to the scalar path: its self-emissions into %s must fold in row order with the cross-object contributions",
			c.Name, eff, phaseList(phases), c.Name, eff)
	}
	// Phases that pass the structural gate can still lose the kernel path
	// to an expression the compiler bails on.
	for p, s := range c.Phases {
		if s.Vectorizable && s.Pinned < 0 {
			v.checkPhaseKernels(c, c.Plan.Phases[p], o)
		}
	}

	// Atomic sites whose intents stay row-at-a-time, one finding each. A
	// pinned phase is reported above, and an expression outside the block
	// that does not compile by checkPhaseKernels.
	for _, a := range c.Atomics {
		if a.Phase < 0 || c.Phases[a.Phase].Pinned >= 0 {
			continue
		}
		why := v.r.structWhy(c, c.Plan.Phases[a.Phase], true)
		if why == "" { // the block is emissions only
			why = blockKernelWhy(a.Step, o)
		}
		if why != "" {
			v.add(a.Step.Src.Pos, c.Name, DiagScalarFallback,
				"atomic block in phase %d of %s builds its intents row-at-a-time, not from kernel lanes: %s",
				a.Phase, c.Name, why)
		}
	}

	// Accum joins: every conjunct left residual — tested after the probe,
	// on gathered candidates, as a mask kernel or, when it does not compile
	// to one, as the interpreted predicate — and string-keyed minby/maxby
	// folds.
	for _, j := range c.Joins {
		if j.Step.Join == nil {
			continue
		}
		for _, src := range j.Step.Join.ResidualSrcs {
			if _, _, _, ok := vexpr.CompileAccumOpts(src, j.Step.IterSlot, o); !ok {
				v.add(src.Position(), c.Name, DiagScalarFallback,
					"join residual conjunct does not compile to a mask kernel (%s); the batched driver re-evaluates the interpreted predicate per candidate",
					exprWhy(src))
			} else {
				v.add(src.Position(), c.Name, DiagJoinResidual,
					"join conjunct %s stays residual: the index probe tests only closed ranges, equalities and one u.k != k key, so candidates are gathered before a mask kernel tests it",
					ast.ExprString(src))
			}
		}
		v.checkStringFoldKeys(c, j.Step.Join.Inner)
	}
}

// checkPhaseKernels walks a structurally vectorizable phase and reports
// each expression the kernel compiler bails on — the engine then runs the
// whole phase row-at-a-time. Mirrors engine compileVecSteps.
func (v *vetter) checkPhaseKernels(c *Class, steps []compile.Step, o vexpr.Opts) {
	check := func(e ast.Expr, what string) {
		if e == nil {
			return
		}
		if _, ok := vexpr.CompileOpts(e, o); !ok {
			v.add(e.Position(), c.Name, DiagScalarFallback,
				"%s keeps the phase on the scalar path: %s", what, exprWhy(e))
		}
	}
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.LetStep:
			check(st.Src, "let expression")
		case *compile.IfStep:
			check(st.CondSrc, "if condition")
			v.checkPhaseKernels(c, st.Then, o)
			v.checkPhaseKernels(c, st.Else, o)
		case *compile.EmitStep:
			check(st.ValSrc, "emission payload")
			if st.KeySrc != nil && st.KeySrc.Type().Kind == value.KindString {
				v.add(st.KeySrc.Position(), c.Name, DiagScalarFallback,
					"minby/maxby key is a string; dictionary codes are interned in first-use order, not lexicographically, so the fold cannot run in a kernel")
			} else {
				check(st.KeySrc, "minby/maxby key")
			}
		}
	}
}

// blockKernelWhy names the first payload or target expression of an atomic
// block the kernel compiler bails on. Mirrors engine compileVecSteps.
func blockKernelWhy(st *compile.AtomicStep, o vexpr.Opts) string {
	for _, b := range st.Body {
		e := b.(*compile.EmitStep)
		for _, src := range []ast.Expr{e.ValSrc, e.TargetSrc} {
			if src == nil {
				continue
			}
			if _, ok := vexpr.CompileOpts(src, o); !ok {
				return "an emission that does not compile (" + exprWhy(src) + ")"
			}
		}
	}
	return ""
}

// checkStringFoldKeys flags string-typed minby/maxby keys inside a join's
// inner steps: the batched site keeps its probe but folds that emission
// through the interpreted closure.
func (v *vetter) checkStringFoldKeys(c *Class, steps []compile.Step) {
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.IfStep:
			v.checkStringFoldKeys(c, st.Then)
			v.checkStringFoldKeys(c, st.Else)
		case *compile.EmitStep:
			if st.KeySrc != nil && st.KeySrc.Type().Kind == value.KindString {
				v.add(st.KeySrc.Position(), c.Name, DiagScalarFallback,
					"minby/maxby key is a string; dictionary codes are interned in first-use order, not lexicographically, so the fold cannot run in a kernel")
			}
		}
	}
}

// exprWhy names the first construct in an expression the kernel compiler
// bails on, in the terms of vexpr's gates.
func exprWhy(e ast.Expr) string {
	if w := kernelWhy(e); w != "" {
		return w
	}
	return "the expression falls outside the kernel subset"
}

func kernelWhy(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		switch e.Bind.Kind {
		case ast.BindExtent:
			return "it iterates the " + e.Bind.Class + " extent"
		case ast.BindIter:
			return "it reads an accum iteration variable"
		}
		if e.Ty.Kind == value.KindSet {
			return "set values have no columnar lane"
		}
	case *ast.FieldExpr:
		if e.Ty.Kind == value.KindSet {
			return "set values have no columnar lane"
		}
		return kernelWhy(e.X)
	case *ast.UnaryExpr:
		return kernelWhy(e.X)
	case *ast.BinaryExpr:
		if w := kernelWhy(e.X); w != "" {
			return w
		}
		if w := kernelWhy(e.Y); w != "" {
			return w
		}
		switch e.Op {
		case token.LT, token.LE, token.GT, token.GE:
			if e.X.Type().Kind == value.KindString || e.Y.Type().Kind == value.KindString {
				return "ordered string comparison has no code-lane form (dictionary codes are interned in first-use order, not lexicographically)"
			}
		}
	case *ast.CondExpr:
		if w := kernelWhy(e.C); w != "" {
			return w
		}
		if w := kernelWhy(e.T); w != "" {
			return w
		}
		return kernelWhy(e.F)
	case *ast.CallExpr:
		for _, a := range e.Args {
			if w := kernelWhy(a); w != "" {
				return w
			}
		}
		switch e.Builtin {
		case ast.BSize:
			return "size() folds a set"
		case ast.BContains:
			return "contains() probes a set"
		}
	}
	return ""
}
