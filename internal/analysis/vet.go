package analysis

// Author-facing diagnostics over the analysis result — the `sglc vet`
// backend. Every check is derived from the same dataflow facts the engine
// uses for physical planning, so each diagnostic states a real planning
// consequence: a dead handler never fires, an unsatisfiable constraint
// makes its atomic block abort every admission, a half-open join range
// defeats tight indexing and forces full ghost replication under
// partitioned execution, and a non-commutative float fold written
// cross-object pins the phases that self-emit into it to the scalar path.
//
// The checks are deliberately conservative: a diagnostic fires only when
// the property is provable from the compiled IR (constant folding over
// literals, fold classification, join shape), never on heuristics. All
// shipped example scenarios vet clean; vet_clean_test.go pins that.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// Diagnostic codes, one per check.
const (
	DiagDeadHandler     = "dead-handler"
	DiagDeadCode        = "dead-code"
	DiagUnsatConstraint = "unsat-constraint"
	DiagTrivialCons     = "trivial-constraint"
	DiagUnboundedJoin   = "unbounded-join"
	DiagNoncommFold     = "noncommutative-fold"
	DiagDeadEffect      = "dead-effect"
)

// Diagnostic is one vet finding, anchored to a source position.
type Diagnostic struct {
	Pos   token.Pos
	Class string
	Code  string
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s: %s", d.Pos.Line, d.Pos.Col, d.Code, d.Msg)
}

// Vet analyzes the program and runs every diagnostic check, returning
// findings in source order.
func Vet(prog *compile.Program) []Diagnostic {
	return VetResult(Analyze(prog))
}

// VetResult runs the checks over an existing analysis result.
func VetResult(r *Result) []Diagnostic {
	v := &vetter{r: r}
	names := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.Classes[n]
		v.checkHandlers(c)
		v.checkSteps(c)
		v.checkJoins(c)
		v.checkNoncommFolds(c)
		v.checkDeadEffects(c)
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

type vetter struct {
	r     *Result
	diags []Diagnostic
}

func (v *vetter) add(pos token.Pos, class, code, format string, args ...any) {
	v.diags = append(v.diags, Diagnostic{
		Pos: pos, Class: class, Code: code, Msg: fmt.Sprintf(format, args...),
	})
}

// checkHandlers flags handlers whose condition folds to a constant false:
// the handler body is unreachable on every tick.
func (v *vetter) checkHandlers(c *Class) {
	for _, h := range c.Plan.Handlers {
		if h.Src == nil {
			continue
		}
		if cv, ok := foldConst(h.Src.Cond); ok && cv.Kind() == value.KindBool && !cv.AsBool() {
			v.add(h.Src.Cond.Position(), c.Name, DiagDeadHandler,
				"handler condition is always false; the handler can never fire")
		}
	}
}

// checkSteps walks every phase and handler body for if conditions that
// fold to constants (a provably dead branch) and atomic constraints that
// fold to constants (unsatisfiable: the block aborts every admission;
// trivially true: the constraint never rejects anything).
func (v *vetter) checkSteps(c *Class) {
	var walk func(steps []compile.Step)
	walk = func(steps []compile.Step) {
		for _, s := range steps {
			switch s := s.(type) {
			case *compile.IfStep:
				if cv, ok := foldConst(s.CondSrc); ok && cv.Kind() == value.KindBool {
					if !cv.AsBool() {
						v.add(s.CondSrc.Position(), c.Name, DiagDeadCode,
							"condition is always false; the branch body is dead code")
					} else if len(s.Else) > 0 {
						v.add(s.CondSrc.Position(), c.Name, DiagDeadCode,
							"condition is always true; the else branch is dead code")
					}
				}
				walk(s.Then)
				walk(s.Else)
			case *compile.AccumStep:
				walk(s.Body)
				if s.Join != nil {
					walk(s.Join.Inner)
				}
			case *compile.AtomicStep:
				for _, src := range s.Srcs {
					cv, ok := foldConst(src)
					if !ok || cv.Kind() != value.KindBool {
						continue
					}
					if !cv.AsBool() {
						v.add(src.Position(), c.Name, DiagUnsatConstraint,
							"constraint is always false; the atomic block can never commit")
					} else {
						v.add(src.Position(), c.Name, DiagTrivialCons,
							"constraint is always true; it never rejects an admission")
					}
				}
				walk(s.Body)
			}
		}
	}
	for _, steps := range c.Plan.Phases {
		walk(steps)
	}
	for _, h := range c.Plan.Handlers {
		walk(h.Body)
	}
}

// checkJoins flags range dimensions bounded on only one side. A half-open
// range cannot anchor an interaction radius, so under partitioned
// execution the site falls back to a shared whole-extent index — every
// partition holds a full ghost replica of the source extent.
func (v *vetter) checkJoins(c *Class) {
	for _, j := range c.Joins {
		if j.Step.Src == nil {
			continue
		}
		for _, d := range j.HalfOpen {
			attr := ""
			if sc := v.r.Class(j.SourceClass); sc != nil {
				attr = sc.Plan.Class.State[j.Step.Join.Ranges[d].AttrIdx].Name
			}
			v.add(j.Step.Src.Pos, c.Name, DiagUnboundedJoin,
				"join range on %s.%s is bounded on one side only; the predicate cannot anchor an interaction radius and forces full ghost replication under partitioned execution",
				j.SourceClass, attr)
		}
	}
}

// checkNoncommFolds flags cross-object emissions into a non-exact float
// fold (sum/avg over numbers reassociate) of the emitter's own class when
// some other phase of that class would otherwise vectorize a self-emission
// into the same effect: the cross emission is exactly what pins that phase
// to the scalar path (analysis.Class.CrossSelf, Script.Pinned). A phase
// that itself both targets and self-emits the effect — the transfer idiom
// `gold <- -p; seller.gold <- p` — is not flagged here; `vet -perf` reports
// every pinned phase.
func (v *vetter) checkNoncommFolds(c *Class) {
	for _, s := range c.Phases {
		for _, e := range s.Emits {
			if !e.Targeted || e.Class != c.Name || e.AccumSlot >= 0 || e.InAtomic {
				continue
			}
			f := c.Folds[e.Attr]
			phases := slices.DeleteFunc(c.PinnedBy(e.Attr), func(p int) bool { return p == s.Phase })
			if f.Exact || len(phases) == 0 {
				continue
			}
			v.add(e.Pos, c.Name, DiagNoncommFold,
				"cross-object emission into %s.%s interleaves with vectorized self-emissions under a non-exact float fold (%s); %s of %s runs scalar to preserve bit-identical accumulation order",
				c.Name, c.Plan.Class.Effects[e.Attr].Name, f.Comb, phaseList(phases), c.Name)
		}
	}
}

// phaseList names phase indexes for a diagnostic: "phase 0", "phases 0, 2".
func phaseList(phases []int) string {
	s := fmt.Sprint(phases)
	if len(phases) == 1 {
		return "phase " + s[1:len(s)-1]
	}
	return "phases " + strings.ReplaceAll(s[1:len(s)-1], " ", ", ")
}

// checkDeadEffects flags effect attributes some script writes but no
// update rule or handler of the class ever reads: the accumulated value
// is folded and discarded every tick. Classes with component-owned state
// are skipped — their effects may be consumed by engine components the
// analysis cannot see.
func (v *vetter) checkDeadEffects(c *Class) {
	for _, a := range c.Plan.Class.State {
		if a.Owner != "" {
			return
		}
	}
	read := make([]bool, len(c.Plan.Class.Effects))
	mark := func(rs *ReadSet) {
		for _, ei := range rs.Effects {
			read[ei] = true
		}
	}
	for i := range c.Updates {
		mark(&c.Updates[i].Reads)
	}
	for _, s := range c.Handlers {
		mark(&s.Reads)
	}
	for _, s := range c.Phases {
		mark(&s.Reads)
	}
	// First writer position per effect, across all classes' scripts.
	firstWrite := make(map[int]token.Pos)
	for _, oc := range v.r.Classes {
		for _, s := range append(append([]*Script(nil), oc.Phases...), oc.Handlers...) {
			for _, e := range s.Emits {
				if e.Class != c.Name || e.AccumSlot >= 0 {
					continue
				}
				if _, seen := firstWrite[e.Attr]; !seen || lessPos(e.Pos, firstWrite[e.Attr]) {
					firstWrite[e.Attr] = e.Pos
				}
			}
		}
	}
	for ei, pos := range firstWrite {
		if read[ei] {
			continue
		}
		v.add(pos, c.Name, DiagDeadEffect,
			"effect %s.%s is written but no update rule or handler reads it; the folded value is discarded every tick",
			c.Name, c.Plan.Class.Effects[ei].Name)
	}
}

func lessPos(a, b token.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// foldConst evaluates an expression over literals only, with short-circuit
// semantics for && and || (a constant false operand makes the conjunction
// false regardless of the other side, and dually for disjunction).
func foldConst(e ast.Expr) (value.Value, bool) {
	switch e := e.(type) {
	case *ast.NumLit:
		return value.Num(e.V), true
	case *ast.BoolLit:
		return value.Bool(e.V), true
	case *ast.StrLit:
		return value.Str(e.V), true
	case *ast.UnaryExpr:
		x, ok := foldConst(e.X)
		if !ok {
			return value.Value{}, false
		}
		switch e.Op {
		case token.NOT:
			if x.Kind() == value.KindBool {
				return value.Bool(!x.AsBool()), true
			}
		case token.MINUS:
			if x.Kind() == value.KindNumber {
				return value.Num(-x.AsNumber()), true
			}
		}
		return value.Value{}, false
	case *ast.BinaryExpr:
		x, xok := foldConst(e.X)
		y, yok := foldConst(e.Y)
		switch e.Op {
		case token.ANDAND:
			if xok && x.Kind() == value.KindBool && !x.AsBool() {
				return value.Bool(false), true
			}
			if yok && y.Kind() == value.KindBool && !y.AsBool() {
				return value.Bool(false), true
			}
			if xok && yok && x.Kind() == value.KindBool && y.Kind() == value.KindBool {
				return value.Bool(x.AsBool() && y.AsBool()), true
			}
			return value.Value{}, false
		case token.OROR:
			if xok && x.Kind() == value.KindBool && x.AsBool() {
				return value.Bool(true), true
			}
			if yok && y.Kind() == value.KindBool && y.AsBool() {
				return value.Bool(true), true
			}
			if xok && yok && x.Kind() == value.KindBool && y.Kind() == value.KindBool {
				return value.Bool(x.AsBool() || y.AsBool()), true
			}
			return value.Value{}, false
		}
		if !xok || !yok {
			return value.Value{}, false
		}
		if x.Kind() == value.KindNumber && y.Kind() == value.KindNumber {
			a, b := x.AsNumber(), y.AsNumber()
			switch e.Op {
			case token.PLUS:
				return value.Num(a + b), true
			case token.MINUS:
				return value.Num(a - b), true
			case token.STAR:
				return value.Num(a * b), true
			case token.SLASH:
				return value.Num(a / b), true
			case token.PERCENT:
				return value.Num(math.Mod(a, b)), true
			case token.EQ:
				return value.Bool(a == b), true
			case token.NEQ:
				return value.Bool(a != b), true
			case token.LT:
				return value.Bool(a < b), true
			case token.LE:
				return value.Bool(a <= b), true
			case token.GT:
				return value.Bool(a > b), true
			case token.GE:
				return value.Bool(a >= b), true
			}
		}
		if x.Kind() == value.KindBool && y.Kind() == value.KindBool {
			switch e.Op {
			case token.EQ:
				return value.Bool(x.AsBool() == y.AsBool()), true
			case token.NEQ:
				return value.Bool(x.AsBool() != y.AsBool()), true
			}
		}
		return value.Value{}, false
	case *ast.CondExpr:
		c, ok := foldConst(e.C)
		if !ok || c.Kind() != value.KindBool {
			return value.Value{}, false
		}
		if c.AsBool() {
			return foldConst(e.T)
		}
		return foldConst(e.F)
	}
	return value.Value{}, false
}
