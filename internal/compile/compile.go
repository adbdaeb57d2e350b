// Package compile lowers type-checked SGL classes into executable tick
// plans. This is the paper's core move (§2): scripts that read like
// imperative per-NPC code become relational operations executed
// set-at-a-time —
//
//   - straight-line statements and conditionals become per-row projection
//     and selection work over the class extent;
//   - accum-loops become joins followed by grouped aggregation, and their
//     predicates are analyzed for rectangular-range and equality conjuncts
//     so the engine can execute them as index joins (§2.1, Fig. 2);
//   - waitNextTick splits the script into phases selected by a hidden
//     program-counter column (§3.2);
//   - atomic blocks become transaction intents handled by the transaction
//     update component (§3.1);
//   - `when` handlers become reactive rules evaluated after the update step.
package compile

import (
	"fmt"

	"repro/internal/combinator"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/sem"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// Program is a fully compiled SGL compilation unit.
type Program struct {
	Info    *sem.Info
	Classes map[string]*ClassPlan
}

// ClassPlan is the executable plan for one class.
type ClassPlan struct {
	Class *schema.Class
	Decl  *ast.ClassDecl

	NumSlots  int
	NumPhases int
	Phases    [][]Step // one step list per waitNextTick phase

	Handlers []HandlerPlan
	Updates  []UpdatePlan      // expression update rules
	OwnedBy  map[string]string // state attr -> owning update component
}

// UpdatePlan is one expression update rule: state[AttrIdx] = Fn(old state,
// combined effects).
type UpdatePlan struct {
	AttrIdx int
	Fn      expr.Fn
	Src     *ast.UpdateRule
}

// HandlerPlan is a compiled reactive handler.
type HandlerPlan struct {
	Cond expr.Fn
	Body []Step
	Src  *ast.Handler
}

// Step is one executable statement operating on the current row's context.
type Step interface{ step() }

// LetStep evaluates an expression into a frame slot.
type LetStep struct {
	Slot int
	Fn   expr.Fn
	Src  ast.Expr // type-checked source, for alternative evaluators
}

// IfStep branches on a boolean expression.
type IfStep struct {
	Cond    expr.Fn
	CondSrc ast.Expr // type-checked source, for alternative evaluators
	Then    []Step
	Else    []Step
}

// EmitStep contributes a value to an effect attribute (or to an enclosing
// accum accumulator when AccumSlot >= 0). The *Src fields retain the
// type-checked expressions so alternative evaluators (the vectorized batch
// path) can recompile them; Pos is the source position of the emission,
// retained for analysis diagnostics.
type EmitStep struct {
	TargetFn  expr.Fn // nil = self
	Class     string
	AttrIdx   int
	ValFn     expr.Fn
	KeyFn     expr.Fn // non-nil for minby/maxby
	SetInsert bool
	AccumSlot int // >= 0: contribution to the accum accumulator in that slot

	ValSrc ast.Expr
	KeySrc ast.Expr
	Pos    token.Pos
}

// AtomicStep wraps body emissions into a transaction intent with
// constraints checked during the update step.
type AtomicStep struct {
	Constraints []expr.Fn
	Srcs        []ast.Expr
	Body        []Step
	Src         *ast.AtomicStmt // source statement, for analysis diagnostics
}

// AccumStep is a compiled accum-loop: a θ-join between the executing row
// and a source collection, aggregated per executing row.
type AccumStep struct {
	Slot     int
	Comb     combinator.Kind
	ValKind  value.Kind
	IterSlot int

	SourceClass string
	SourceFn    expr.Fn // nil = the full class extent; else a set<ref> expression

	// Body is the general-form loop body (always valid to execute).
	Body []Step

	// Join, when non-nil, is the analyzed accelerable form: Body matched
	// `if (pred) { contributions }` and pred decomposed into
	// index-servable conjuncts plus a residual.
	Join *JoinSpec

	// Src is the source accum statement, for analysis diagnostics.
	Src *ast.AccumStmt
}

// JoinSpec is the index-accelerable decomposition of an accum predicate.
type JoinSpec struct {
	Ranges   []RangeDim // rectangular conjuncts on iter numeric attrs
	Eqs      []EqDim    // equality conjuncts on iter scalar attrs
	Residual expr.Fn    // leftover predicate (iter bound); nil if none
	// ResidualSrcs are the type-checked residual conjuncts behind Residual,
	// retained so the batched join driver can recompile them as vectorized
	// filters over gathered candidate lanes.
	ResidualSrcs []ast.Expr
	Inner        []Step // contribution steps guarded by the predicate
}

// RangeDim bounds one numeric attribute of the iterated class. Lo and Hi
// are evaluated in the executing row's scope (they never reference the
// iteration variable); multiple bounds are intersected. Nil entries mean
// unbounded.
type RangeDim struct {
	AttrIdx int
	Lo      []expr.Fn
	Hi      []expr.Fn
	// LoSrcs and HiSrcs are the type-checked bound expressions behind Lo
	// and Hi, retained so the batched join driver can recompile them as
	// kernels over a batch of probing rows.
	LoSrcs []ast.Expr
	HiSrcs []ast.Expr
	// SelfOnly reports that every bound reads only the executing row's own
	// state attributes and constants — no let-bound locals — so it may be
	// evaluated outside the row's step sequence with an empty frame. The
	// partitioned executor depends on this when it derives ghost margins
	// from the probe boxes at tick start; a dimension whose bounds need
	// frame slots is treated as unbounded there.
	SelfOnly bool
}

// EqDim equates one scalar attribute of the iterated class with an
// executing-row expression, enabling hash joins.
type EqDim struct {
	AttrIdx int
	Key     expr.Fn
}

func (*LetStep) step()    {}
func (*IfStep) step()     {}
func (*EmitStep) step()   {}
func (*AtomicStep) step() {}
func (*AccumStep) step()  {}

// CompileChecked compiles a semantically analyzed program.
func CompileChecked(info *sem.Info) (*Program, error) {
	p := &Program{Info: info, Classes: make(map[string]*ClassPlan)}
	for _, cd := range info.Program.Classes {
		cls, _ := info.Schema.Class(cd.Name)
		cp, err := compileClass(info, cd, cls)
		if err != nil {
			return nil, err
		}
		p.Classes[cd.Name] = cp
	}
	return p, nil
}

func compileClass(info *sem.Info, cd *ast.ClassDecl, cls *schema.Class) (*ClassPlan, error) {
	cp := &ClassPlan{
		Class:     cls,
		Decl:      cd,
		NumSlots:  cd.NumSlots,
		NumPhases: cd.NumPhases,
		OwnedBy:   make(map[string]string),
	}
	for _, s := range cd.States {
		if s.Owner != "" {
			cp.OwnedBy[s.Name] = s.Owner
		}
	}
	for _, r := range cd.Updates {
		cp.Updates = append(cp.Updates, UpdatePlan{
			AttrIdx: cls.StateIndex(r.Attr),
			Fn:      expr.Compile(r.Expr),
			Src:     r,
		})
	}
	for _, h := range cd.Handlers {
		cp.Handlers = append(cp.Handlers, HandlerPlan{
			Cond: expr.Compile(h.Cond),
			Body: compileBlockStmts(info, h.Body.Stmts),
			Src:  h,
		})
	}
	// Split the run block into phases at top-level waitNextTick statements.
	cp.Phases = make([][]Step, cp.NumPhases)
	if cd.Run != nil {
		phase := 0
		var cur []ast.Stmt
		flush := func() {
			cp.Phases[phase] = compileBlockStmts(info, cur)
			cur = nil
		}
		for _, s := range cd.Run.Stmts {
			if _, ok := s.(*ast.WaitStmt); ok {
				flush()
				phase++
				continue
			}
			cur = append(cur, s)
		}
		flush()
	}
	return cp, nil
}

func compileBlockStmts(info *sem.Info, stmts []ast.Stmt) []Step {
	var out []Step
	for _, s := range stmts {
		out = append(out, compileStmt(info, s)...)
	}
	return out
}

func compileStmt(info *sem.Info, s ast.Stmt) []Step {
	switch s := s.(type) {
	case *ast.LetStmt:
		return []Step{&LetStep{Slot: s.Slot, Fn: expr.Compile(s.Expr), Src: s.Expr}}
	case *ast.IfStmt:
		st := &IfStep{Cond: expr.Compile(s.Cond), CondSrc: s.Cond, Then: compileBlockStmts(info, s.Then.Stmts)}
		if s.Else != nil {
			st.Else = compileBlockStmts(info, s.Else.Stmts)
		}
		return []Step{st}
	case *ast.EffectAssign:
		st := &EmitStep{
			Class:     s.TargetClass,
			AttrIdx:   s.AttrIdx,
			ValFn:     expr.Compile(s.Value),
			ValSrc:    s.Value,
			SetInsert: s.SetInsert,
			AccumSlot: s.AccumSlot,
			Pos:       s.Pos,
		}
		if s.Target != nil {
			st.TargetFn = expr.Compile(s.Target)
		}
		if s.Key != nil {
			st.KeyFn = expr.Compile(s.Key)
			st.KeySrc = s.Key
		}
		return []Step{st}
	case *ast.AtomicStmt:
		st := &AtomicStep{Body: compileBlockStmts(info, s.Body.Stmts), Srcs: s.Constraints, Src: s}
		for _, c := range s.Constraints {
			st.Constraints = append(st.Constraints, expr.Compile(c))
		}
		return []Step{st}
	case *ast.AccumStmt:
		return compileAccum(info, s)
	case *ast.WaitStmt:
		// Non-top-level waits are rejected by sem; ignore defensively.
		return nil
	default:
		panic(fmt.Sprintf("compile: unknown statement %T", s))
	}
}

func compileAccum(info *sem.Info, s *ast.AccumStmt) []Step {
	comb, _ := combinator.Parse(s.Comb)
	st := &AccumStep{
		Slot:        s.Slot,
		Comb:        comb,
		ValKind:     s.ValType.Kind,
		IterSlot:    s.IterSlot,
		SourceClass: s.IterClass,
		Body:        compileBlockStmts(info, s.Body.Stmts),
		Src:         s,
	}
	if id, ok := s.Source.(*ast.Ident); !ok || id.Bind.Kind != ast.BindExtent {
		st.SourceFn = expr.Compile(s.Source)
	}
	st.Join = analyzeJoin(info, s)
	steps := []Step{st}
	// The `in` block executes after combination, with the accumulator
	// readable in its slot.
	steps = append(steps, compileBlockStmts(info, s.In.Stmts)...)
	return steps
}

// analyzeJoin recognizes the accelerable pattern: a body that is a single
// `if (pred) { contributions }` (with no else), or unconditional
// contributions. It splits pred's conjuncts into rectangular ranges and
// equalities over iter state attributes versus residual predicates.
func analyzeJoin(info *sem.Info, s *ast.AccumStmt) *JoinSpec {
	iterCls, ok := info.Schema.Class(s.IterClass)
	if !ok {
		return nil
	}
	var pred ast.Expr
	var innerStmts []ast.Stmt
	switch {
	case len(s.Body.Stmts) == 1:
		if ifs, ok := s.Body.Stmts[0].(*ast.IfStmt); ok && ifs.Else == nil {
			pred = ifs.Cond
			innerStmts = ifs.Then.Stmts
		} else {
			innerStmts = s.Body.Stmts
		}
	default:
		innerStmts = s.Body.Stmts
	}
	spec := &JoinSpec{Inner: compileBlockStmts(info, innerStmts)}
	if pred == nil {
		return spec // pure cross join; still executable, no index help
	}
	conjuncts := splitAnd(pred)
	var residual []ast.Expr
	ranges := make(map[int]*RangeDim)
	for _, c := range conjuncts {
		if !classifyConjunct(c, s.IterSlot, iterCls, spec, ranges) {
			residual = append(residual, c)
		}
	}
	for _, rd := range ranges {
		spec.Ranges = append(spec.Ranges, *rd)
	}
	// Deterministic dimension order (by attribute index).
	for i := 1; i < len(spec.Ranges); i++ {
		for j := i; j > 0 && spec.Ranges[j].AttrIdx < spec.Ranges[j-1].AttrIdx; j-- {
			spec.Ranges[j], spec.Ranges[j-1] = spec.Ranges[j-1], spec.Ranges[j]
		}
	}
	if len(residual) > 0 {
		spec.Residual = compileConjunction(residual)
		spec.ResidualSrcs = residual
	}
	return spec
}

func splitAnd(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ANDAND {
		return append(splitAnd(b.X), splitAnd(b.Y)...)
	}
	return []ast.Expr{e}
}

func compileConjunction(es []ast.Expr) expr.Fn {
	fns := make([]expr.Fn, len(es))
	for i, e := range es {
		fns[i] = expr.Compile(e)
	}
	return func(ctx *expr.Ctx) value.Value {
		for _, f := range fns {
			if !f(ctx).AsBool() {
				return value.Bool(false)
			}
		}
		return value.Bool(true)
	}
}

// classifyConjunct routes one conjunct into spec (ranges or eqs). Returns
// false if the conjunct must stay in the residual.
func classifyConjunct(c ast.Expr, iterSlot int, iterCls *schema.Class, spec *JoinSpec, ranges map[int]*RangeDim) bool {
	b, ok := c.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	// Identify `iter.attr OP e` or `e OP iter.attr` with e iter-free.
	attrIdx, other, flipped := -1, ast.Expr(nil), false
	if ai := iterAttr(b.X, iterSlot); ai >= 0 && !refsSlot(b.Y, iterSlot) {
		attrIdx, other = ai, b.Y
	} else if ai := iterAttr(b.Y, iterSlot); ai >= 0 && !refsSlot(b.X, iterSlot) {
		attrIdx, other, flipped = ai, b.X, true
	} else {
		return false
	}
	attr := iterCls.State[attrIdx]
	op := b.Op
	if flipped {
		switch op {
		case token.LT:
			op = token.GT
		case token.LE:
			op = token.GE
		case token.GT:
			op = token.LT
		case token.GE:
			op = token.LE
		}
	}
	switch op {
	case token.EQ:
		if attr.Kind == value.KindSet {
			return false
		}
		spec.Eqs = append(spec.Eqs, EqDim{AttrIdx: attrIdx, Key: expr.Compile(other)})
		return true
	case token.LE, token.GE:
		if attr.Kind != value.KindNumber {
			return false
		}
		rd := ranges[attrIdx]
		if rd == nil {
			rd = &RangeDim{AttrIdx: attrIdx, SelfOnly: true}
			ranges[attrIdx] = rd
		}
		rd.SelfOnly = rd.SelfOnly && selfOnlyExpr(other)
		if op == token.GE { // iter.attr >= e  → lower bound
			rd.Lo = append(rd.Lo, expr.Compile(other))
			rd.LoSrcs = append(rd.LoSrcs, other)
		} else {
			rd.Hi = append(rd.Hi, expr.Compile(other))
			rd.HiSrcs = append(rd.HiSrcs, other)
		}
		return true
	default:
		// Strict < and > stay in the residual for exact float semantics.
		return false
	}
}

// iterAttr returns the state-attribute index when e is `iterVar.attr`,
// else -1.
func iterAttr(e ast.Expr, iterSlot int) int {
	f, ok := e.(*ast.FieldExpr)
	if !ok {
		return -1
	}
	id, ok := f.X.(*ast.Ident)
	if !ok {
		return -1
	}
	if (id.Bind.Kind == ast.BindIter || id.Bind.Kind == ast.BindLocal) && id.Bind.Slot == iterSlot {
		return f.AttrIdx
	}
	return -1
}

// selfOnlyExpr reports whether e reads only executing-row state, effect-free
// builtins and literals — nothing bound to a frame slot — so it can be
// evaluated with an empty frame (see RangeDim.SelfOnly).
func selfOnlyExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Bind.Kind != ast.BindLocal && e.Bind.Kind != ast.BindIter
	case *ast.FieldExpr:
		return selfOnlyExpr(e.X)
	case *ast.UnaryExpr:
		return selfOnlyExpr(e.X)
	case *ast.BinaryExpr:
		return selfOnlyExpr(e.X) && selfOnlyExpr(e.Y)
	case *ast.CondExpr:
		return selfOnlyExpr(e.C) && selfOnlyExpr(e.T) && selfOnlyExpr(e.F)
	case *ast.CallExpr:
		for _, a := range e.Args {
			if !selfOnlyExpr(a) {
				return false
			}
		}
		return true
	default: // literals
		return true
	}
}

// refsSlot reports whether e references the given frame slot.
func refsSlot(e ast.Expr, slot int) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return (e.Bind.Kind == ast.BindLocal || e.Bind.Kind == ast.BindIter) && e.Bind.Slot == slot
	case *ast.FieldExpr:
		return refsSlot(e.X, slot)
	case *ast.UnaryExpr:
		return refsSlot(e.X, slot)
	case *ast.BinaryExpr:
		return refsSlot(e.X, slot) || refsSlot(e.Y, slot)
	case *ast.CondExpr:
		return refsSlot(e.C, slot) || refsSlot(e.T, slot) || refsSlot(e.F, slot)
	case *ast.CallExpr:
		for _, a := range e.Args {
			if refsSlot(a, slot) {
				return true
			}
		}
	}
	return false
}

// Compile parses, checks and compiles SGL source in one call.
func Compile(info *sem.Info) (*Program, error) { return CompileChecked(info) }
