// Package sem performs semantic analysis of parsed SGL programs: it builds
// the relational schema from class declarations, resolves every identifier,
// type-checks expressions, numbers waitNextTick phases, assigns local
// variable slots, and enforces the state-effect discipline (§2 of the
// paper): state is read-only within a tick, effects are write-only, accum
// accumulators are write-only in the loop body and read-only afterwards.
package sem

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/combinator"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// Info is the result of analysis: the derived schema plus the (mutated,
// annotated) program.
type Info struct {
	Program *ast.Program
	Schema  *schema.Schema
	// Combs maps class name -> effect attr index -> combinator kind.
	Combs map[string][]combinator.Kind
}

// Analyze checks prog and returns binding/type information. The AST is
// annotated in place.
func Analyze(prog *ast.Program) (*Info, error) {
	c := &checker{
		prog:  prog,
		sch:   schema.NewSchema(),
		combs: make(map[string][]combinator.Kind),
	}
	c.buildSchema()
	if len(c.errs) == 0 {
		if err := c.sch.Validate(); err != nil {
			c.errs = append(c.errs, err)
		}
	}
	if len(c.errs) == 0 {
		for _, cd := range prog.Classes {
			c.checkClass(cd)
		}
	}
	if len(c.errs) > 0 {
		msgs := make([]string, len(c.errs))
		for i, e := range c.errs {
			msgs[i] = e.Error()
		}
		return nil, errors.New(strings.Join(msgs, "\n"))
	}
	return &Info{Program: prog, Schema: c.sch, Combs: c.combs}, nil
}

// AnalyzeExpr resolves and type-checks a standalone expression in the
// context of a class's state attributes (no locals, no effect reads). It
// returns the expression's type. Engine-level tools (reactive interrupts,
// debugger watch conditions) use it to accept SGL syntax at runtime.
func (i *Info) AnalyzeExpr(class string, e ast.Expr) (ast.Type, error) {
	cls, ok := i.Schema.Class(class)
	if !ok {
		return ast.Type{}, fmt.Errorf("sem: unknown class %q", class)
	}
	c := &checker{prog: i.Program, sch: i.Schema, combs: i.Combs, cls: cls,
		iterSlots: make(map[int]bool)}
	for _, cd := range i.Program.Classes {
		if cd.Name == class {
			c.class = cd
		}
	}
	t := c.checkExpr(e)
	if len(c.errs) > 0 {
		msgs := make([]string, len(c.errs))
		for j, err := range c.errs {
			msgs[j] = err.Error()
		}
		return ast.Type{}, errors.New(strings.Join(msgs, "\n"))
	}
	return t, nil
}

type checker struct {
	prog  *ast.Program
	sch   *schema.Schema
	combs map[string][]combinator.Kind
	errs  []error

	// Per-class checking context.
	class *ast.ClassDecl
	cls   *schema.Class

	scopes    []map[string]*local // lexical scopes of frame locals
	nextSlot  int
	inAccum   int // nesting depth of accum bodies
	inAtomic  bool
	inHandler bool
	inUpdate  bool // update rules: effects readable, extents forbidden
	accumStk  []*accumCtx
	iterSlots map[int]bool
}

type local struct {
	slot     int
	ty       ast.Type
	readable bool // false for accum accumulators inside their body
}

type accumCtx struct {
	name string
	slot int
	comb combinator.Kind
	ty   ast.Type
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// astTypeToAttr converts an AST type into schema attribute fields.
func astTypeToAttr(t ast.Type) (kind value.Kind, refClass string, elemKind value.Kind, elemRef string) {
	kind = t.Kind
	refClass = t.RefClass
	if t.Kind == value.KindSet && t.Elem != nil {
		elemKind = t.Elem.Kind
		elemRef = t.Elem.RefClass
	}
	return
}

func (c *checker) buildSchema() {
	for _, cd := range c.prog.Classes {
		var states, effects []schema.Attr
		for _, s := range cd.States {
			k, rc, ek, er := astTypeToAttr(s.Type)
			a := schema.Attr{Name: s.Name, Kind: k, RefClass: rc, ElemKind: ek, ElemRef: er, Owner: s.Owner}
			if s.Init != nil {
				v, ok := constValue(s.Init)
				if !ok {
					c.errorf(s.Pos, "class %s: initializer of %s must be a literal", cd.Name, s.Name)
				} else if v.Kind() != k && !(k == value.KindRef && v.Kind() == value.KindRef) {
					c.errorf(s.Pos, "class %s: initializer of %s has type %s, want %s", cd.Name, s.Name, v.Kind(), k)
				} else {
					a.Default = v
				}
			}
			states = append(states, a)
		}
		var combs []combinator.Kind
		for _, e := range cd.Effects {
			k, rc, ek, er := astTypeToAttr(e.Type)
			comb, err := combinator.Parse(e.Comb)
			if err != nil {
				c.errorf(e.Pos, "class %s: effect %s: %v", cd.Name, e.Name, err)
				comb = combinator.Sum
			}
			effects = append(effects, schema.Attr{Name: e.Name, Kind: k, RefClass: rc, ElemKind: ek, ElemRef: er, Comb: comb})
			combs = append(combs, comb)
		}
		cls, err := schema.NewClass(cd.Name, states, effects)
		if err != nil {
			c.errorf(cd.Pos, "%v", err)
			continue
		}
		if err := c.sch.Add(cls); err != nil {
			c.errorf(cd.Pos, "%v", err)
			continue
		}
		c.combs[cd.Name] = combs
	}
}

// constValue evaluates literal expressions (including negated numbers) for
// state initializers.
func constValue(e ast.Expr) (value.Value, bool) {
	switch e := e.(type) {
	case *ast.NumLit:
		return value.Num(e.V), true
	case *ast.BoolLit:
		return value.Bool(e.V), true
	case *ast.StrLit:
		return value.Str(e.V), true
	case *ast.NullLit:
		return value.NullRef(), true
	case *ast.UnaryExpr:
		if e.Op == token.MINUS {
			if v, ok := constValue(e.X); ok && v.Kind() == value.KindNumber {
				return value.Num(-v.AsNumber()), true
			}
		}
	}
	return value.Value{}, false
}

func (c *checker) checkClass(cd *ast.ClassDecl) {
	cls, _ := c.sch.Class(cd.Name)
	if cls == nil {
		return
	}
	c.class, c.cls = cd, cls
	c.nextSlot = 0
	c.iterSlots = make(map[int]bool)

	// Update rules: each targets an unowned state attribute, at most once.
	c.inUpdate = true
	seen := make(map[string]bool)
	for _, r := range cd.Updates {
		a, ok := cls.StateAttr(r.Attr)
		if !ok {
			c.errorf(r.Pos, "update rule targets unknown state attribute %q", r.Attr)
			continue
		}
		if a.Owner != "" {
			c.errorf(r.Pos, "state attribute %q is owned by component %q and cannot have an expression update rule", r.Attr, a.Owner)
		}
		if seen[r.Attr] {
			c.errorf(r.Pos, "duplicate update rule for %q", r.Attr)
		}
		seen[r.Attr] = true
		t := c.checkExpr(r.Expr)
		want := ast.Type{Kind: a.Kind, RefClass: a.RefClass}
		if a.Kind == value.KindSet {
			el := ast.Type{Kind: a.ElemKind, RefClass: a.ElemRef}
			want = ast.SetT(el)
		}
		if !t.Equal(want) && t.Kind != value.KindInvalid {
			c.errorf(r.Pos, "update rule for %q computes %s, want %s", r.Attr, t, want)
		}
	}
	c.inUpdate = false

	// Run block: phase numbering + statement checks.
	if cd.Run != nil {
		c.pushScope()
		phase := 0
		for _, s := range cd.Run.Stmts {
			if w, ok := s.(*ast.WaitStmt); ok {
				phase++
				w.Phase = phase
				// Locals do not survive a tick boundary.
				c.scopes[len(c.scopes)-1] = make(map[string]*local)
				continue
			}
			c.checkStmt(s, true)
		}
		c.popScope()
		cd.NumPhases = phase + 1
	} else {
		cd.NumPhases = 1
	}

	// Handlers: condition over state, body without wait/accum/atomic.
	c.inHandler = true
	for _, h := range cd.Handlers {
		t := c.checkExpr(h.Cond)
		if t.Kind != value.KindBool && t.Kind != value.KindInvalid {
			c.errorf(h.Pos, "handler condition has type %s, want bool", t)
		}
		c.pushScope()
		for _, s := range h.Body.Stmts {
			c.checkStmt(s, false)
		}
		c.popScope()
	}
	c.inHandler = false

	cd.NumSlots = c.nextSlot
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*local)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) *local {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if l, ok := c.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (c *checker) declare(pos token.Pos, name string, ty ast.Type, readable bool) int {
	if c.lookupLocal(name) != nil {
		c.errorf(pos, "redeclared local %q", name)
	}
	if c.cls.StateIndex(name) >= 0 || c.cls.EffectIndex(name) >= 0 {
		c.errorf(pos, "local %q shadows a class attribute", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	c.scopes[len(c.scopes)-1][name] = &local{slot: slot, ty: ty, readable: readable}
	return slot
}

func (c *checker) checkStmt(s ast.Stmt, topLevel bool) {
	switch s := s.(type) {
	case *ast.LetStmt:
		t := c.checkExpr(s.Expr)
		s.Slot = c.declare(s.Pos, s.Name, t, true)
	case *ast.IfStmt:
		t := c.checkExpr(s.Cond)
		if t.Kind != value.KindBool && t.Kind != value.KindInvalid {
			c.errorf(s.Pos, "if condition has type %s, want bool", t)
		}
		c.pushScope()
		for _, st := range s.Then.Stmts {
			c.checkStmt(st, false)
		}
		c.popScope()
		if s.Else != nil {
			c.pushScope()
			for _, st := range s.Else.Stmts {
				c.checkStmt(st, false)
			}
			c.popScope()
		}
	case *ast.WaitStmt:
		if !topLevel {
			c.errorf(s.Pos, "waitNextTick is only allowed at the top level of the run block (not inside if, accum, atomic or handlers)")
		}
	case *ast.AtomicStmt:
		if c.inAtomic {
			c.errorf(s.Pos, "nested atomic blocks are not allowed")
		}
		if c.inAccum > 0 {
			c.errorf(s.Pos, "atomic is not allowed inside an accum body")
		}
		if c.inHandler {
			c.errorf(s.Pos, "atomic is not allowed inside handlers")
		}
		for _, cons := range s.Constraints {
			t := c.checkExpr(cons)
			if t.Kind != value.KindBool && t.Kind != value.KindInvalid {
				c.errorf(s.Pos, "atomic constraint has type %s, want bool", t)
			}
		}
		c.inAtomic = true
		c.pushScope()
		for _, st := range s.Body.Stmts {
			c.checkStmt(st, false)
		}
		c.popScope()
		c.inAtomic = false
	case *ast.AccumStmt:
		c.checkAccum(s)
	case *ast.EffectAssign:
		c.checkEffectAssign(s)
	}
}

func (c *checker) checkAccum(s *ast.AccumStmt) {
	if c.inAccum > 0 {
		c.errorf(s.Pos, "nested accum inside an accum body is not supported")
	}
	if c.inHandler {
		c.errorf(s.Pos, "accum is not allowed inside handlers")
	}
	comb, err := combinator.Parse(s.Comb)
	if err != nil {
		c.errorf(s.Pos, "accum: %v", err)
		comb = combinator.Sum
	}
	if !comb.Accepts(s.ValType.Kind) {
		c.errorf(s.Pos, "accum: combinator %s cannot combine %s", comb, s.ValType)
	}
	iterCls, ok := c.sch.Class(s.IterClass)
	if !ok {
		c.errorf(s.Pos, "accum: unknown class %q", s.IterClass)
		return
	}
	srcT := c.checkExpr(s.Source)
	switch {
	case srcT.Kind == value.KindSet && srcT.Elem != nil && srcT.Elem.Kind == value.KindRef:
		if srcT.Elem.RefClass != iterCls.Name {
			c.errorf(s.Pos, "accum: source elements are ref<%s>, iteration variable is %s", srcT.Elem.RefClass, iterCls.Name)
		}
	case srcT.Kind == value.KindInvalid:
	default:
		c.errorf(s.Pos, "accum: source has type %s, want a class extent or set<ref<%s>>", srcT, iterCls.Name)
	}

	// Result type after combination.
	resKind := comb.ResultKind(s.ValType.Kind)
	resT := s.ValType
	resT.Kind = resKind

	c.pushScope()
	s.Slot = c.declare(s.Pos, s.Name, resT, false) // write-only inside body
	s.IterSlot = c.declare(s.Pos, s.IterName, ast.RefT(iterCls.Name), true)
	c.iterSlots[s.IterSlot] = true
	c.accumStk = append(c.accumStk, &accumCtx{name: s.Name, slot: s.Slot, comb: comb, ty: s.ValType})
	c.inAccum++
	for _, st := range s.Body.Stmts {
		c.checkStmt(st, false)
	}
	c.inAccum--
	c.accumStk = c.accumStk[:len(c.accumStk)-1]
	c.popScope()

	// `in` block: accumulator readable, iteration variable out of scope.
	c.pushScope()
	c.scopes[len(c.scopes)-1][s.Name] = &local{slot: s.Slot, ty: resT, readable: true}
	for _, st := range s.In.Stmts {
		c.checkStmt(st, false)
	}
	c.popScope()
}

func (c *checker) checkEffectAssign(s *ast.EffectAssign) {
	s.AccumSlot = -1
	s.AttrIdx = -1
	vT := c.checkExpr(s.Value)
	if s.Key != nil {
		kT := c.checkExpr(s.Key)
		if kT.Kind != value.KindNumber && kT.Kind != value.KindInvalid {
			c.errorf(s.Pos, "`by` key has type %s, want number", kT)
		}
	}

	// Accum accumulator target?
	if s.Target == nil && len(c.accumStk) > 0 {
		top := c.accumStk[len(c.accumStk)-1]
		if top.name == s.Attr {
			s.AccumSlot = top.slot
			c.checkContribution(s, top.ty, top.comb, vT)
			return
		}
	}

	// Effect attribute target.
	targetCls := c.cls
	s.TargetClass = c.cls.Name
	if s.Target != nil {
		tT := c.checkExpr(s.Target)
		if tT.Kind == value.KindInvalid {
			return
		}
		if tT.Kind != value.KindRef {
			c.errorf(s.Pos, "effect-assignment target has type %s, want a ref", tT)
			return
		}
		tc, ok := c.sch.Class(tT.RefClass)
		if !ok {
			c.errorf(s.Pos, "unknown class %q", tT.RefClass)
			return
		}
		targetCls = tc
		s.TargetClass = tc.Name
	}
	idx := targetCls.EffectIndex(s.Attr)
	if idx < 0 {
		c.errorf(s.Pos, "class %s has no effect attribute %q (state attributes cannot be assigned during a tick)", targetCls.Name, s.Attr)
		return
	}
	s.AttrIdx = idx
	attr := targetCls.Effects[idx]
	if c.inAtomic {
		if c.inAccum > 0 {
			c.errorf(s.Pos, "effects written inside atomic cannot sit in an accum body: each write is one contribution of the intent, and a loop would repeat it")
		}
		switch attr.Comb {
		case combinator.Sum, combinator.Avg, combinator.Count:
		default:
			c.errorf(s.Pos, "effects written inside atomic must use an invertible combinator (sum/avg/count); %q uses %s", s.Attr, attr.Comb)
		}
	}
	attrT := ast.Type{Kind: attr.Kind, RefClass: attr.RefClass}
	if attr.Kind == value.KindSet {
		el := ast.Type{Kind: attr.ElemKind, RefClass: attr.ElemRef}
		attrT = ast.SetT(el)
	}
	c.checkContribution(s, attrT, attr.Comb, vT)
}

// checkContribution validates the value (and `by` key) against the target's
// declared type and combinator.
func (c *checker) checkContribution(s *ast.EffectAssign, attrT ast.Type, comb combinator.Kind, vT ast.Type) {
	if vT.Kind == value.KindInvalid {
		return
	}
	if s.SetInsert {
		if attrT.Kind != value.KindSet {
			c.errorf(s.Pos, "<= inserts into set effects; %q is %s", s.Attr, attrT)
			return
		}
		if comb != combinator.SetUnion {
			c.errorf(s.Pos, "<= requires the union combinator on %q", s.Attr)
		}
		if attrT.Elem != nil && !vT.Equal(*attrT.Elem) {
			c.errorf(s.Pos, "inserting %s into set<%s>", vT, attrT.Elem)
		}
		return
	}
	switch comb {
	case combinator.Count:
		// Payload ignored; anything scalar goes.
		if vT.Kind == value.KindSet {
			c.errorf(s.Pos, "count effect %q cannot take a set payload", s.Attr)
		}
	case combinator.MinBy, combinator.MaxBy:
		if s.Key == nil {
			c.errorf(s.Pos, "effect %q uses %s and requires a `by <key>` clause", s.Attr, comb)
		}
		if !vT.Equal(attrT) {
			c.errorf(s.Pos, "assigning %s to effect %q of type %s", vT, s.Attr, attrT)
		}
	default:
		if s.Key != nil {
			c.errorf(s.Pos, "`by` key is only valid for minby/maxby effects")
		}
		if !vT.Equal(attrT) {
			c.errorf(s.Pos, "assigning %s to effect %q of type %s", vT, s.Attr, attrT)
		}
	}
}

// invalidT marks expressions whose type could not be determined; errors are
// already reported.
var invalidT = ast.Type{Kind: value.KindInvalid}

func (c *checker) checkExpr(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.NumLit:
		return ast.NumberT
	case *ast.BoolLit:
		return ast.BoolT
	case *ast.StrLit:
		return ast.StringT
	case *ast.NullLit:
		// Type fixed by the comparison that uses it; default to a generic ref.
		if e.Ty.Kind == value.KindInvalid {
			e.Ty = ast.Type{Kind: value.KindRef}
		}
		return e.Ty
	case *ast.Ident:
		return c.checkIdent(e)
	case *ast.FieldExpr:
		return c.checkField(e)
	case *ast.UnaryExpr:
		t := c.checkExpr(e.X)
		switch e.Op {
		case token.MINUS:
			if t.Kind != value.KindNumber && t.Kind != value.KindInvalid {
				c.errorf(e.Pos, "operator - needs a number, got %s", t)
			}
			e.Ty = ast.NumberT
		case token.NOT:
			if t.Kind != value.KindBool && t.Kind != value.KindInvalid {
				c.errorf(e.Pos, "operator ! needs a bool, got %s", t)
			}
			e.Ty = ast.BoolT
		}
		return e.Ty
	case *ast.BinaryExpr:
		return c.checkBinary(e)
	case *ast.CondExpr:
		ct := c.checkExpr(e.C)
		if ct.Kind != value.KindBool && ct.Kind != value.KindInvalid {
			c.errorf(e.Pos, "?: condition has type %s, want bool", ct)
		}
		tt := c.checkExpr(e.T)
		ft := c.checkExpr(e.F)
		if !tt.Equal(ft) && tt.Kind != value.KindInvalid && ft.Kind != value.KindInvalid {
			c.errorf(e.Pos, "?: branches have different types %s and %s", tt, ft)
		}
		e.Ty = tt
		return e.Ty
	case *ast.CallExpr:
		return c.checkCall(e)
	default:
		return invalidT
	}
}

func (c *checker) checkIdent(e *ast.Ident) ast.Type {
	// `self` keyword-like identifier.
	if e.Name == "self" {
		e.Bind = ast.Binding{Kind: ast.BindSelf}
		e.Ty = ast.RefT(c.cls.Name)
		return e.Ty
	}
	if l := c.lookupLocal(e.Name); l != nil {
		if !l.readable {
			c.errorf(e.Pos, "accumulator %q is write-only inside the accum body", e.Name)
		}
		kind := ast.BindLocal
		if l.ty.Kind == value.KindRef && c.isIterSlot(l.slot) {
			kind = ast.BindIter
		}
		e.Bind = ast.Binding{Kind: kind, Slot: l.slot, Class: l.ty.RefClass}
		e.Ty = l.ty
		return e.Ty
	}
	if i := c.cls.StateIndex(e.Name); i >= 0 {
		a := c.cls.State[i]
		e.Bind = ast.Binding{Kind: ast.BindStateAttr, AttrIdx: i}
		e.Ty = attrType(a)
		return e.Ty
	}
	if i := c.cls.EffectIndex(e.Name); i >= 0 {
		if !c.inUpdate {
			c.errorf(e.Pos, "effect attribute %q is write-only during a tick (readable only in update rules)", e.Name)
			return invalidT
		}
		a := c.cls.Effects[i]
		e.Bind = ast.Binding{Kind: ast.BindEffectAttr, AttrIdx: i}
		t := attrType(a)
		t.Kind = a.Comb.ResultKind(a.Kind)
		e.Ty = t
		return e.Ty
	}
	if _, ok := c.sch.Class(e.Name); ok {
		if c.inUpdate {
			c.errorf(e.Pos, "class extents cannot appear in update rules")
			return invalidT
		}
		e.Bind = ast.Binding{Kind: ast.BindExtent, Class: e.Name}
		e.Ty = ast.SetT(ast.RefT(e.Name))
		return e.Ty
	}
	c.errorf(e.Pos, "undefined name %q", e.Name)
	return invalidT
}

func (c *checker) isIterSlot(slot int) bool { return c.iterSlots[slot] }

func attrType(a schema.Attr) ast.Type {
	t := ast.Type{Kind: a.Kind, RefClass: a.RefClass}
	if a.Kind == value.KindSet {
		el := ast.Type{Kind: a.ElemKind, RefClass: a.ElemRef}
		t = ast.SetT(el)
	}
	return t
}

func (c *checker) checkField(e *ast.FieldExpr) ast.Type {
	xT := c.checkExpr(e.X)
	if xT.Kind == value.KindInvalid {
		return invalidT
	}
	if xT.Kind != value.KindRef {
		c.errorf(e.Pos, "field access on %s; only refs have attributes", xT)
		return invalidT
	}
	cls, ok := c.sch.Class(xT.RefClass)
	if !ok {
		c.errorf(e.Pos, "unknown class %q", xT.RefClass)
		return invalidT
	}
	i := cls.StateIndex(e.Name)
	if i < 0 {
		if cls.EffectIndex(e.Name) >= 0 {
			c.errorf(e.Pos, "effect attribute %s.%s is write-only (use `expr.%s <- v`)", cls.Name, e.Name, e.Name)
		} else {
			c.errorf(e.Pos, "class %s has no state attribute %q", cls.Name, e.Name)
		}
		return invalidT
	}
	e.Class = cls.Name
	e.AttrIdx = i
	e.Ty = attrType(cls.State[i])
	return e.Ty
}

func (c *checker) checkBinary(e *ast.BinaryExpr) ast.Type {
	xT := c.checkExpr(e.X)
	yT := c.checkExpr(e.Y)
	bad := xT.Kind == value.KindInvalid || yT.Kind == value.KindInvalid
	switch e.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if !bad && (xT.Kind != value.KindNumber || yT.Kind != value.KindNumber) {
			c.errorf(e.Pos, "operator %s needs numbers, got %s and %s", e.Op, xT, yT)
		}
		e.Ty = ast.NumberT
	case token.LT, token.LE, token.GT, token.GE:
		if !bad && (xT.Kind != yT.Kind || (xT.Kind != value.KindNumber && xT.Kind != value.KindString)) {
			c.errorf(e.Pos, "operator %s needs two numbers or two strings, got %s and %s", e.Op, xT, yT)
		}
		e.Ty = ast.BoolT
	case token.EQ, token.NEQ:
		// Fix null literal types from context.
		if n, ok := e.X.(*ast.NullLit); ok && yT.Kind == value.KindRef {
			n.Ty = yT
			xT = yT
		}
		if n, ok := e.Y.(*ast.NullLit); ok && xT.Kind == value.KindRef {
			n.Ty = xT
			yT = xT
		}
		if !bad && xT.Kind != yT.Kind {
			c.errorf(e.Pos, "comparing %s with %s", xT, yT)
		}
		if !bad && xT.Kind == value.KindSet {
			c.errorf(e.Pos, "sets are compared with size()/contains(), not ==")
		}
		e.Ty = ast.BoolT
	case token.ANDAND, token.OROR:
		if !bad && (xT.Kind != value.KindBool || yT.Kind != value.KindBool) {
			c.errorf(e.Pos, "operator %s needs bools, got %s and %s", e.Op, xT, yT)
		}
		e.Ty = ast.BoolT
	default:
		c.errorf(e.Pos, "unknown operator %s", e.Op)
		e.Ty = invalidT
	}
	return e.Ty
}

func (c *checker) checkCall(e *ast.CallExpr) ast.Type {
	b, ok := ast.BuiltinByName[e.Name]
	if !ok {
		c.errorf(e.Pos, "unknown function %q", e.Name)
		return invalidT
	}
	e.Builtin = b
	argT := make([]ast.Type, len(e.Args))
	for i, a := range e.Args {
		argT[i] = c.checkExpr(a)
	}
	needNums := func(n int) bool {
		if len(e.Args) != n {
			c.errorf(e.Pos, "%s takes %d arguments, got %d", e.Name, n, len(e.Args))
			return false
		}
		for i, t := range argT {
			if t.Kind != value.KindNumber && t.Kind != value.KindInvalid {
				c.errorf(e.Pos, "%s: argument %d has type %s, want number", e.Name, i+1, t)
				return false
			}
		}
		return true
	}
	switch b {
	case ast.BAbs, ast.BFloor, ast.BCeil, ast.BSqrt:
		needNums(1)
		e.Ty = ast.NumberT
	case ast.BMin, ast.BMax:
		needNums(2)
		e.Ty = ast.NumberT
	case ast.BClamp:
		needNums(3)
		e.Ty = ast.NumberT
	case ast.BDist:
		needNums(4)
		e.Ty = ast.NumberT
	case ast.BSize:
		if len(e.Args) != 1 {
			c.errorf(e.Pos, "size takes 1 argument")
		} else if argT[0].Kind != value.KindSet && argT[0].Kind != value.KindInvalid {
			c.errorf(e.Pos, "size: argument has type %s, want a set", argT[0])
		}
		e.Ty = ast.NumberT
	case ast.BContains:
		if len(e.Args) != 2 {
			c.errorf(e.Pos, "contains takes 2 arguments")
		} else if argT[0].Kind == value.KindSet && argT[0].Elem != nil &&
			argT[1].Kind != value.KindInvalid && !argT[1].Equal(*argT[0].Elem) {
			c.errorf(e.Pos, "contains: element type %s does not match set<%s>", argT[1], argT[0].Elem)
		} else if argT[0].Kind != value.KindSet && argT[0].Kind != value.KindInvalid {
			c.errorf(e.Pos, "contains: first argument has type %s, want a set", argT[0])
		}
		e.Ty = ast.BoolT
	case ast.BID:
		if len(e.Args) != 1 {
			c.errorf(e.Pos, "id takes 1 argument")
		} else if argT[0].Kind != value.KindRef && argT[0].Kind != value.KindInvalid {
			c.errorf(e.Pos, "id: argument has type %s, want a ref", argT[0])
		}
		e.Ty = ast.NumberT
	case ast.BSelfFn:
		if len(e.Args) != 0 {
			c.errorf(e.Pos, "self takes no arguments")
		}
		e.Ty = ast.RefT(c.cls.Name)
	default:
		e.Ty = invalidT
	}
	return e.Ty
}
