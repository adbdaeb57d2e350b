// Package expr compiles type-checked SGL expressions into evaluation
// closures shared by the set-at-a-time engine, the transaction constraint
// checker, the reactive handler evaluator and the object-at-a-time baseline
// interpreter. One evaluator means the paper's two processing models can be
// compared on identical semantics.
//
// Evaluation is total: SGL has no runtime exceptions. Division follows IEEE
// (x/0 = ±Inf), reads through null or dangling references yield the zero
// value of the attribute type, and an effect attribute that received no
// contributions reads (in update rules) as the zero value of its combined
// kind.
package expr

import (
	"fmt"
	"math"

	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// RowReader provides fast access to the executing object's state attributes
// by index.
type RowReader interface {
	Attr(attrIdx int) value.Value
}

// World resolves cross-object reads. Implementations decide which snapshot
// is visible: the engine serves tick-start state during the query/effect
// phases, and tentative state during transaction admission.
type World interface {
	// StateValue reads a state attribute of any live object. The second
	// result is false for dangling or null references.
	StateValue(class string, id value.ID, attrIdx int) (value.Value, bool)
}

// EffectReader serves combined effect values during the update step.
type EffectReader interface {
	// EffectValue returns the ⊕-combined value of an effect attribute of
	// the executing object; ok is false when no contribution arrived.
	EffectValue(attrIdx int) (value.Value, bool)
}

// Ctx is the evaluation context for one object. Reuse a single Ctx across
// rows by mutating its fields; compiled closures never retain it.
type Ctx struct {
	W       World
	Class   string    // class of the executing object
	SelfID  value.ID  // id of the executing object
	Self    RowReader // state attributes of the executing object
	Frame   []value.Value
	Effects EffectReader // non-nil only while evaluating update rules

	// EffectKinds maps effect attr index to the zero value kind used when
	// reading an effect that received no contributions. Set by the engine
	// for update-rule evaluation.
	EffectZero func(attrIdx int) value.Value
}

// Fn is a compiled expression.
type Fn func(ctx *Ctx) value.Value

// Compile translates a type-checked expression into a closure. It panics on
// unresolved nodes, which indicates a semantic-analysis bug rather than a
// user error.
func Compile(e ast.Expr) Fn {
	switch e := e.(type) {
	case *ast.NumLit:
		v := value.Num(e.V)
		return func(*Ctx) value.Value { return v }
	case *ast.BoolLit:
		v := value.Bool(e.V)
		return func(*Ctx) value.Value { return v }
	case *ast.StrLit:
		v := value.Str(e.V)
		return func(*Ctx) value.Value { return v }
	case *ast.NullLit:
		return func(*Ctx) value.Value { return value.NullRef() }
	case *ast.Ident:
		return compileIdent(e)
	case *ast.FieldExpr:
		return compileField(e)
	case *ast.UnaryExpr:
		return compileUnary(e)
	case *ast.BinaryExpr:
		return compileBinary(e)
	case *ast.CondExpr:
		c, t, f := Compile(e.C), Compile(e.T), Compile(e.F)
		return func(ctx *Ctx) value.Value {
			if c(ctx).AsBool() {
				return t(ctx)
			}
			return f(ctx)
		}
	case *ast.CallExpr:
		return compileCall(e)
	default:
		panic(fmt.Sprintf("expr: cannot compile %T", e))
	}
}

func compileIdent(e *ast.Ident) Fn {
	switch e.Bind.Kind {
	case ast.BindStateAttr:
		idx := e.Bind.AttrIdx
		return func(ctx *Ctx) value.Value { return ctx.Self.Attr(idx) }
	case ast.BindLocal, ast.BindIter:
		slot := e.Bind.Slot
		return func(ctx *Ctx) value.Value { return ctx.Frame[slot] }
	case ast.BindSelf:
		return func(ctx *Ctx) value.Value { return value.Ref(ctx.SelfID) }
	case ast.BindEffectAttr:
		idx := e.Bind.AttrIdx
		return func(ctx *Ctx) value.Value {
			if v, ok := ctx.Effects.EffectValue(idx); ok {
				return v
			}
			return ctx.EffectZero(idx)
		}
	case ast.BindExtent:
		panic("expr: class extent used as a value (only valid as accum source)")
	default:
		panic(fmt.Sprintf("expr: unresolved identifier %q", e.Name))
	}
}

func compileField(e *ast.FieldExpr) Fn {
	x := Compile(e.X)
	class, idx := e.Class, e.AttrIdx
	zero := value.Zero(e.Ty.Kind)
	if e.Ty.Kind == value.KindRef {
		zero = value.NullRef()
	}
	return func(ctx *Ctx) value.Value {
		ref := x(ctx)
		if ref.IsNullRef() {
			return zero
		}
		if v, ok := ctx.W.StateValue(class, ref.AsRef(), idx); ok {
			return v
		}
		return zero
	}
}

func compileUnary(e *ast.UnaryExpr) Fn {
	x := Compile(e.X)
	switch e.Op {
	case token.MINUS:
		return func(ctx *Ctx) value.Value { return value.Num(-x(ctx).AsNumber()) }
	case token.NOT:
		return func(ctx *Ctx) value.Value { return value.Bool(!x(ctx).AsBool()) }
	default:
		panic("expr: unknown unary operator")
	}
}

func compileBinary(e *ast.BinaryExpr) Fn {
	x, y := Compile(e.X), Compile(e.Y)
	switch e.Op {
	case token.PLUS:
		return func(ctx *Ctx) value.Value { return value.Num(x(ctx).AsNumber() + y(ctx).AsNumber()) }
	case token.MINUS:
		return func(ctx *Ctx) value.Value { return value.Num(x(ctx).AsNumber() - y(ctx).AsNumber()) }
	case token.STAR:
		return func(ctx *Ctx) value.Value { return value.Num(x(ctx).AsNumber() * y(ctx).AsNumber()) }
	case token.SLASH:
		return func(ctx *Ctx) value.Value { return value.Num(x(ctx).AsNumber() / y(ctx).AsNumber()) }
	case token.PERCENT:
		return func(ctx *Ctx) value.Value { return value.Num(math.Mod(x(ctx).AsNumber(), y(ctx).AsNumber())) }
	case token.LT:
		return compileCompare(e, x, y, func(c int) bool { return c < 0 })
	case token.LE:
		return compileCompare(e, x, y, func(c int) bool { return c <= 0 })
	case token.GT:
		return compileCompare(e, x, y, func(c int) bool { return c > 0 })
	case token.GE:
		return compileCompare(e, x, y, func(c int) bool { return c >= 0 })
	case token.EQ:
		return func(ctx *Ctx) value.Value { return value.Bool(x(ctx).Equal(y(ctx))) }
	case token.NEQ:
		return func(ctx *Ctx) value.Value { return value.Bool(!x(ctx).Equal(y(ctx))) }
	case token.ANDAND:
		return func(ctx *Ctx) value.Value {
			if !x(ctx).AsBool() {
				return value.Bool(false)
			}
			return value.Bool(y(ctx).AsBool())
		}
	case token.OROR:
		return func(ctx *Ctx) value.Value {
			if x(ctx).AsBool() {
				return value.Bool(true)
			}
			return value.Bool(y(ctx).AsBool())
		}
	default:
		panic("expr: unknown binary operator")
	}
}

func compileCompare(e *ast.BinaryExpr, x, y Fn, ok func(int) bool) Fn {
	if e.X.Type().Kind == value.KindNumber {
		// Fast path avoiding Value.Compare's kind switch.
		switch e.Op {
		case token.LT:
			return func(ctx *Ctx) value.Value { return value.Bool(x(ctx).AsNumber() < y(ctx).AsNumber()) }
		case token.LE:
			return func(ctx *Ctx) value.Value { return value.Bool(x(ctx).AsNumber() <= y(ctx).AsNumber()) }
		case token.GT:
			return func(ctx *Ctx) value.Value { return value.Bool(x(ctx).AsNumber() > y(ctx).AsNumber()) }
		case token.GE:
			return func(ctx *Ctx) value.Value { return value.Bool(x(ctx).AsNumber() >= y(ctx).AsNumber()) }
		}
	}
	return func(ctx *Ctx) value.Value { return value.Bool(ok(x(ctx).Compare(y(ctx)))) }
}

func compileCall(e *ast.CallExpr) Fn {
	args := make([]Fn, len(e.Args))
	for i, a := range e.Args {
		args[i] = Compile(a)
	}
	switch e.Builtin {
	case ast.BAbs:
		return func(ctx *Ctx) value.Value { return value.Num(math.Abs(args[0](ctx).AsNumber())) }
	case ast.BMin:
		return func(ctx *Ctx) value.Value {
			return value.Num(value.Min(args[0](ctx).AsNumber(), args[1](ctx).AsNumber()))
		}
	case ast.BMax:
		return func(ctx *Ctx) value.Value {
			return value.Num(value.Max(args[0](ctx).AsNumber(), args[1](ctx).AsNumber()))
		}
	case ast.BFloor:
		return func(ctx *Ctx) value.Value { return value.Num(math.Floor(args[0](ctx).AsNumber())) }
	case ast.BCeil:
		return func(ctx *Ctx) value.Value { return value.Num(math.Ceil(args[0](ctx).AsNumber())) }
	case ast.BSqrt:
		return func(ctx *Ctx) value.Value { return value.Num(math.Sqrt(args[0](ctx).AsNumber())) }
	case ast.BClamp:
		return func(ctx *Ctx) value.Value {
			x := args[0](ctx).AsNumber()
			lo := args[1](ctx).AsNumber()
			hi := args[2](ctx).AsNumber()
			return value.Num(value.Min(value.Max(x, lo), hi))
		}
	case ast.BDist:
		return func(ctx *Ctx) value.Value {
			dx := args[0](ctx).AsNumber() - args[2](ctx).AsNumber()
			dy := args[1](ctx).AsNumber() - args[3](ctx).AsNumber()
			return value.Num(math.Hypot(dx, dy))
		}
	case ast.BSize:
		return func(ctx *Ctx) value.Value { return value.Num(float64(args[0](ctx).AsSet().Len())) }
	case ast.BContains:
		return func(ctx *Ctx) value.Value {
			return value.Bool(args[0](ctx).AsSet().Contains(args[1](ctx)))
		}
	case ast.BID:
		return func(ctx *Ctx) value.Value { return value.Num(float64(args[0](ctx).AsRef())) }
	case ast.BSelfFn:
		return func(ctx *Ctx) value.Value { return value.Ref(ctx.SelfID) }
	default:
		panic(fmt.Sprintf("expr: unknown builtin in call to %q", e.Name))
	}
}
