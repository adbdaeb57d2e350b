package views

// Predicate compilation. Ten thousand subscriptions that differ only in
// thresholds ("hp < 20", "hp < 35", ...) must not cost ten thousand vexpr
// programs: the per-machine register-slab cache is bounded (64 programs),
// so distinct programs per subscription would re-carve slabs — and
// allocate — on every tick. Canonicalization rewrites every numeric
// literal into a frame-slot read (ast.BindLocal) and keys the compiled
// kernel on the predicate's structural shape; same-shape subscriptions
// share one program and feed their constants through Env.Slots lanes the
// registry fills per subscription. String/bool/null literals stay inline
// (string codes are compile-time dictionary lookups, so they key by
// value).

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/expr"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// compilePred canonicalizes a sem-checked predicate into the
// subscription's constants and points it at the shared shape for its
// canonical key, analyzing and compiling the shape on first sight: a
// subscription retains only its constants, never an AST or analysis of its
// own.
func (r *Registry) compilePred(s *Sub, class string, e ast.Expr) {
	c := &canonicalizer{}
	c.key.WriteString(class)
	c.key.WriteByte('|')
	pred := c.rewrite(e)
	s.consts = c.consts
	s.frame = make([]value.Value, len(c.consts))
	for i, v := range c.consts {
		s.frame[i] = value.Num(v)
	}
	if sh, ok := r.progCache[c.key.String()]; ok {
		s.sh = sh
		return
	}
	vp := analysis.AnalyzeViewPred(class, pred)
	s.sh = &predShape{key: c.key.String(), pred: pred, reads: vp.Reads, stable: vp.Stable, reasons: vp.Reasons}
	s.sh.compile(r, class)
}

// compile (re)compiles the shape's evaluator and caches the shape under its
// key — on first sight, and again on Attach (a restored world interns
// dictionary codes afresh, so compiled programs are stale). Unstable
// predicates rescan through the scalar closure: their cross-object reads
// resolve through the engine (expr.World), which a gathered kernel cannot
// do from outside the engine. Stable ones outside the kernel subset
// (ordered string compares, set probes) fall back to it per candidate.
func (sh *predShape) compile(r *Registry, class string) {
	r.progCache[sh.key] = sh
	sh.prog, sh.scalarFn = nil, nil
	if sh.stable {
		var dict vexpr.Dict
		if d := r.eng.ClassTable(class).Dict(); d != nil {
			dict = d
		}
		if prog, ok := vexpr.CompileOpts(sh.pred, vexpr.Opts{
			SlotOK: func(int) bool { return true },
			Dict:   dict,
		}); ok {
			sh.prog = prog
			return
		}
	}
	sh.scalarFn = expr.Compile(sh.pred)
}

// canonicalizer deep-copies an expression, replacing numeric literals with
// frame-slot reads and accumulating both the constant vector and the
// structural cache key.
type canonicalizer struct {
	consts []float64
	key    strings.Builder
}

// slotFor allocates the next frame slot for a numeric constant.
func (c *canonicalizer) slotFor(pos token.Pos, v float64) ast.Expr {
	slot := len(c.consts)
	c.consts = append(c.consts, v)
	c.key.WriteByte('$')
	return &ast.Ident{
		Pos:  pos,
		Name: fmt.Sprintf("$const%d", slot),
		Bind: ast.Binding{Kind: ast.BindLocal, Slot: slot},
		Ty:   ast.NumberT,
	}
}

func (c *canonicalizer) rewrite(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.NumLit:
		return c.slotFor(e.Pos, e.V)
	case *ast.BoolLit:
		fmt.Fprintf(&c.key, "B%v", e.V)
		return e
	case *ast.StrLit:
		fmt.Fprintf(&c.key, "S%q", e.V)
		return e
	case *ast.NullLit:
		c.key.WriteByte('N')
		return e
	case *ast.Ident:
		fmt.Fprintf(&c.key, "i%d.%d.%d;", e.Bind.Kind, e.Bind.AttrIdx, e.Bind.Slot)
		return e
	case *ast.FieldExpr:
		fmt.Fprintf(&c.key, "f%s.%d(", e.Class, e.AttrIdx)
		x := c.rewrite(e.X)
		c.key.WriteByte(')')
		cp := *e
		cp.X = x
		return &cp
	case *ast.UnaryExpr:
		// A negated literal is a constant like any other: folding it keeps
		// "x >= -5" and "x >= 5" one shape (one kernel, one index group).
		if lit, ok := e.X.(*ast.NumLit); ok && e.Op == token.MINUS {
			return c.slotFor(e.Pos, -lit.V)
		}
		fmt.Fprintf(&c.key, "u%d(", e.Op)
		x := c.rewrite(e.X)
		c.key.WriteByte(')')
		cp := *e
		cp.X = x
		return &cp
	case *ast.BinaryExpr:
		fmt.Fprintf(&c.key, "b%d(", e.Op)
		x := c.rewrite(e.X)
		c.key.WriteByte(',')
		y := c.rewrite(e.Y)
		c.key.WriteByte(')')
		cp := *e
		cp.X, cp.Y = x, y
		return &cp
	case *ast.CondExpr:
		c.key.WriteString("c(")
		cond := c.rewrite(e.C)
		c.key.WriteByte(',')
		t := c.rewrite(e.T)
		c.key.WriteByte(',')
		f := c.rewrite(e.F)
		c.key.WriteByte(')')
		cp := *e
		cp.C, cp.T, cp.F = cond, t, f
		return &cp
	case *ast.CallExpr:
		fmt.Fprintf(&c.key, "k%d(", e.Builtin)
		cp := *e
		cp.Args = make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			if i > 0 {
				c.key.WriteByte(',')
			}
			cp.Args[i] = c.rewrite(a)
		}
		c.key.WriteByte(')')
		return &cp
	default:
		// Unknown node: key by pointer identity so the shape never falsely
		// unifies; the kernel compiler will bail on it anyway.
		fmt.Fprintf(&c.key, "?%p", e)
		return e
	}
}
