package vexpr

import (
	"testing"

	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
)

// White-box tests for the optimization pipeline: superinstruction fusion
// shapes, invariant hoisting, and the closure chain every program runs as.

func numCol(attr int) *ast.Ident {
	return &ast.Ident{Name: "n", Bind: ast.Binding{Kind: ast.BindStateAttr, AttrIdx: attr}, Ty: ast.NumberT}
}

func boolCol(attr int) *ast.Ident {
	return &ast.Ident{Name: "b", Bind: ast.Binding{Kind: ast.BindStateAttr, AttrIdx: attr}, Ty: ast.BoolT}
}

func mustCompile(t *testing.T, e ast.Expr) *Prog {
	t.Helper()
	p, ok := Compile(e)
	if !ok {
		t.Fatalf("expression must compile: %s", ast.ExprString(e))
	}
	return p
}

// outputOp returns the op of the program's output instruction, which the
// compiler keeps last so the chain's final closure can write it.
func outputOp(t *testing.T, p *Prog) op {
	t.Helper()
	if p.out != len(p.ins)-1 {
		t.Fatalf("output register %d is not the last of %d instructions", p.out, len(p.ins))
	}
	return p.ins[p.out].op
}

func TestFuseShapes(t *testing.T) {
	bin := func(op token.Kind, x, y ast.Expr, ty ast.Type) ast.Expr {
		return &ast.BinaryExpr{Op: op, X: x, Y: y, Ty: ty}
	}
	call := func(b ast.Builtin, args ...ast.Expr) ast.Expr {
		return &ast.CallExpr{Builtin: b, Args: args, Ty: ast.NumberT}
	}
	cases := []struct {
		name  string
		e     ast.Expr
		want  op
		fused int
	}{
		{"mul-add", bin(token.PLUS, bin(token.STAR, numCol(0), numCol(1), ast.NumberT), numCol(0), ast.NumberT), opMulAdd, 1},
		{"add-mul", bin(token.PLUS, numCol(0), bin(token.STAR, numCol(0), numCol(1), ast.NumberT), ast.NumberT), opMulAdd, 1},
		{"mul-sub", bin(token.MINUS, bin(token.STAR, numCol(0), numCol(1), ast.NumberT), numCol(0), ast.NumberT), opMulSub, 1},
		{"sub-mul", bin(token.STAR, bin(token.MINUS, numCol(0), numCol(1), ast.NumberT), numCol(0), ast.NumberT), opSubMul, 1},
		{"abs-diff", call(ast.BAbs, bin(token.MINUS, numCol(0), numCol(1), ast.NumberT)), opAbsDiff, 1},
		{"clamp", call(ast.BMin, call(ast.BMax, numCol(0), numCol(1)), numCol(0)), opClamp, 1},
		{"clamp-rev", call(ast.BMin, numCol(0), call(ast.BMax, numCol(0), numCol(1))), opClamp, 1},
		{"cmp-sel", &ast.CondExpr{C: bin(token.LT, numCol(0), numCol(1), ast.BoolT), T: numCol(0), F: numCol(1), Ty: ast.NumberT}, opCmpSel, 1},
		{"and3", bin(token.ANDAND, bin(token.ANDAND, boolCol(2), boolCol(2), ast.BoolT), boolCol(2), ast.BoolT), opAnd3, 1},
		{"and4", bin(token.ANDAND, bin(token.ANDAND, bin(token.ANDAND, boolCol(2), boolCol(2), ast.BoolT), boolCol(2), ast.BoolT), boolCol(2), ast.BoolT), opAnd4, 2},
		{"or4", bin(token.OROR, boolCol(2), bin(token.OROR, boolCol(2), bin(token.OROR, boolCol(2), boolCol(2), ast.BoolT), ast.BoolT), ast.BoolT), opOr4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustCompile(t, tc.e)
			if got := outputOp(t, p); got != tc.want {
				t.Fatalf("output op = %d, want %d (program: %v)", got, tc.want, p.ins)
			}
			if p.fused != tc.fused {
				t.Fatalf("fused = %d, want %d", p.fused, tc.fused)
			}
			if len(p.chain) != p.Kernels() || len(p.inv) != 0 {
				t.Fatalf("constant-free program: chain of %d closures, %d kernels, %d hoisted", len(p.chain), p.Kernels(), len(p.inv))
			}
		})
	}
}

// TestKernelsReflectsFusion pins the cost-model retargeting: Kernels must
// count per-batch operators after fusion and invariant hoisting, so plan
// costs price the fused fast path.
func TestKernelsReflectsFusion(t *testing.T) {
	// n0*n1 + 2 → load, load, [mul+add fused], const hoisted: 3 per-batch.
	e := &ast.BinaryExpr{Op: token.PLUS,
		X:  &ast.BinaryExpr{Op: token.STAR, X: numCol(0), Y: numCol(1), Ty: ast.NumberT},
		Y:  &ast.NumLit{V: 2},
		Ty: ast.NumberT,
	}
	p := mustCompile(t, e)
	if got := p.Kernels(); got != 3 {
		t.Fatalf("Kernels() = %d, want 3 (2 loads + 1 fused mul-add)", got)
	}
	if len(p.inv) != 1 {
		t.Fatalf("constant must be hoisted to the invariant partition, inv=%v", p.inv)
	}
	np, ok := CompileOpts(e, Opts{NoOpt: true})
	if !ok {
		t.Fatal("NoOpt compile failed")
	}
	if got := np.Kernels(); got != 5 {
		t.Fatalf("NoOpt Kernels() = %d, want 5", got)
	}
	if np.FusedOps() != 0 || len(np.inv) != 0 || len(np.chain) != len(np.ins) {
		t.Fatal("NoOpt program must stay unfused and run every instruction, constants included, per batch")
	}
}

// TestInvariantHoisting pins the satellite fix: constant/broadcast registers
// are materialized once per Run (constants only on program switch), never
// once per batch.
func TestInvariantHoisting(t *testing.T) {
	e := &ast.BinaryExpr{Op: token.PLUS, X: numCol(0), Y: &ast.NumLit{V: 5}, Ty: ast.NumberT}
	p := mustCompile(t, e)
	if len(p.inv) != 1 || p.inv[0].op != opConst {
		t.Fatalf("expected one hoisted constant, inv=%v", p.inv)
	}

	n := batchSize + 100 // cross a batch seam
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i)
	}
	env := &Env{Cols: [][]float64{col}}
	out := make([]float64, n)
	var m Machine
	p.Run(&m, env, 0, n, out)
	for i, got := range out {
		if got != float64(i)+5 {
			t.Fatalf("row %d: got %v, want %v", i, got, float64(i)+5)
		}
	}

	// Scribble on the constant's scratch lane: a back-to-back Run of the
	// same program must NOT refill it (that is the hoist), so the scribble
	// shows up in row 0 of the next result.
	constReg := p.inv[0].dst
	m.regs[constReg][0] = 99
	p.Run(&m, env, 0, n, out)
	if out[0] != 99 || out[1] != 1+5 {
		t.Fatalf("same-program rerun refilled the hoisted constant: out[0]=%v out[1]=%v", out[0], out[1])
	}

	// After another program used the machine, the per-program slab cache
	// swaps p's registers back verbatim — still no refill, so the scribble
	// survives the switch too (join sites alternate programs per batch;
	// refilling on every switch was the cost this cache removes).
	other := mustCompile(t, &ast.BinaryExpr{Op: token.STAR, X: numCol(0), Y: numCol(0), Ty: ast.NumberT})
	other.Run(&m, env, 0, n, out)
	p.Run(&m, env, 0, n, out)
	if out[0] != 99 || out[1] != 1+5 {
		t.Fatalf("program-switch rerun refilled the cached constant: out[0]=%v out[1]=%v", out[0], out[1])
	}

	// Only losing the cached slab (eviction under synthetic many-program
	// loads) forces re-materialization.
	m.states = nil
	m.lastProg = nil
	p.Run(&m, env, 0, n, out)
	for i, got := range out {
		if got != float64(i)+5 {
			t.Fatalf("post-eviction rerun row %d: got %v, want %v", i, got, float64(i)+5)
		}
	}
}

// TestInvariantOnlyProgram covers programs whose output is itself
// batch-invariant (a bare literal): the constant stays in the chain as its
// only closure, unhoisted, and Run must still fill every row.
func TestInvariantOnlyProgram(t *testing.T) {
	p := mustCompile(t, &ast.NumLit{V: 7})
	if len(p.inv) != 0 || len(p.chain) != 1 || p.Kernels() != 0 {
		t.Fatalf("literal program must be one output closure and no kernels: inv=%v chain=%d kernels=%d", p.inv, len(p.chain), p.Kernels())
	}
	n := batchSize + 33
	out := make([]float64, n)
	var m Machine
	p.Run(&m, &Env{}, 0, n, out)
	for i, got := range out {
		if got != 7 {
			t.Fatalf("row %d: got %v, want 7", i, got)
		}
	}
}
