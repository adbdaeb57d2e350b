package vexpr_test

import (
	"math/rand"
	"testing"

	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/vexpr"
)

// Kernel micro-benchmarks: BenchmarkVexpr* compares fused, invariant-hoisted
// programs against their NoOpt compiles (one closure per unfused instruction,
// constants refilled every batch) on the same expressions, so fusion regressions surface in the CI bench-smoke
// job (go test -bench BenchmarkVexpr -benchtime 100x ./internal/vexpr).

const benchRows = 64 * 1024

// benchExpr is an FMA-and-clamp-shaped chain the peephole pass collapses:
// clamp(n0*n1 + n0, 0, 100) → 3 loads + mul-add + clamp, constants hoisted.
func benchExpr() ast.Expr {
	mulAdd := &ast.BinaryExpr{Op: token.PLUS,
		X:  &ast.BinaryExpr{Op: token.STAR, X: xIdent(xAttrN0), Y: xIdent(xAttrN1), Ty: ast.NumberT},
		Y:  xIdent(xAttrN0),
		Ty: ast.NumberT,
	}
	return &ast.CallExpr{Name: "clamp", Builtin: ast.BClamp,
		Args: []ast.Expr{mulAdd, &ast.NumLit{V: 0}, &ast.NumLit{V: 100}}, Ty: ast.NumberT}
}

// benchMaskExpr is an accum-residual-shaped mask chain: three conjuncts over
// comparisons and a string predicate.
func benchMaskExpr() ast.Expr {
	and := func(x, y ast.Expr) ast.Expr {
		return &ast.BinaryExpr{Op: token.ANDAND, X: x, Y: y, Ty: ast.BoolT}
	}
	lt := &ast.BinaryExpr{Op: token.LT, X: xIdent(xAttrN0), Y: xIdent(xAttrN1), Ty: ast.BoolT}
	ge := &ast.BinaryExpr{Op: token.GE, X: xIdent(xAttrN1), Y: &ast.NumLit{V: -50}, Ty: ast.BoolT}
	neq := &ast.BinaryExpr{Op: token.NEQ, X: xIdent(xAttrS0), Y: &ast.StrLit{V: "red"}, Ty: ast.BoolT}
	return and(and(lt, ge), neq)
}

func benchRun(b *testing.B, e ast.Expr, o vexpr.Opts) {
	b.Helper()
	dict := newTestDict()
	o.Dict = dict
	prog, ok := vexpr.CompileOpts(e, o)
	if !ok {
		b.Fatalf("expression must compile: %s", ast.ExprString(e))
	}
	rng := rand.New(rand.NewSource(3))
	w := newXWorld(rng, benchRows, dict)
	env := &vexpr.Env{Cols: w.cols, IDs: w.ids, Gather: w.gather}
	out := make([]float64, benchRows)
	var m vexpr.Machine
	b.SetBytes(benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Run(&m, env, 0, benchRows, out)
	}
}

func BenchmarkVexprFusedArith(b *testing.B) {
	benchRun(b, benchExpr(), vexpr.Opts{})
}

func BenchmarkVexprUnfusedArith(b *testing.B) {
	benchRun(b, benchExpr(), vexpr.Opts{NoOpt: true})
}

func BenchmarkVexprFusedMask(b *testing.B) {
	benchRun(b, benchMaskExpr(), vexpr.Opts{})
}

func BenchmarkVexprUnfusedMask(b *testing.B) {
	benchRun(b, benchMaskExpr(), vexpr.Opts{NoOpt: true})
}

// BenchmarkVexprConstHoist* pins the satellite fix: constants and broadcasts
// are materialized once per Run, not once per batch. The constant-heavy
// program makes per-batch refill cost visible.
func benchConstExpr() ast.Expr {
	e := ast.Expr(xIdent(xAttrN0))
	for i := 0; i < 6; i++ {
		e = &ast.BinaryExpr{Op: token.PLUS, X: e, Y: &ast.NumLit{V: float64(i)}, Ty: ast.NumberT}
	}
	return e
}

func BenchmarkVexprConstHoist(b *testing.B) {
	benchRun(b, benchConstExpr(), vexpr.Opts{})
}

func BenchmarkVexprConstRefill(b *testing.B) {
	benchRun(b, benchConstExpr(), vexpr.Opts{NoOpt: true})
}

// BenchmarkVexprClamp is one clamp lane over a column whose values mostly
// lie inside the bounds, as a speed clamp's do: min/max must stay call-free
// (value.Min/value.Max inlined into the loop), so a non-inlinable edit to
// them shows here as a slowdown.
func BenchmarkVexprClamp(b *testing.B) {
	e := &ast.CallExpr{Name: "clamp", Builtin: ast.BClamp,
		Args: []ast.Expr{xIdent(xAttrN0), &ast.NumLit{V: -60}, &ast.NumLit{V: 60}}, Ty: ast.NumberT}
	prog, ok := vexpr.CompileOpts(e, vexpr.Opts{Dict: newTestDict()})
	if !ok {
		b.Fatal("clamp must compile")
	}
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, len(xAttrKinds))
	cols[xAttrN0] = make([]float64, benchRows)
	for r := range cols[xAttrN0] {
		cols[xAttrN0][r] = rng.Float64()*128 - 64
	}
	env := &vexpr.Env{Cols: cols}
	out := make([]float64, benchRows)
	var m vexpr.Machine
	b.SetBytes(benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Run(&m, env, 0, benchRows, out)
	}
}
