package vexpr_test

import (
	"testing"

	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/vexpr"
)

const iterSlot = 1

func iterVar() ast.Expr {
	return &ast.Ident{Name: "u", Bind: ast.Binding{Kind: ast.BindIter, Slot: iterSlot, Class: "C"}, Ty: ast.RefT("C")}
}

func iterField(attr int) ast.Expr {
	return &ast.FieldExpr{X: iterVar(), Name: "a", AttrIdx: attr, Class: "C", Ty: ast.NumberT}
}

// TestCompileAccumGatheredFold: `u.n0 * 2 + selfAttr` compiles with the iter
// field as a gathered column load and the probing-row attribute as a
// probe lane, and evaluates lane-for-lane.
func TestCompileAccumGatheredFold(t *testing.T) {
	e := &ast.BinaryExpr{
		Op: token.PLUS,
		X: &ast.BinaryExpr{Op: token.STAR, X: iterField(attrN0),
			Y: &ast.NumLit{V: 2}, Ty: ast.NumberT},
		Y:  &ast.Ident{Name: "s", Bind: ast.Binding{Kind: ast.BindStateAttr, AttrIdx: attrN1}, Ty: ast.NumberT},
		Ty: ast.NumberT,
	}
	prog, bcast, cols, ok := vexpr.CompileAccum(e, iterSlot)
	if !ok {
		t.Fatal("CompileAccum failed")
	}
	if len(cols) != 1 || cols[0] != attrN0 {
		t.Fatalf("cols = %v, want [%d]", cols, attrN0)
	}
	if len(bcast) != 1 || bcast[0] != (vexpr.BcastSrc{Kind: vexpr.BcastStateAttr, Idx: attrN1}) {
		t.Fatalf("bcast = %v", bcast)
	}
	if prog.NeedIDs() {
		t.Fatal("expression reads no candidate ids")
	}

	const k = 1500 // spans multiple batches
	lane := make([]float64, k)
	for i := range lane {
		lane[i] = float64(i%19) - 7
	}
	env := &vexpr.Env{
		Cols:  make([][]float64, 4),
		Slots: [][]float64{make([]float64, k)},
	}
	probe := env.Slots[0]
	for i := range probe {
		probe[i] = float64(i/100) + 0.25 // a new probe every 100 candidates
	}
	env.Cols[attrN0] = lane
	out := make([]float64, k)
	var m vexpr.Machine
	prog.Run(&m, env, 0, k, out)
	for i := range out {
		if want := lane[i]*2 + probe[i]; out[i] != want {
			t.Fatalf("lane %d: got %v, want %v", i, out[i], want)
		}
	}
}

// TestCompileAccumIterAsValue: the bare iteration variable evaluates to the
// candidate id lane.
func TestCompileAccumIterAsValue(t *testing.T) {
	prog, bcast, cols, ok := vexpr.CompileAccum(iterVar(), iterSlot)
	if !ok {
		t.Fatal("CompileAccum failed")
	}
	if !prog.NeedIDs() {
		t.Fatal("iter-as-value must need ids")
	}
	if len(cols) != 0 || len(bcast) != 0 {
		t.Fatalf("cols=%v bcast=%v, want empty", cols, bcast)
	}
	ids := []float64{5, 9, 2}
	env := &vexpr.Env{IDs: ids}
	out := make([]float64, len(ids))
	var m vexpr.Machine
	prog.Run(&m, env, 0, len(ids), out)
	for i := range ids {
		if out[i] != ids[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], ids[i])
		}
	}
}

// TestCompileAccumBailouts: reads the gathered fold cannot serve stay on the
// scalar path.
func TestCompileAccumBailouts(t *testing.T) {
	// Effect attrs are not readable in the effect phase.
	if _, _, _, ok := vexpr.CompileAccum(&ast.Ident{Name: "fx", Bind: ast.Binding{Kind: ast.BindEffectAttr, AttrIdx: 0}, Ty: ast.NumberT}, iterSlot); ok {
		t.Fatal("effect read must bail")
	}
	// A different iteration variable (outer accum) cannot be broadcast.
	other := &ast.Ident{Name: "v", Bind: ast.Binding{Kind: ast.BindIter, Slot: 3, Class: "C"}, Ty: ast.RefT("C")}
	if _, _, _, ok := vexpr.CompileAccum(&ast.FieldExpr{X: other, AttrIdx: attrN0, Class: "C", Ty: ast.NumberT}, iterSlot); ok {
		t.Fatal("outer iter read must bail")
	}
}

// TestCompileAccumLocalBroadcast: probing-row locals broadcast; a field read
// through a broadcast ref still gathers through Env.Gather.
func TestCompileAccumLocalBroadcast(t *testing.T) {
	local := &ast.Ident{Name: "l", Bind: ast.Binding{Kind: ast.BindLocal, Slot: 4}, Ty: ast.RefT("C")}
	e := &ast.FieldExpr{X: local, Name: "a", AttrIdx: attrN0, Class: "C", Ty: ast.NumberT}
	prog, bcast, cols, ok := vexpr.CompileAccum(e, iterSlot)
	if !ok {
		t.Fatal("CompileAccum failed")
	}
	if len(bcast) != 1 || bcast[0] != (vexpr.BcastSrc{Kind: vexpr.BcastSlot, Idx: 4}) {
		t.Fatalf("bcast = %v", bcast)
	}
	if len(cols) != 0 {
		t.Fatalf("cols = %v, want none (gathers via Env.Gather)", cols)
	}
	gathered := 0
	env := &vexpr.Env{
		Slots: [][]float64{{42, 42, 42}},
		Gather: func(class string, attrIdx int, refs, out []float64, zero float64) {
			gathered++
			for i, r := range refs {
				out[i] = r * 10
			}
			_ = class
			_ = attrIdx
			_ = zero
		},
	}
	out := make([]float64, 3)
	var m vexpr.Machine
	prog.Run(&m, env, 0, 3, out)
	if gathered == 0 {
		t.Fatal("Gather never called")
	}
	for i := range out {
		if out[i] != 420 {
			t.Fatalf("out[%d] = %v, want 420", i, out[i])
		}
	}
}
