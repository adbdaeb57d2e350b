package vexpr_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// The fuzz world: one class "C" with numeric, bool and ref state attributes
// stored as raw float64 columns, mirroring the engine's table layout.
const (
	attrN0 = 0 // number
	attrN1 = 1 // number
	attrB0 = 2 // bool
	attrR0 = 3 // ref<C>
)

var attrKinds = []value.Kind{value.KindNumber, value.KindNumber, value.KindBool, value.KindRef}

type world struct {
	cols  [][]float64 // per attr, per row
	ids   []float64   // row -> object id
	byID  map[value.ID]int
	fx    [][]float64 // per effect attr, per row (combined values)
	slots [][]float64
}

func newWorld(rng *rand.Rand, n int) *world {
	w := &world{byID: make(map[value.ID]int)}
	w.cols = make([][]float64, len(attrKinds))
	for a := range w.cols {
		w.cols[a] = make([]float64, n)
	}
	w.ids = make([]float64, n)
	for r := 0; r < n; r++ {
		id := value.ID(r + 1)
		w.ids[r] = float64(id)
		w.byID[id] = r
		w.cols[attrN0][r] = math.Trunc(rng.Float64()*200-100) / 4
		w.cols[attrN1][r] = math.Trunc(rng.Float64()*20-10) / 2
		w.cols[attrB0][r] = float64(rng.Intn(2))
		// Refs: mix of valid, null and dangling ids.
		switch rng.Intn(4) {
		case 0:
			w.cols[attrR0][r] = float64(value.NullID)
		case 1:
			w.cols[attrR0][r] = float64(n + 50) // dangling
		default:
			w.cols[attrR0][r] = float64(rng.Intn(n) + 1)
		}
	}
	w.fx = [][]float64{make([]float64, n)}
	for r := range w.fx[0] {
		w.fx[0][r] = math.Trunc(rng.Float64()*40-20) / 2
	}
	w.slots = [][]float64{make([]float64, n)}
	for r := range w.slots[0] {
		w.slots[0][r] = math.Trunc(rng.Float64() * 16)
	}
	return w
}

// scalar-side adapters

type rowReader struct {
	w   *world
	row int
}

func (r rowReader) Attr(i int) value.Value { return colValue(r.w, i, r.row) }

func colValue(w *world, attr, row int) value.Value {
	f := w.cols[attr][row]
	switch attrKinds[attr] {
	case value.KindBool:
		return value.Bool(f != 0)
	case value.KindRef:
		return value.Ref(value.ID(f))
	default:
		return value.Num(f)
	}
}

func (w *world) StateValue(class string, id value.ID, attrIdx int) (value.Value, bool) {
	row, ok := w.byID[id]
	if !ok {
		return value.Value{}, false
	}
	return colValue(w, attrIdx, row), true
}

type fxReader struct {
	w   *world
	row int
}

func (r fxReader) EffectValue(attrIdx int) (value.Value, bool) {
	return value.Num(r.w.fx[attrIdx][r.row]), true
}

func (w *world) gather(class string, attrIdx int, refs, out []float64, zero float64) {
	for i, f := range refs {
		row, ok := w.byID[value.ID(f)]
		if !ok {
			out[i] = zero
			continue
		}
		out[i] = w.cols[attrIdx][row]
	}
}

// random typed-AST generator

type gen struct {
	rng      *rand.Rand
	depth    int
	withFx   bool
	withSlot bool
}

func ident(attr int) *ast.Ident {
	ty := ast.Type{Kind: attrKinds[attr]}
	if ty.Kind == value.KindRef {
		ty.RefClass = "C"
	}
	return &ast.Ident{Name: "a", Bind: ast.Binding{Kind: ast.BindStateAttr, AttrIdx: attr}, Ty: ty}
}

func (g *gen) num(d int) ast.Expr {
	if d >= g.depth {
		switch g.rng.Intn(3) {
		case 0:
			return &ast.NumLit{V: math.Trunc(g.rng.Float64()*20 - 10)}
		default:
			return ident([]int{attrN0, attrN1}[g.rng.Intn(2)])
		}
	}
	switch g.rng.Intn(12) {
	case 0:
		return &ast.UnaryExpr{Op: token.MINUS, X: g.num(d + 1), Ty: ast.NumberT}
	case 1:
		return &ast.BinaryExpr{Op: token.SLASH, X: g.num(d + 1), Y: g.num(d + 1), Ty: ast.NumberT}
	case 2:
		return &ast.BinaryExpr{Op: token.PERCENT, X: g.num(d + 1), Y: g.num(d + 1), Ty: ast.NumberT}
	case 3:
		return &ast.CondExpr{C: g.boolean(d + 1), T: g.num(d + 1), F: g.num(d + 1), Ty: ast.NumberT}
	case 4:
		return &ast.CallExpr{Name: "clamp", Builtin: ast.BClamp, Args: []ast.Expr{g.num(d + 1), g.num(d + 1), g.num(d + 1)}, Ty: ast.NumberT}
	case 5:
		return &ast.CallExpr{Name: "dist", Builtin: ast.BDist, Args: []ast.Expr{g.num(d + 1), g.num(d + 1), g.num(d + 1), g.num(d + 1)}, Ty: ast.NumberT}
	case 6:
		name := []string{"abs", "floor", "ceil", "sqrt"}[g.rng.Intn(4)]
		return &ast.CallExpr{Name: name, Builtin: ast.BuiltinByName[name], Args: []ast.Expr{g.num(d + 1)}, Ty: ast.NumberT}
	case 7:
		name := []string{"min", "max"}[g.rng.Intn(2)]
		return &ast.CallExpr{Name: name, Builtin: ast.BuiltinByName[name], Args: []ast.Expr{g.num(d + 1), g.num(d + 1)}, Ty: ast.NumberT}
	case 8:
		return &ast.CallExpr{Name: "id", Builtin: ast.BID, Args: []ast.Expr{g.ref(d + 1)}, Ty: ast.NumberT}
	case 9:
		// Cross-object numeric read through a ref.
		return &ast.FieldExpr{X: g.ref(d + 1), Name: "n0", AttrIdx: attrN0, Class: "C", Ty: ast.NumberT}
	case 10:
		if g.withFx {
			return &ast.Ident{Name: "fx0", Bind: ast.Binding{Kind: ast.BindEffectAttr, AttrIdx: 0}, Ty: ast.NumberT}
		}
		if g.withSlot {
			return &ast.Ident{Name: "s0", Bind: ast.Binding{Kind: ast.BindLocal, Slot: 0}, Ty: ast.NumberT}
		}
		fallthrough
	default:
		op := []token.Kind{token.PLUS, token.MINUS, token.STAR}[g.rng.Intn(3)]
		return &ast.BinaryExpr{Op: op, X: g.num(d + 1), Y: g.num(d + 1), Ty: ast.NumberT}
	}
}

func (g *gen) boolean(d int) ast.Expr {
	if d >= g.depth {
		if g.rng.Intn(2) == 0 {
			return &ast.BoolLit{V: g.rng.Intn(2) == 0}
		}
		return ident(attrB0)
	}
	switch g.rng.Intn(7) {
	case 0:
		return &ast.UnaryExpr{Op: token.NOT, X: g.boolean(d + 1), Ty: ast.BoolT}
	case 1:
		op := []token.Kind{token.ANDAND, token.OROR}[g.rng.Intn(2)]
		return &ast.BinaryExpr{Op: op, X: g.boolean(d + 1), Y: g.boolean(d + 1), Ty: ast.BoolT}
	case 2:
		op := []token.Kind{token.EQ, token.NEQ}[g.rng.Intn(2)]
		x, y := g.ref(d+1), g.ref(d+1)
		return &ast.BinaryExpr{Op: op, X: x, Y: y, Ty: ast.BoolT}
	case 3:
		return &ast.CondExpr{C: g.boolean(d + 1), T: g.boolean(d + 1), F: g.boolean(d + 1), Ty: ast.BoolT}
	default:
		op := []token.Kind{token.LT, token.LE, token.GT, token.GE, token.EQ, token.NEQ}[g.rng.Intn(6)]
		return &ast.BinaryExpr{Op: op, X: g.num(d + 1), Y: g.num(d + 1), Ty: ast.BoolT}
	}
}

func (g *gen) ref(d int) ast.Expr {
	refT := ast.RefT("C")
	if d >= g.depth {
		if g.rng.Intn(4) == 0 {
			return &ast.NullLit{Ty: refT}
		}
		return ident(attrR0)
	}
	switch g.rng.Intn(3) {
	case 0:
		return &ast.CondExpr{C: g.boolean(d + 1), T: g.ref(d + 1), F: g.ref(d + 1), Ty: refT}
	case 1:
		return &ast.FieldExpr{X: g.ref(d + 1), Name: "r0", AttrIdx: attrR0, Class: "C", Ty: refT}
	default:
		return &ast.Ident{Name: "self", Bind: ast.Binding{Kind: ast.BindSelf}, Ty: refT}
	}
}

// payload extracts the columnar float64 representation of a scalar value.
func payload(v value.Value) float64 {
	switch v.Kind() {
	case value.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	case value.KindRef:
		return float64(v.AsRef())
	default:
		return v.AsNumber()
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDifferentialFuzz generates random typed expressions and random worlds
// and asserts that the batch kernels produce bit-identical payloads to the
// scalar closure evaluator on every row.
func TestDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	compiled, skipped := 0, 0
	for trial := 0; trial < 400; trial++ {
		w := newWorld(rng, 3+rng.Intn(60))
		g := &gen{rng: rng, depth: 1 + rng.Intn(4), withFx: trial%3 == 0, withSlot: trial%3 == 1}
		var e ast.Expr
		switch trial % 3 {
		case 0, 1:
			e = g.num(0)
		default:
			e = g.boolean(0)
		}
		prog, ok := vexpr.CompileWithSlots(e, func(slot int) bool { return g.withSlot && slot == 0 })
		if !ok {
			skipped++
			continue
		}
		compiled++
		fn := expr.Compile(e)
		n := len(w.ids)
		env := &vexpr.Env{Cols: w.cols, Fx: w.fx, IDs: w.ids, Slots: w.slots, Gather: w.gather}
		out := make([]float64, n)
		var m vexpr.Machine
		prog.Run(&m, env, 0, n, out)

		ctx := expr.Ctx{W: w, Class: "C", Frame: make([]value.Value, 1)}
		for r := 0; r < n; r++ {
			ctx.SelfID = value.ID(w.ids[r])
			ctx.Self = rowReader{w: w, row: r}
			ctx.Effects = fxReader{w: w, row: r}
			ctx.Frame[0] = value.Num(w.slots[0][r])
			want := payload(fn(&ctx))
			if !sameFloat(out[r], want) {
				t.Fatalf("trial %d row %d: vectorized %v, scalar %v\nexpr: %s", trial, r, out[r], want, ast.ExprString(e))
			}
		}
	}
	if compiled < 200 {
		t.Fatalf("only %d/%d random expressions compiled to kernels (%d skipped); generator too narrow", compiled, compiled+skipped, skipped)
	}
}

// TestCompileRejectsNonColumnar pins the fallback contract: strings, sets,
// iteration variables and extents must fail vectorized compilation rather
// than miscompile.
func TestCompileRejectsNonColumnar(t *testing.T) {
	cases := []ast.Expr{
		&ast.StrLit{V: "x"},
		&ast.Ident{Name: "it", Bind: ast.Binding{Kind: ast.BindIter, Slot: 0}, Ty: ast.RefT("C")},
		&ast.Ident{Name: "C", Bind: ast.Binding{Kind: ast.BindExtent, Class: "C"}},
		&ast.CallExpr{Name: "size", Builtin: ast.BSize, Args: []ast.Expr{&ast.Ident{Name: "s", Bind: ast.Binding{Kind: ast.BindStateAttr, AttrIdx: 0}, Ty: ast.SetT(ast.NumberT)}}, Ty: ast.NumberT},
		// local slot without slot vectors available
		&ast.Ident{Name: "v", Bind: ast.Binding{Kind: ast.BindLocal, Slot: 2}, Ty: ast.NumberT},
		// string equality
		&ast.BinaryExpr{Op: token.EQ, X: &ast.StrLit{V: "a"}, Y: &ast.StrLit{V: "b"}, Ty: ast.BoolT},
	}
	for i, e := range cases {
		if _, ok := vexpr.Compile(e); ok {
			t.Errorf("case %d: expected compilation to fail", i)
		}
	}
}

// TestBatchBoundaries ensures results are identical to the scalar closures
// across batch seams: extents of more than three batches, Run windows that
// start mid-batch and end on a partial batch (the join-window shape), short
// and long (more than 8 per-batch ops) programs, a bare literal, each both
// optimized and NoOpt. Rows outside the window must stay untouched.
func TestBatchBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := newWorld(rng, 3500)
	num := func(v float64) ast.Expr { return &ast.NumLit{V: v} }
	bin := func(op token.Kind, x, y ast.Expr, ty ast.Type) ast.Expr {
		return &ast.BinaryExpr{Op: op, X: x, Y: y, Ty: ty}
	}
	call := func(b ast.Builtin, args ...ast.Expr) ast.Expr {
		return &ast.CallExpr{Builtin: b, Args: args, Ty: ast.NumberT}
	}
	field := func(attr int) ast.Expr {
		return &ast.FieldExpr{X: ident(attrR0), Name: "f", AttrIdx: attr, Class: "C", Ty: ast.NumberT}
	}
	fx := &ast.Ident{Name: "fx0", Bind: ast.Binding{Kind: ast.BindEffectAttr, AttrIdx: 0}, Ty: ast.NumberT}
	slot := &ast.Ident{Name: "s0", Bind: ast.Binding{Kind: ast.BindLocal, Slot: 0}, Ty: ast.NumberT}
	self := &ast.Ident{Name: "self", Bind: ast.Binding{Kind: ast.BindSelf}, Ty: ast.RefT("C")}
	short := bin(token.PLUS, ident(attrN0), field(attrN1), ast.NumberT)
	// (b0 && n0 < n1 || id(self) > s0) ? dist(n0, n1, r0.n0, fx0)*0.5 + floor(n1/3)
	//                                  : clamp(abs(n0 - r0.n1), 1, 5) % 4
	long := &ast.CondExpr{
		C: bin(token.OROR,
			bin(token.ANDAND, ident(attrB0), bin(token.LT, ident(attrN0), ident(attrN1), ast.BoolT), ast.BoolT),
			bin(token.GT, call(ast.BID, self), slot, ast.BoolT), ast.BoolT),
		T: bin(token.PLUS,
			bin(token.STAR, call(ast.BDist, ident(attrN0), ident(attrN1), field(attrN0), fx), num(0.5), ast.NumberT),
			call(ast.BFloor, bin(token.SLASH, ident(attrN1), num(3), ast.NumberT)), ast.NumberT),
		F: bin(token.PERCENT,
			call(ast.BClamp, call(ast.BAbs, bin(token.MINUS, ident(attrN0), field(attrN1), ast.NumberT)), num(1), num(5)),
			num(4), ast.NumberT),
		Ty: ast.NumberT,
	}
	n := len(w.ids)
	env := &vexpr.Env{Cols: w.cols, Fx: w.fx, IDs: w.ids, Slots: w.slots, Gather: w.gather}
	windows := [][2]int{{0, n}, {700, n - 5}, {1500, 2600}, {2049, 2050}}
	const untouched = -12345.0
	var m vexpr.Machine // shared across programs: exercises the slab cache
	for _, e := range []ast.Expr{short, long, num(7)} {
		fn := expr.Compile(e)
		want := make([]float64, n)
		ctx := expr.Ctx{W: w, Class: "C", Frame: make([]value.Value, 1)}
		for r := range want {
			ctx.SelfID = value.ID(w.ids[r])
			ctx.Self = rowReader{w: w, row: r}
			ctx.Effects = fxReader{w: w, row: r}
			ctx.Frame[0] = value.Num(w.slots[0][r])
			want[r] = payload(fn(&ctx))
		}
		for _, noOpt := range []bool{false, true} {
			prog, ok := vexpr.CompileOpts(e, vexpr.Opts{SlotOK: func(s int) bool { return s == 0 }, NoOpt: noOpt})
			if !ok {
				t.Fatalf("expression must compile: %s", ast.ExprString(e))
			}
			if e == long && prog.Kernels() <= 8 {
				t.Fatalf("long program has only %d per-batch ops (NoOpt=%v)", prog.Kernels(), noOpt)
			}
			for _, win := range windows {
				lo, hi := win[0], win[1]
				out := make([]float64, n)
				for i := range out {
					out[i] = untouched
				}
				prog.Run(&m, env, lo, hi, out)
				for r := range out {
					exp := want[r]
					if r < lo || r >= hi {
						exp = untouched
					}
					if !sameFloat(out[r], exp) {
						t.Fatalf("%s NoOpt=%v window [%d,%d) row %d: vectorized %v, want %v",
							ast.ExprString(e), noOpt, lo, hi, r, out[r], exp)
					}
				}
			}
		}
	}
}
