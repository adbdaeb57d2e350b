package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func randEntries(n, dims int, seed int64, span float64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		c := make([]float64, dims)
		for d := range c {
			c[d] = rng.Float64() * span
		}
		out[i] = Entry{ID: value.ID(i + 1), Coords: c}
	}
	return out
}

func naiveQuery(es []Entry, lo, hi []float64) []value.ID {
	var out []value.ID
	for _, e := range es {
		ok := true
		for d := range lo {
			if e.Coords[d] < lo[d] || e.Coords[d] > hi[d] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e.ID)
		}
	}
	return out
}

func sortIDs(ids []value.ID) []value.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []value.ID) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortIDs(a), sortIDs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeTreeMatchesNaive(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		es := randEntries(500, dims, int64(dims)*7, 100)
		tree := BuildRangeTree(dims, es)
		if tree.Len() != 500 {
			t.Fatalf("d=%d: Len = %d", dims, tree.Len())
		}
		rng := rand.New(rand.NewSource(99))
		for q := 0; q < 50; q++ {
			lo := make([]float64, dims)
			hi := make([]float64, dims)
			for d := 0; d < dims; d++ {
				a, b := rng.Float64()*100, rng.Float64()*100
				lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
			}
			want := naiveQuery(es, lo, hi)
			got := tree.Query(lo, hi, nil)
			if !equalIDs(got, want) {
				t.Fatalf("d=%d query %v..%v: got %d ids, want %d", dims, lo, hi, len(got), len(want))
			}
			if c := tree.Count(lo, hi); c != len(want) {
				t.Fatalf("d=%d Count = %d, want %d", dims, c, len(want))
			}
		}
	}
}

func TestRangeTreeUnboundedBox(t *testing.T) {
	es := randEntries(200, 2, 5, 50)
	tree := BuildRangeTree(2, es)
	inf := math.Inf(1)
	got := tree.Query([]float64{math.Inf(-1), math.Inf(-1)}, []float64{inf, inf}, nil)
	if len(got) != 200 {
		t.Fatalf("unbounded query returned %d of 200", len(got))
	}
	// Half-open on one side.
	got = tree.Query([]float64{25, math.Inf(-1)}, []float64{inf, inf}, nil)
	want := naiveQuery(es, []float64{25, math.Inf(-1)}, []float64{inf, inf})
	if !equalIDs(got, want) {
		t.Fatalf("half-open: got %d, want %d", len(got), len(want))
	}
}

func TestRangeTreeEmpty(t *testing.T) {
	tree := BuildRangeTree(2, nil)
	if got := tree.Query([]float64{0, 0}, []float64{1, 1}, nil); len(got) != 0 {
		t.Error("empty tree must return nothing")
	}
	if tree.Count([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Error("empty tree count")
	}
}

func TestRangeTreeDuplicateCoords(t *testing.T) {
	es := make([]Entry, 64)
	for i := range es {
		es[i] = Entry{ID: value.ID(i + 1), Coords: []float64{5, 5}}
	}
	tree := BuildRangeTree(2, es)
	got := tree.Query([]float64{5, 5}, []float64{5, 5}, nil)
	if len(got) != 64 {
		t.Fatalf("duplicate coords: got %d of 64", len(got))
	}
	if got := tree.Query([]float64{6, 6}, []float64{7, 7}, nil); len(got) != 0 {
		t.Error("miss query must be empty")
	}
}

// TestRangeTreeSpaceGrowth pins the Θ(n·log^{d−1} n) storage behaviour the
// paper's §4.2 memory analysis depends on: stored replicas per point grow
// roughly with log^{d−1} n.
func TestRangeTreeSpaceGrowth(t *testing.T) {
	perPoint := func(n, dims int) float64 {
		tree := BuildRangeTree(dims, randEntries(n, dims, 1, 1000))
		return float64(tree.StoredEntries()) / float64(n)
	}
	// d=1: exactly one copy per point.
	if got := perPoint(4096, 1); got != 1 {
		t.Errorf("d=1 replicas per point = %v, want 1", got)
	}
	// d=2: replicas grow with log n.
	small, big := perPoint(1024, 2), perPoint(16384, 2)
	if big <= small {
		t.Errorf("d=2 replicas must grow with n: %v -> %v", small, big)
	}
	if big > 3*small {
		t.Errorf("d=2 replica growth too fast: %v -> %v", small, big)
	}
	// d=3 stores more than d=2 at the same n.
	if d3 := perPoint(4096, 3); d3 <= perPoint(4096, 2) {
		t.Errorf("d=3 must store more replicas than d=2, got %v", d3)
	}
	if BuildRangeTree(2, randEntries(1000, 2, 3, 10)).EstimatedBytes() <= 0 {
		t.Error("EstimatedBytes must be positive")
	}
}

// gridOf builds a grid over 2-D entries, with each entry's slice index as
// its row.
func gridOf(cell float64, es []Entry) *Grid {
	x, y := make([]float64, len(es)), make([]float64, len(es))
	rows := make([]int32, len(es))
	for i, e := range es {
		x[i], y[i], rows[i] = e.Coords[0], e.Coords[1], int32(i)
	}
	return BuildGrid(cell, x, y, nil, rows)
}

// gridIDs probes g and maps the candidate rows back to entry ids.
func gridIDs(g *Grid, es []Entry, lo, hi []float64) []value.ID {
	var out []value.ID
	for _, r := range g.QueryRows(lo, hi, AnyKey, nil) {
		out = append(out, es[r].ID)
	}
	return out
}

func TestGridMatchesNaive(t *testing.T) {
	es := randEntries(400, 2, 11, 200)
	for _, cell := range []float64{5, 32, 500} {
		g := gridOf(cell, es)
		rng := rand.New(rand.NewSource(4))
		for q := 0; q < 40; q++ {
			a, b := rng.Float64()*200, rng.Float64()*200
			c, d := rng.Float64()*200, rng.Float64()*200
			lo := []float64{math.Min(a, b), math.Min(c, d)}
			hi := []float64{math.Max(a, b), math.Max(c, d)}
			want := naiveQuery(es, lo, hi)
			if got := gridIDs(g, es, lo, hi); !equalIDs(got, want) {
				t.Fatalf("cell %v: got %d, want %d", cell, len(got), len(want))
			}
		}
		if g.Len() != 400 || g.Cell() != cell || g.EstimatedBytes() <= 0 {
			t.Error("grid accounting")
		}
	}
}

func TestGridNegativeCoords(t *testing.T) {
	es := []Entry{
		{ID: 1, Coords: []float64{-10, -10}},
		{ID: 2, Coords: []float64{-0.5, 0.5}},
		{ID: 3, Coords: []float64{10, 10}},
	}
	g := gridOf(4, es)
	if got := gridIDs(g, es, []float64{-11, -11}, []float64{0, 1}); !equalIDs(got, []value.ID{1, 2}) {
		t.Fatalf("negative coords query = %v", got)
	}
}

// TestGridQueryRowsMatchesBruteForceOrder is the grid's defining property:
// QueryRows returns exactly the points a brute-force closed-box filter
// keeps, ordered by (cell x key, cell y key, row) with keys floor(v/cell)
// clamped to the window of finite keys — so a grid over any input answers
// in the candidate order the engine's bit-identity depends on. Inputs mix
// negative, infinite and NaN coordinates and boxes, empty grids, and
// point sets sparse enough to hit the cell-window cap. A keyed grid over
// the same points answers every key test — == and !=, NaN point keys, a
// NaN probe key, a probe key no point has — as that filter followed by the
// key compare, in the same order, and AnyKey as the unkeyed grid.
func TestGridQueryRowsMatchesBruteForceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	coord := func(span float64) float64 {
		if rng.Intn(12) == 0 {
			return special[rng.Intn(len(special))]
		}
		return (rng.Float64() - 0.5) * span
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(120)
		span := []float64{50, 400, 1e6, 1e12}[rng.Intn(4)]
		cell := []float64{0.5, 3, 17, 200}[rng.Intn(4)]
		x, y, key := make([]float64, n+5), make([]float64, n+5), make([]float64, n+5)
		var rows []int32
		for r := range x {
			x[r], y[r] = coord(span), coord(span)
			key[r] = []float64{0, 1, 2, math.NaN()}[rng.Intn(4)]
			if rng.Intn(4) != 0 { // not every row is a member
				rows = append(rows, int32(r))
			}
		}
		g, gk := BuildGrid(cell, x, y, nil, rows), BuildGrid(cell, x, y, key, rows)
		c := g.Cell()
		if c < cell {
			t.Fatalf("cell shrank: %v < %v", c, cell)
		}
		// Reference key window over the finite coordinates, at the built
		// cell size.
		kmin, kmax := [2]float64{math.Inf(1), math.Inf(1)}, [2]float64{math.Inf(-1), math.Inf(-1)}
		for _, r := range rows {
			for a, v := range [2]float64{x[r], y[r]} {
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					k := math.Floor(v / c)
					kmin[a], kmax[a] = math.Min(kmin[a], k), math.Max(kmax[a], k)
				}
			}
		}
		cells := 1.0
		for a := range kmin {
			if kmin[a] > kmax[a] {
				kmin[a], kmax[a] = 0, 0
			}
			cells *= kmax[a] - kmin[a] + 1
		}
		if cells > maxGridCells(len(rows)) {
			t.Fatalf("window of %v cells exceeds the cap for %d points", cells, len(rows))
		}
		keyOf := func(v float64, a int) float64 {
			return math.Max(kmin[a], math.Min(kmax[a], math.Floor(v/c)))
		}
		for q := 0; q < 20; q++ {
			lo := []float64{coord(span), coord(span)}
			hi := []float64{coord(span), coord(span)}
			if rng.Intn(3) > 0 {
				for a := range lo {
					if lo[a] > hi[a] {
						lo[a], hi[a] = hi[a], lo[a]
					}
				}
			}
			var want []int32
			for _, r := range rows {
				if x[r] >= lo[0] && x[r] <= hi[0] && y[r] >= lo[1] && y[r] <= hi[1] {
					want = append(want, r)
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if ka, kb := keyOf(x[a], 0), keyOf(x[b], 0); ka != kb {
					return ka < kb
				}
				return keyOf(y[a], 1) < keyOf(y[b], 1)
			})
			check := func(what string, got, want []int32) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("trial %d box %v..%v %s: %d rows, brute force %d", trial, lo, hi, what, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d box %v..%v %s: order diverged at %d: %v vs %v", trial, lo, hi, what, i, got, want)
					}
				}
			}
			check("unkeyed", g.QueryRows(lo, hi, AnyKey, nil), want)
			check("keyed, AnyKey", gk.QueryRows(lo, hi, AnyKey, nil), want)
			kt := KeyTest{Val: []float64{0, 1, 3, math.NaN()}[rng.Intn(4)], Ne: rng.Intn(2) == 0}
			var wantK []int32
			for _, r := range want {
				if kt.Ne && !(key[r] == kt.Val) || !kt.Ne && key[r] == kt.Val {
					wantK = append(wantK, r)
				}
			}
			check(fmt.Sprintf("key %+v", kt), gk.QueryRows(lo, hi, kt, nil), wantK)
		}
	}
	// A sparse far-flung set must double its cell rather than allocate a
	// window per unit of extent.
	x := []float64{0, 1e12, -1e12, 5}
	y := []float64{0, 1e12, 3, -1e12}
	g := BuildGrid(1, x, y, nil, []int32{0, 1, 2, 3})
	if g.Cell() <= 1 || len(g.off)-1 > int(maxGridCells(4)) {
		t.Fatalf("cell %v with %d cells: the window cap did not apply", g.Cell(), len(g.off)-1)
	}
	if got := g.QueryRows([]float64{-1, -1}, []float64{6, 6}, AnyKey, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sparse probe = %v, want [0]", got)
	}
	if got := BuildGrid(8, nil, nil, nil, nil).QueryRows([]float64{-1, -1}, []float64{1, 1}, AnyKey, nil); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
}

// TestBuilderReleasesTreeSlabs: a builder whose site moved off the range
// tree drops the tree slabs after treeIdleBuilds other builds, and a later
// tree build still answers exactly.
func TestBuilderReleasesTreeSlabs(t *testing.T) {
	es := randEntries(500, 2, 29, 100)
	var b Builder
	slab := b.Entries(len(es))
	for i := 0; i < 2; i++ { // the second build draws from sized slabs
		copy(slab, es)
		b.BuildRangeTree(2, slab)
	}
	x, y := make([]float64, len(es)), make([]float64, len(es))
	rows := make([]int32, len(es))
	for i, e := range es {
		x[i], y[i], rows[i] = e.Coords[0], e.Coords[1], int32(i)
	}
	for i := 0; i < treeIdleBuilds-1; i++ {
		b.BuildGrid(10, x, y, nil, rows)
	}
	if b.nodes == nil || b.entries == nil {
		t.Fatal("tree slabs released before the idle bound")
	}
	b.BuildGrid(10, x, y, nil, rows)
	if b.nodes != nil || b.reps != nil || b.trees != nil || b.entries != nil || b.coords != nil {
		t.Fatal("tree slabs still pinned after the idle bound")
	}
	slab = b.Entries(len(es))
	copy(slab, es)
	lo, hi := []float64{20, 30}, []float64{60, 45}
	if got := b.BuildRangeTree(2, slab).Query(lo, hi, nil); !equalIDs(got, naiveQuery(es, lo, hi)) {
		t.Fatal("tree rebuilt after release answers wrongly")
	}
}

func TestHashIndex(t *testing.T) {
	keys := []value.Value{value.Num(1), value.Num(2), value.Num(1), value.Str("a")}
	ids := []value.ID{10, 20, 30, 40}
	h := NewRowHash()
	for i, k := range keys {
		h.Insert(HashValue(KeySeed, k), ids[i], int32(i))
	}
	if got, rows := h.Lookup(HashValue(KeySeed, value.Num(1))); !equalIDs(append([]value.ID(nil), got...), []value.ID{10, 30}) || len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Lookup(1) = %v / %v", got, rows)
	}
	if got, _ := h.Lookup(HashValue(KeySeed, value.Str("a"))); len(got) != 1 || got[0] != 40 {
		t.Errorf("Lookup(a) = %v", got)
	}
	if got, _ := h.Lookup(HashValue(KeySeed, value.Num(9))); len(got) != 0 {
		t.Errorf("Lookup(miss) = %v", got)
	}
	if h.Len() != 4 {
		t.Error("Len")
	}
}

// Property: tree and grid agree with the naive scan on random data and
// random boxes — the core correctness invariant behind every accum join.
func TestIndexEquivalenceProperty(t *testing.T) {
	f := func(seed int64, n uint8, qx, qy, qw, qh float64) bool {
		m := int(n)%200 + 10
		es := randEntries(m, 2, seed, 100)
		lo := []float64{math.Mod(math.Abs(qx), 100), math.Mod(math.Abs(qy), 100)}
		hi := []float64{lo[0] + math.Mod(math.Abs(qw), 60), lo[1] + math.Mod(math.Abs(qh), 60)}
		want := naiveQuery(es, lo, hi)
		tree := BuildRangeTree(2, es).Query(lo, hi, nil)
		grid := gridIDs(gridOf(13, es), es, lo, hi)
		return equalIDs(tree, append([]value.ID(nil), want...)) &&
			equalIDs(grid, append([]value.ID(nil), want...))
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 13, 100, 5000} {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(n*2 + 1))
		}
		want := append([]int32(nil), rows...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		SortRows(rows)
		for i := range rows {
			if rows[i] != want[i] {
				t.Fatalf("n=%d: rows[%d]=%d want %d", n, i, rows[i], want[i])
			}
		}
	}
}

// BenchmarkGridQueryRows probes a grid at the rts_joins shape: 20k uniform
// points at 75 area units each, cell 30, one ±15 box around every point
// (about a dozen candidates per probe). One op is the 20k probes.
//
// The keyed case adds the rts combat key: two alternating sides, each probe
// keeping the other side's points (key != own side), so about half the box
// survives.
func BenchmarkGridQueryRows(b *testing.B) {
	const n = 20000
	side := math.Sqrt(n * 75)
	es := randEntries(n, 2, 7, side)
	x, y, key := make([]float64, n), make([]float64, n), make([]float64, n)
	rows := make([]int32, n)
	for i, e := range es {
		x[i], y[i], key[i], rows[i] = e.Coords[0], e.Coords[1], float64(i%2), int32(i)
	}
	for _, bc := range []struct {
		name string
		key  []float64
	}{{"unkeyed", nil}, {"keyed", key}} {
		b.Run(bc.name, func(b *testing.B) {
			g := BuildGrid(30, x, y, bc.key, rows)
			var out []int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range es {
					kt := AnyKey
					if bc.key != nil {
						kt = KeyTest{Val: key[r], Ne: true}
					}
					out = g.QueryRows([]float64{x[r] - 15, y[r] - 15}, []float64{x[r] + 15, y[r] + 15}, kt, out[:0])
				}
			}
		})
	}
}
