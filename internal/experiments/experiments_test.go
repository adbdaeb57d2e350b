package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment functions back both cmd/sglbench and EXPERIMENTS.md; these
// tests run each with tiny parameters and assert the *shape* of the results
// the paper predicts, not absolute numbers.

func cell(t *testing.T, tbl Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in %d rows", tbl.ID, row, col, len(tbl.Rows))
	}
	return tbl.Rows[row][col]
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric", s)
	}
	return f
}

func TestE1Shape(t *testing.T) {
	tbl, err := E1([]int{300, 900}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatal("rows")
	}
	// At every n the default engine beats the baseline; the speedup grows.
	s0 := num(t, cell(t, tbl, 0, 4))
	s1 := num(t, cell(t, tbl, 1, 4))
	if s0 <= 1 {
		t.Errorf("speedup at n=300 is %v, engine must win", s0)
	}
	if s1 <= s0 {
		t.Errorf("speedup must grow with n: %v -> %v", s0, s1)
	}
}

func TestE2Shape(t *testing.T) {
	tbl, err := E2([]int{300, 1200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At the larger n, both index plans beat nested loop.
	nl := num(t, cell(t, tbl, 1, 1))
	grid := num(t, cell(t, tbl, 1, 2))
	tree := num(t, cell(t, tbl, 1, 3))
	if grid >= nl || tree >= nl {
		t.Errorf("indexes must beat NL at n=1200: nl=%v grid=%v tree=%v", nl, grid, tree)
	}
}

func TestE3Shape(t *testing.T) {
	tbl, err := E3([]int{60}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Physics must keep colliders separated (min pair distance near 2r=2).
	if d := num(t, cell(t, tbl, 0, 3)); d < 1.0 {
		t.Errorf("min pair dist %v: separation failing", d)
	}
}

func TestE4Shape(t *testing.T) {
	tbl, err := E4([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r := num(t, cell(t, tbl, 0, 3)); r != 0 {
		t.Errorf("no contention must mean no aborts, got rate %v", r)
	}
	if r := num(t, cell(t, tbl, 1, 3)); r <= 0.5 {
		t.Errorf("4 buyers/item must abort most, got rate %v", r)
	}
	// Transactions never oversell; the control arm always does.
	if o := num(t, cell(t, tbl, 1, 4)); o <= 0 {
		t.Error("control arm must oversell")
	}
}

func TestE5Shape(t *testing.T) {
	tbl, err := E5(500, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Behaviour matches: both variants pick up 2 items in 6 ticks
	// (phases 1 and 4 of the 3-phase cycle).
	a := cell(t, tbl, 0, 2)
	b := cell(t, tbl, 1, 2)
	if a != b {
		t.Errorf("sugar and hand machine diverge: %s vs %s items", a, b)
	}
	// Cost comparable. The bound is loose (10x) because this test runs
	// concurrently with the rest of the suite and absorbs scheduler noise;
	// the calibrated comparison lives in EXPERIMENTS.md E5 (~15% apart).
	ta, tb := num(t, cell(t, tbl, 0, 1)), num(t, cell(t, tbl, 1, 1))
	if ta > 10*tb || tb > 10*ta {
		t.Errorf("lowering cost out of family: %v vs %v", ta, tb)
	}
}

func TestE6Shape(t *testing.T) {
	tbl, err := E6(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Asserted on counters, not wall clock: handler dispatch evaluates each
	// guard's condition exactly once per tick, and the two forms agree.
	if inline, handler := num(t, cell(t, tbl, 0, 3)), num(t, cell(t, tbl, 1, 3)); inline != 0 || handler != 2000 {
		t.Errorf("handler rows/tick: inline %v, handlers %v; want 0, 2000", inline, handler)
	}
	if a, b := cell(t, tbl, 0, 2), cell(t, tbl, 1, 2); a != b {
		t.Errorf("fleeing count: inline %s, handlers %s", a, b)
	}
}

func TestE8Shape(t *testing.T) {
	tbl, err := E8(1500, 4)
	if err != nil {
		t.Fatal(err)
	}
	on, off := num(t, cell(t, tbl, 0, 1)), num(t, cell(t, tbl, 1, 1))
	// Statistics must cost well under 2x (the paper wants "cheap enough
	// for real time"; in practice it is a few percent).
	if on > 4*off+1 {
		t.Errorf("stats overhead too high: on=%v off=%v", on, off)
	}
}

func TestE10Shape(t *testing.T) {
	tbl := E10([]int{2000, 8000})
	// d=2 replicas/pt grows with n.
	r0 := num(t, cell(t, tbl, 0, 4))
	r1 := num(t, cell(t, tbl, 1, 4))
	if r1 <= r0 {
		t.Errorf("d=2 replicas/pt must grow: %v -> %v", r0, r1)
	}
}

func TestE11E12Shape(t *testing.T) {
	tbl, err := E11(3000, []int{4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 = stripes, row 1 = hash at 4 partitions — both measured from
	// the real partitioned engine now.
	stripes := num(t, cell(t, tbl, 0, 2))
	hash := num(t, cell(t, tbl, 1, 2))
	if stripes >= hash {
		t.Errorf("stripes msgs (%v) must be below hash (%v)", stripes, hash)
	}
	// Hash replicates everything: at least (parts-1)·n ghost rows per tick.
	if g := num(t, cell(t, tbl, 1, 3)); g < 3*3000 {
		t.Errorf("hash ghost rows/tick = %v, want full replication", g)
	}
	t12, err := E12(3000, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	one := num(t, cell(t, t12, 0, 1))
	four := num(t, cell(t, t12, 1, 1))
	if four >= one {
		t.Errorf("partitioned max-part MB (%v) must be below single partition (%v)", four, one)
	}
}

func TestE16Shape(t *testing.T) {
	tbl, err := E16(3000, []int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One unpartitioned and one partitioned arm per k, same worker count.
	want := [][2]string{{"1", "0"}, {"1", "1"}, {"4", "0"}, {"4", "4"}}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for row, w := range want {
		if got := [2]string{cell(t, tbl, row, 0), cell(t, tbl, row, 1)}; got != w {
			t.Fatalf("row %d is workers/parts %v, want %v", row, got, w)
		}
		if v := num(t, cell(t, tbl, row, 2)); v <= 0 {
			t.Errorf("row %d: non-positive ms/tick %v", row, v)
		}
	}
	// Unpartitioned arms account no messages and are their own baseline;
	// one partition sends nothing; four must report cross-partition
	// traffic.
	for _, row := range []int{0, 2} {
		if c := cell(t, tbl, row, 5); c != "-" {
			t.Errorf("row %d: unpartitioned arm reports msgs/tick %q", row, c)
		}
		if r := num(t, cell(t, tbl, row, 4)); r != 1 {
			t.Errorf("row %d: unpartitioned arm is %v× itself", row, r)
		}
	}
	if m := num(t, cell(t, tbl, 1, 5)); m != 0 {
		t.Errorf("single partition sent %v msgs/tick", m)
	}
	if m := num(t, cell(t, tbl, 3, 5)); m <= 0 {
		t.Errorf("4 partitions sent %v msgs/tick, want > 0", m)
	}
}

func TestE13Shape(t *testing.T) {
	tbl, err := E13([]int{2000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// All timing cells must be positive numbers; the actual speedup claim
	// is asserted only by the benchmarks (wall-clock races are too noisy
	// for a unit test at this tiny scale).
	for col := 1; col <= 4; col++ {
		if v := num(t, cell(t, tbl, 0, col)); v <= 0 {
			t.Errorf("column %d: non-positive time %v", col, v)
		}
	}
	frac := strings.TrimSuffix(cell(t, tbl, 0, 7), "%")
	f, err := strconv.ParseFloat(frac, 64)
	if err != nil {
		t.Fatalf("vec rows cell %q is not numeric: %v", cell(t, tbl, 0, 7), err)
	}
	if f < 99 {
		t.Errorf("the default Options must fully vectorize the traffic workload, got %v%%", f)
	}
}

// TestE7Shape pins E7's arms: static nested-loop, static range-tree and the
// default (grid by predicate shape), with no adaptive arm or switch count.
func TestE7Shape(t *testing.T) {
	tbl, err := E7(300, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plan", "explore ms", "combat ms", "total ms"}
	if strings.Join(tbl.Header, "|") != strings.Join(want, "|") {
		t.Fatalf("header %q, want %q", tbl.Header, want)
	}
	if len(tbl.Rows) != 3 || tbl.Rows[2][0] != "default (grid)" {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	for row := range tbl.Rows {
		if v := num(t, cell(t, tbl, row, 3)); v <= 0 {
			t.Errorf("row %d: non-positive total %v", row, v)
		}
	}
}

// TestE14Shape pins E14's arms: scalar and vectorized shards per worker
// count, with the shards the vectorized arm dispatched.
func TestE14Shape(t *testing.T) {
	tbl, err := E14(3000, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"workers", "scalar ms/tick", "vectorized ms/tick", "vectorized speedup", "shards/tick"}
	if strings.Join(tbl.Header, "|") != strings.Join(want, "|") {
		t.Fatalf("header %q, want %q", tbl.Header, want)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for row := range tbl.Rows {
		for col := 1; col <= 3; col++ {
			if v := num(t, cell(t, tbl, row, col)); v <= 0 {
				t.Errorf("row %d column %d: non-positive %v", row, col, v)
			}
		}
	}
	// 3000 rows are three vexpr batches: Workers=1 runs inline, Workers=2
	// dispatches two shards per pass.
	if s := num(t, cell(t, tbl, 0, 4)); s != 0 {
		t.Errorf("Workers=1 dispatched %v shards/tick", s)
	}
	if s := num(t, cell(t, tbl, 1, 4)); s <= 0 {
		t.Errorf("Workers=2 dispatched %v shards/tick", s)
	}
}

// TestE15Shape pins E15's arms: scalar, batched and unfused batched joins
// per workload and size, with the batched arm's join counters.
func TestE15Shape(t *testing.T) {
	tbl, err := E15(map[string][]int{"fig2": {300}, "rts": {300}, "flock": {300}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"workload", "n", "scalar", "batched", "unfused", "batched speedup", "fused speedup", "cand/probe", "build ms/tick"}
	if strings.Join(tbl.Header, "|") != strings.Join(want, "|") {
		t.Fatalf("header %q, want %q", tbl.Header, want)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for row := range tbl.Rows {
		for col := 2; col <= 4; col++ {
			if v := num(t, cell(t, tbl, row, col)); v <= 0 {
				t.Errorf("row %d column %d: non-positive time %v", row, col, v)
			}
		}
		if c := num(t, cell(t, tbl, row, 7)); c <= 0 {
			t.Errorf("row %d: batched arm reports %v candidates per probe", row, c)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "EX", Title: "demo", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: "note",
	}
	txt := tbl.Format()
	if !strings.Contains(txt, "EX") || !strings.Contains(txt, "note") {
		t.Error("Format")
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown:\n%s", md)
	}
}
