package views

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
)

// TestGridScanMatchesBruteForce is the property a box group's rescan rests
// on: the data-grid query plus the exact recheck returns exactly the
// (id, row) pairs of a full scan, for random closed, strict and empty boxes
// whose bounds include NaN and ±Inf, over points that include NaN, ±Inf,
// ±0, ±1e300 and exact box edges, at any cell size, across writes, kills and
// spawns into freed rows. The oracle holds the compares as plain
// (axis, op, bound) triples, independent of the slot vectors.
func TestGridScanMatchesBruteForce(t *testing.T) {
	w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e300}
	coord := func() float64 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float64(rng.Intn(60) - 10) // integers: box edges land on points
	}
	spawn := func() {
		if _, err := w.Spawn("Unit", map[string]value.Value{"x": value.Num(coord()), "y": value.Num(coord())}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		spawn()
	}

	r := New(w)
	type shape struct {
		g   *subGroup
		ops [4]string // source order: x lower, x upper, y lower, y upper
	}
	var shapes []shape
	for _, ops := range [][4]string{{">=", "<=", ">=", "<="}, {">", "<", ">", "<"}} {
		s, err := r.Subscribe(Def{Class: "Unit", Pred: fmt.Sprintf("x %s 0 && x %s 9 && y %s 0 && y %s 9", ops[0], ops[1], ops[2], ops[3])})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Indexed() {
			t.Fatalf("%s not indexed: %s", s.def.Pred, s.IndexReason())
		}
		shapes = append(shapes, shape{s.grp, ops})
	}
	r.Apply(nil)
	cs := r.classes["Unit"]
	tab := cs.tab
	xAttr, yAttr := cs.cls.StateIndex("x"), cs.cls.StateIndex("y")

	holds := func(op string, v, bound float64) bool {
		switch op {
		case "<":
			return v < bound
		case "<=":
			return v <= bound
		case ">":
			return v > bound
		default:
			return v >= bound
		}
	}
	bound := func() float64 {
		if rng.Intn(6) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float64(rng.Intn(70) - 15)
	}
	cells := []float64{0.25, 1, 3, 16, 1e6}
	var checked, nonEmpty int
	for round := 0; round < 60; round++ {
		// Writes, kills and spawns into the freed rows move the versions the
		// grid is rebuilt on.
		ids := w.IDs("Unit")
		for i := 0; i < 10; i++ {
			id := ids[rng.Intn(len(ids))]
			if err := w.SetState("Unit", id, []string{"x", "y"}[rng.Intn(2)], value.Num(coord())); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := w.Kill("Unit", ids[i*50+rng.Intn(50)]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			spawn()
		}
		if round%2 == 0 {
			// A new cell size; in between, the versions alone rebuild.
			for _, sh := range shapes {
				sh.g.cell = cells[rng.Intn(len(cells))]
			}
			cs.dropGrids()
		}
		for _, sh := range shapes {
			for q := 0; q < 20; q++ {
				var b [4]float64
				for i := range b {
					b[i] = bound()
				}
				if rng.Intn(3) == 0 {
					// A box whose edges are a point's coordinates.
					row := rng.Intn(tab.Cap())
					x, y := tab.NumColumn(xAttr)[row], tab.NumColumn(yAttr)[row]
					b = [4]float64{x, x, y, y}
				}
				s := &Sub{grp: sh.g, consts: make([]float64, 4)}
				for i, c := range sh.g.cmps {
					s.consts[c.slot] = b[i]
				}
				var want []idRow
				xs, ys := tab.NumColumn(xAttr), tab.NumColumn(yAttr)
				for row := 0; row < tab.Cap(); row++ {
					v := [4]float64{xs[row], xs[row], ys[row], ys[row]}
					in := tab.Alive(row)
					for i, op := range sh.ops {
						in = in && holds(op, v[i], b[i])
					}
					if in {
						want = append(want, idRow{tab.ID(row), int32(row)})
					}
				}
				slices.SortFunc(want, func(a, b idRow) int { return cmp.Compare(a.id, b.id) })
				sh.g.scan = cs.dataGrid(sh.g)
				got := (&worker{r: r}).evalFull(s, cs)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d ops %v bounds %v cell %v: grid scan %v, full scan %v", round, sh.ops, b, sh.g.cell, got, want)
				}
				checked++
				if len(want) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty < checked/4 {
		t.Fatalf("only %d of %d boxes matched any row; the comparison is too easy", nonEmpty, checked)
	}
}

// topOrderOracle is the TopK order written out case by case: key
// descending, NaN after every number, ties (NaN with NaN too) by ascending
// id.
func topOrderOracle(a, b TopEntry) bool {
	an, bn := math.IsNaN(a.Key), math.IsNaN(b.Key)
	switch {
	case an != bn:
		return bn
	case !an && a.Key != b.Key:
		return a.Key > b.Key
	}
	return a.ID < b.ID
}

// TestTopOrderTotalUnderNaN pins the TopK order to a total one: with NaN
// keys among ties and signed zeros, sorting and bounded selection give the
// same ranking whatever the input order, and it is the oracle's.
func TestTopOrderTotalUnderNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []float64{math.NaN(), 5, 5, 7, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -3}
	for trial := 0; trial < 50; trial++ {
		var entries []TopEntry
		for i := 0; i < 40; i++ {
			entries = append(entries, TopEntry{ID: value.ID(i + 1), Key: keys[rng.Intn(len(keys))]})
		}
		if trial%2 == 0 {
			// One NaN among numbers, the case a NaN-blind order gets wrong.
			for i := range entries {
				if math.IsNaN(entries[i].Key) {
					entries[i].Key = float64(i % 6)
				}
			}
			entries[rng.Intn(len(entries))].Key = math.NaN()
		}
		want := slices.Clone(entries)
		slices.SortFunc(want, func(a, b TopEntry) int {
			if topOrderOracle(a, b) {
				return -1
			}
			return 1
		})
		for shuffle := 0; shuffle < 200; shuffle++ {
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			got := slices.Clone(entries)
			sortTop(got)
			if !slices.EqualFunc(got, want, sameEntry) {
				t.Fatalf("trial %d: sortTop depends on input order:\n got %v\nwant %v", trial, got, want)
			}
			k := 1 + rng.Intn(len(entries)+2)
			var h []TopEntry
			for _, e := range entries {
				h = pushTop(h, k, e)
			}
			sortTop(h)
			if !slices.EqualFunc(h, want[:min(k, len(want))], sameEntry) {
				t.Fatalf("trial %d: selecting %d gives %v, want %v", trial, k, h, want[:min(k, len(want))])
			}
		}
	}
}

func sameEntry(a, b TopEntry) bool { return a.ID == b.ID && sameBits(a.Key, b.Key) }

// TestTopKWithNaNKeys maintains TopK subscriptions over units whose health
// goes NaN and back, on the incremental path (ViewAuto) and the
// recompute-every-tick path (forced ViewRescan); both must equal a brute
// force sort under the oracle's order after every Apply.
func TestTopKWithNaNKeys(t *testing.T) {
	for _, mode := range []plan.ViewMode{plan.ViewAuto, plan.ViewRescan} {
		t.Run(mode.String(), func(t *testing.T) {
			w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			health := func() float64 {
				switch rng.Intn(5) {
				case 0:
					return math.NaN()
				case 1:
					return float64(rng.Intn(4)) // ties
				}
				return rng.Float64() * 100
			}
			for i := 0; i < 60; i++ {
				if _, err := w.Spawn("Unit", map[string]value.Value{
					"x": value.Num(float64(i % 10)), "y": value.Num(float64(i / 10)), "health": value.Num(health()),
				}); err != nil {
					t.Fatal(err)
				}
			}
			r := New(w)
			everyone := func(x, y float64) bool { return true }
			cases := []struct {
				def  Def
				pass func(x, y float64) bool
				sub  *Sub
			}{
				{def: Def{Pred: "true", K: 5}, pass: everyone},
				{def: Def{Pred: "true", K: 55}, pass: everyone},
				{def: Def{Pred: "x >= 2 && x <= 7 && y >= 1 && y <= 4", K: 6},
					pass: func(x, y float64) bool { return x >= 2 && x <= 7 && y >= 1 && y <= 4 }},
			}
			for i := range cases {
				def := cases[i].def
				def.Class, def.Kind, def.Attr, def.Mode = "Unit", TopK, "health", mode
				if cases[i].sub, err = r.Subscribe(def); err != nil {
					t.Fatal(err)
				}
			}
			tab := w.ClassTable("Unit")
			xs, ys, hs := tab.NumColumn(tab.ColIndex("x")), tab.NumColumn(tab.ColIndex("y")), tab.NumColumn(tab.ColIndex("health"))
			for step := 0; step < 40; step++ {
				ids := w.IDs("Unit")
				for i := 0; i < 6; i++ {
					if err := w.SetState("Unit", ids[rng.Intn(len(ids))], "health", value.Num(health())); err != nil {
						t.Fatal(err)
					}
				}
				r.Apply(nil)
				for _, c := range cases {
					var want []TopEntry
					for _, id := range w.IDs("Unit") {
						if row := tab.Row(id); c.pass(xs[row], ys[row]) {
							want = append(want, TopEntry{ID: id, Key: hs[row]})
						}
					}
					slices.SortFunc(want, func(a, b TopEntry) int {
						if topOrderOracle(a, b) {
							return -1
						}
						return 1
					})
					want = want[:min(c.def.K, len(want))]
					if got := c.sub.Top(); !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("step %d sub %q K=%d:\n got %v\nwant %v", step, c.def.Pred, c.def.K, got, want)
					}
				}
			}
		})
	}
}
