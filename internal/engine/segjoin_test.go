package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

// segScenario is one join-heavy script for the segmented-driver
// differential: how to build and populate it, and how to churn it.
type segScenario struct {
	name, src, class string
	attrs            []string
	physics          bool
	populate         func(w *engine.World) error
	spawn            func(w *engine.World, i int) error
}

func segScenarios() []segScenario {
	return []segScenario{
		{
			name: "rts", src: core.SrcRTS, class: "Soldier", physics: true,
			attrs: []string{"player", "x", "y", "tx", "ty", "range", "health", "attack"},
			populate: func(w *engine.World) error {
				_, err := core.PopulateSoldiers(w, workload.Clustered(700, 2, 30, 400, 400, 7))
				return err
			},
			spawn: func(w *engine.World, i int) error {
				_, err := w.Spawn("Soldier", map[string]value.Value{
					"player": value.Str([]string{"red", "blue"}[i%2]),
					"x":      value.Num(float64(i * 37 % 400)), "y": value.Num(float64(i * 53 % 400)),
					"tx": value.Num(200), "ty": value.Num(200),
				})
				return err
			},
		},
		{
			name: "arena", src: core.SrcArena, class: "Fighter", physics: true,
			attrs: []string{"team", "x", "y", "tx", "ty", "range", "attack", "health"},
			populate: func(w *engine.World) error {
				_, err := core.PopulateArena(w, 900, 0.3, 0.2, 5)
				return err
			},
			spawn: func(w *engine.World, i int) error {
				side := core.ArenaSide(900)
				x, y := side/2+float64(i%40)-20, side/2+float64(i*7%40)-20
				_, err := w.Spawn("Fighter", map[string]value.Value{
					"team": value.Num(float64(i % 2)), "x": value.Num(x), "y": value.Num(y),
					"tx": value.Num(x), "ty": value.Num(y),
				})
				return err
			},
		},
		{
			name: "fig2", src: core.SrcFig2, class: "Unit",
			attrs: []string{"player", "x", "y", "range", "health"},
			populate: func(w *engine.World) error {
				_, err := core.PopulateUnits(w, workload.Clustered(800, 3, 25, 300, 300, 9), 10)
				return err
			},
			spawn: func(w *engine.World, i int) error {
				_, err := w.Spawn("Unit", map[string]value.Value{
					"x": value.Num(float64(i * 31 % 300)), "y": value.Num(float64(i * 17 % 300)),
					"range": value.Num(float64(5 + i%20)),
				})
				return err
			},
		},
	}
}

// runSegScenario runs a scenario for a few ticks with kill/spawn churn and
// returns its world.
func runSegScenario(t *testing.T, sc segScenario, opts engine.Options, oneSegment bool) *engine.World {
	t.Helper()
	s, err := core.LoadScenario(sc.name, sc.src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	w.SetOneSegment(oneSegment)
	if sc.physics {
		if err := w.Register(physics.New2D(physics.Config{
			Class: sc.class, XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
			Radius: 0.8, MaxSpeed: 2,
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.populate(w); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 5; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		if tick == 1 {
			ids := w.IDs(sc.class)
			for i := 0; i < len(ids); i += 9 {
				if err := w.Kill(sc.class, ids[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 60; i++ {
				if err := sc.spawn(w, i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return w
}

// diffAllState compares every state attribute of every live object bit for
// bit.
func diffAllState(a, b *engine.World, class string, attrs []string) string {
	ids := a.IDs(class)
	if len(ids) != len(b.IDs(class)) {
		return fmt.Sprintf("%d vs %d live objects", len(ids), len(b.IDs(class)))
	}
	for _, id := range ids {
		for _, attr := range attrs {
			av, _ := a.Get(class, id, attr)
			bv, ok := b.Get(class, id, attr)
			if !ok || !sameBits(av, bv) {
				return fmt.Sprintf("id %d %s: %v vs %v", id, attr, av, bv)
			}
		}
	}
	return ""
}

func sameBits(a, b value.Value) bool {
	if a.Kind() == value.KindNumber && b.Kind() == value.KindNumber {
		return math.Float64bits(a.AsNumber()) == math.Float64bits(b.AsNumber())
	}
	return a.Equal(b)
}

// TestSegmentedJoinDifferential pins the segmented batch join: on the rts,
// arena and Fig2 scripts under spawn/kill churn, joins hoisted into
// per-batch probes, the same batched joins run one probe at a time, and the
// scalar join interpreter end bit-identical to the Workers=1 unpartitioned
// scalar reference in every Workers {1, 4} × Partitions {0, 2} cell — and
// hoisting changes none of the join counters.
func TestSegmentedJoinDifferential(t *testing.T) {
	for _, sc := range segScenarios() {
		ref := runSegScenario(t, sc, engine.Options{Join: plan.JoinScalar, Workers: 1}, false)
		for _, strat := range []plan.Strategy{plan.Auto, plan.GridIndex} {
			for _, workers := range []int{1, 4} {
				for _, parts := range []int{0, 2} {
					opts := engine.Options{Strategy: strat, Workers: workers, Partitions: parts}
					label := fmt.Sprintf("%s/%v/w%d/p%d", sc.name, strat, workers, parts)
					opts.Join = plan.JoinBatched
					hoisted := runSegScenario(t, sc, opts, false)
					if hoisted.HoistedSites() == 0 {
						t.Fatalf("%s: no site was hoisted", label)
					}
					one := runSegScenario(t, sc, opts, true)
					opts.Join = plan.JoinScalar
					scalar := runSegScenario(t, sc, opts, false)
					for arm, w := range map[string]*engine.World{"hoisted": hoisted, "one-segment": one, "scalar": scalar} {
						if d := diffAllState(ref, w, sc.class, sc.attrs); d != "" {
							t.Fatalf("%s %s diverged from the reference: %s", label, arm, d)
						}
					}
					hs, os := hoisted.ExecStats(), one.ExecStats()
					if hs.JoinProbeRows != os.JoinProbeRows || hs.JoinMatchRows != os.JoinMatchRows || hs.JoinBatchedRows != os.JoinBatchedRows {
						t.Fatalf("%s: join counters hoisted %d/%d/%d, one-segment %d/%d/%d", label,
							hs.JoinProbeRows, hs.JoinMatchRows, hs.JoinBatchedRows,
							os.JoinProbeRows, os.JoinMatchRows, os.JoinBatchedRows)
					}
				}
			}
		}
	}
}

// srcVarRange joins over per-unit box sizes and folds order-sensitive
// float sums, so any change in the grid's cell size shows in the result.
const srcVarRange = `
class U {
  state:
    number x = 0;
    number y = 0;
    number range = 10;
    number w = 0;
    number n = 0;
  effects:
    number s : sum;
  update:
    n = s;
  run {
    accum number t with sum over U u from U {
      if (u.x >= x - range && u.x <= x + range && u.y >= y - range && u.y <= y + range) {
        t <- u.w;
      }
    } in {
      s <- t;
    }
  }
}
`

func varRangeWorld(t *testing.T, opts engine.Options, n int, side float64, rangeOf func(i int) float64) *engine.World {
	t.Helper()
	s, err := core.LoadScenario("var-range", srcVarRange)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		if _, err := w.Spawn("U", map[string]value.Value{
			"x": value.Num(rng.Float64() * side), "y": value.Num(rng.Float64() * side),
			"range": value.Num(rangeOf(i)), "w": value.Num(rng.Float64()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestGridCellIndependentOfWorkers is the wall row for the grid's cell-size
// statistic: with per-unit box sizes and float sums on a forced grid, the
// cell size — and with it the candidate order and every sum — must not
// depend on Workers or on how the worker pool happened to schedule shards.
// Each Partitions value is held against its own Workers=1 run (partitioned
// probes fold in row order, unpartitioned ones in cell order).
func TestGridCellIndependentOfWorkers(t *testing.T) {
	const n, ticks = 4000, 4
	rangeOf := func(i int) float64 { return 3 + float64(i*7919%41) }
	ids := func(w *engine.World) []value.ID { return w.IDs("U") }
	for _, parts := range []int{0, 2} {
		run := func(workers int) *engine.World {
			w := varRangeWorld(t, engine.Options{Strategy: plan.GridIndex, Workers: workers, Partitions: parts}, n, 600, rangeOf)
			if err := w.Run(ticks); err != nil {
				t.Fatal(err)
			}
			return w
		}
		ref := run(1)
		for rep := 0; rep < 2; rep++ {
			if d := diffClassWorlds(ref, run(4), "U", []string{"n"}, ids(ref)); d != "" {
				t.Fatalf("Partitions=%d, Workers=4 run %d diverged from Workers=1: %s", parts, rep, d)
			}
		}
	}
}

// TestGridHugeProbeBoxes: one probe box far larger than the world — or
// infinite, or NaN — must neither stall a grid tick nor drop matches: the
// grid answers exactly as the range tree, each tick within a second.
func TestGridHugeProbeBoxes(t *testing.T) {
	const n = 300
	for _, huge := range []float64{1e6, 1e9, math.Inf(1), math.NaN()} {
		rangeOf := func(i int) float64 {
			if i == n-1 {
				return huge
			}
			return 12
		}
		grid := varRangeWorld(t, engine.Options{Strategy: plan.GridIndex}, n, 1000, rangeOf)
		tree := varRangeWorld(t, engine.Options{Strategy: plan.RangeTreeIndex}, n, 1000, rangeOf)
		for tick := 0; tick < 3; tick++ {
			done := make(chan error, 1)
			go func() { done <- grid.RunTick() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatalf("range %v: grid tick %d still running after 1s", huge, tick)
			}
			if err := tree.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		// The two indexes visit the same candidates in different orders,
		// so the float sums agree up to rounding.
		for _, id := range tree.IDs("U") {
			g, _ := grid.Get("U", id, "n")
			r, _ := tree.Get("U", id, "n")
			if math.Abs(g.AsNumber()-r.AsNumber()) > 1e-9*math.Max(1, math.Abs(r.AsNumber())) {
				t.Fatalf("range %v, id %d: grid sum %v, range tree %v", huge, id, g, r)
			}
		}
		last := tree.IDs("U")[n-1]
		if r, _ := tree.Get("U", last, "n"); !math.IsNaN(huge) && r.AsNumber() < 1 {
			t.Fatalf("range %v: the huge box matched nearly nothing (%v)", huge, r)
		}
	}
}
