package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/value"
)

// diffRangeSrc exercises range joins with exact-arithmetic folds (integer
// count sums and a maxby with a total deterministic tie-break), so results
// are bit-identical across candidate orders — and therefore across physical
// strategies, join-execution modes and worker counts. The maxby join has a
// key conjunct, which each index applies in or after its probe.
const diffRangeSrc = `
class U {
  state:
    number x = 0;
    number y = 0;
    number hp = 100;
    number seen = 0;
    number best = 0;
  effects:
    number s : sum;
    number b : max;
  update:
    seen = s;
    best = b;
  run {
    accum number cnt with sum over U u from U {
      if (u.x >= x - 8 && u.x <= x + 8 && u.y >= y - 8 && u.y <= y + 8) {
        cnt <- 1;
      }
    } in {
      accum ref<U> tgt with maxby over U u from U {
        if (u.x >= x - 8 && u.x <= x + 8 && u.y >= y - 8 && u.y <= y + 8 && u.hp > 40 && u.hp != hp) {
          tgt <- u by u.hp;
        }
      } in {
        s <- cnt;
        if (tgt != null) {
          b <- id(tgt);
        }
      }
    }
  }
}
`

// diffEqSrc exercises a composite equality join (two keyable conjuncts, a
// key conjunct across two attributes, and a strict-inequality residual)
// with integer sums.
const diffEqSrc = `
class V {
  state:
    number team = 0;
    number grp = 0;
    number score = 0;
    number tally = 0;
  effects:
    number t : sum;
  update:
    tally = t;
  run {
    accum number s with sum over V v from V {
      if (v.team == team && v.grp == grp && v.score != grp && v.score > 10) {
        s <- v.score;
      }
    } in {
      t <- s;
    }
  }
}
`

type matrixWorkload struct {
	src        string
	class      string
	attrs      []string
	strategies []plan.Strategy
	spawn      func(w *World, i int) (value.ID, error)
}

func rangeWorkload() matrixWorkload {
	return matrixWorkload{
		src:        diffRangeSrc,
		class:      "U",
		attrs:      []string{"x", "y", "hp", "seen", "best"},
		strategies: []plan.Strategy{plan.NestedLoop, plan.RangeTreeIndex, plan.GridIndex},
		spawn: func(w *World, i int) (value.ID, error) {
			return w.Spawn("U", map[string]value.Value{
				"x":  value.Num(float64(i * 7 % 97)),
				"y":  value.Num(float64(i * 13 % 89)),
				"hp": value.Num(float64(30 + i%70)),
			})
		},
	}
}

func eqWorkload() matrixWorkload {
	return matrixWorkload{
		src:        diffEqSrc,
		class:      "V",
		attrs:      []string{"team", "grp", "score", "tally"},
		strategies: []plan.Strategy{plan.NestedLoop, plan.HashIndex},
		spawn: func(w *World, i int) (value.ID, error) {
			return w.Spawn("V", map[string]value.Value{
				"team":  value.Num(float64(i % 3)),
				"grp":   value.Num(float64(i % 5)),
				"score": value.Num(float64(i % 25)),
			})
		},
	}
}

// runMatrixWorld runs a workload with mid-run spawn/kill churn and returns
// the raw float bits of every (id, attr) cell.
func runMatrixWorld(t *testing.T, wl matrixWorkload, opts Options, n, ticks int) map[string]uint64 {
	t.Helper()
	w := newWorld(t, wl.src, opts)
	ids := make([]value.ID, 0, n)
	for i := 0; i < n; i++ {
		id, err := wl.spawn(w, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for tick := 0; tick < ticks; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		// Deterministic churn: kill a stride of survivors, spawn fresh rows.
		if tick == 1 {
			for i := 0; i < len(ids); i += 7 {
				if err := w.Kill(wl.class, ids[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n/5; i++ {
				if _, err := wl.spawn(w, n+i*3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	out := make(map[string]uint64)
	for _, id := range w.IDs(wl.class) {
		for _, a := range wl.attrs {
			out[fmt.Sprintf("%d.%s", id, a)] = math.Float64bits(w.MustGet(wl.class, id, a).AsNumber())
		}
	}
	return out
}

func diffStates(t *testing.T, label string, ref, got map[string]uint64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d cells vs reference %d", label, len(got), len(ref))
	}
	for k, rv := range ref {
		if gv, ok := got[k]; !ok || gv != rv {
			t.Fatalf("%s: cell %s = %x, reference %x", label, k, got[k], rv)
		}
	}
}

// TestJoinDifferentialMatrix pins the headline safety net: every cell of
// {scalar, batched} × {NestedLoop, Hash, Grid, RangeTree} × Workers {1, 4}
// ends bit-identical to the Workers=1 scalar nested-loop reference, under
// spawn/kill churn.
func TestJoinDifferentialMatrix(t *testing.T) {
	for _, wl := range []matrixWorkload{rangeWorkload(), eqWorkload()} {
		ref := runMatrixWorld(t, wl, Options{Strategy: plan.NestedLoop, Join: plan.JoinScalar, Workers: 1}, 120, 4)
		if len(ref) == 0 {
			t.Fatalf("%s: empty reference state", wl.class)
		}
		for _, strat := range wl.strategies {
			for _, join := range []plan.JoinMode{plan.JoinScalar, plan.JoinBatched} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%v/%v/w%d", wl.class, strat, join, workers)
					got := runMatrixWorld(t, wl, Options{Strategy: strat, Join: join, Workers: workers}, 120, 4)
					diffStates(t, label, ref, got)
				}
			}
		}
	}
}

// floatJoinSrc uses order-sensitive float sums (both through the columnar
// fold and through a generic let-bearing inner body): scalar and batched
// execution of the same strategy must still be bit-identical, because the
// batched driver visits candidates in exactly the scalar order.
const floatJoinSrc = `
class F {
  state:
    number x = 0;
    number y = 0;
    number w = 0;
    number acc1 = 0;
    number acc2 = 0;
    number mean = 0;
  effects:
    number o1 : sum;
    number o2 : sum;
    number m : avg;
  update:
    acc1 = o1;
    acc2 = o2;
    mean = m;
  run {
    accum number a with sum over F u from F {
      if (u.x >= x - 9 && u.x <= x + 9 && u.y >= y - 9 && u.y <= y + 9) {
        a <- u.x * 0.1 + u.y * 0.3 + w * 0.01;
      }
    } in {
      accum number q with avg over F u from F {
        if (u.x >= x - 9 && u.x <= x + 9 && u.y >= y - 9 && u.y <= y + 9) {
          let d = u.w - w;
          q <- d * d * 0.123;
        }
      } in {
        o1 <- a;
        o2 <- q;
        m <- a * 0.5;
      }
    }
  }
}
`

func TestJoinBatchedBitIdenticalFloatFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spawnF := func(w *World, i int) (value.ID, error) {
		return w.Spawn("F", map[string]value.Value{
			"x": value.Num(rng.Float64() * 90),
			"y": value.Num(rng.Float64() * 90),
			"w": value.Num(rng.Float64()*7 - 3.5),
		})
	}
	for _, strat := range []plan.Strategy{plan.NestedLoop, plan.RangeTreeIndex, plan.GridIndex} {
		states := make([]map[string]uint64, 0, 2)
		for _, join := range []plan.JoinMode{plan.JoinScalar, plan.JoinBatched} {
			rng = rand.New(rand.NewSource(23)) // same coordinates per run
			wl := matrixWorkload{src: floatJoinSrc, class: "F",
				attrs: []string{"acc1", "acc2", "mean"}, spawn: spawnF}
			states = append(states, runMatrixWorld(t, wl, Options{Strategy: strat, Join: join}, 150, 3))
		}
		diffStates(t, fmt.Sprintf("float/%v", strat), states[0], states[1])
	}
}

// TestGridCellAdaptsUnderDisableStats is the regression for the cell-sizing
// satellite: probe extents must keep feeding the grid's cell EMA even with
// statistics collection disabled, instead of pinning the cell at the 64.0
// default forever.
func TestGridCellAdaptsUnderDisableStats(t *testing.T) {
	w := newWorld(t, diffRangeSrc, Options{Strategy: plan.GridIndex, DisableStats: true})
	for i := 0; i < 200; i++ {
		if _, err := w.Spawn("U", map[string]value.Value{
			"x": value.Num(float64(i % 37)), "y": value.Num(float64(i % 31)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	var gridSite *siteRT
	for _, s := range w.sites {
		if s.parts[0].builtStrategy == plan.GridIndex && s.parts[0].builtOK {
			gridSite = s
			break
		}
	}
	if gridSite == nil {
		t.Fatal("no grid site built")
	}
	if !gridSite.boxExtent.Ready() {
		t.Fatal("probe-extent EMA never sampled under DisableStats")
	}
	// The probe boxes are 16 wide (range 8); the adapted cell must have
	// left the 64.0 default far behind.
	if c := gridSite.parts[0].builtCell; c > 32 || c <= 0 {
		t.Fatalf("grid cell stuck at %v (EMA %v); want ~16", c, gridSite.boxExtent.Value())
	}
}

// TestPrepareSitesZeroAllocSteadyState pins the engine half of the
// allocation criterion: per-tick index preparation — version checks, grid
// sync, tree/hash rebuilds into the retained arenas — allocates nothing
// once warm.
func TestPrepareSitesZeroAllocSteadyState(t *testing.T) {
	for _, strat := range []plan.Strategy{plan.RangeTreeIndex, plan.GridIndex} {
		w := newWorld(t, diffRangeSrc, Options{Strategy: strat, Workers: 1})
		for i := 0; i < 300; i++ {
			if _, err := w.Spawn("U", map[string]value.Value{
				"x": value.Num(float64(i % 53)), "y": value.Num(float64(i % 47)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Run(3); err != nil {
			t.Fatal(err)
		}
		rt := w.classes["U"]
		xCol := rt.cls.StateIndex("x")
		flip := 0.0
		bump := func() {
			// Perturb one coordinate so the version check cannot shortcut
			// to full reuse: every index rebuilds.
			flip = 1 - flip
			rt.tab.SetNumAt(0, xCol, flip)
			w.prepareSites()
		}
		bump()
		bump()
		if a := testing.AllocsPerRun(30, bump); a > 0 {
			t.Errorf("%v: prepareSites allocates %.1f/run in steady state", strat, a)
		}
	}

	w := newWorld(t, diffEqSrc, Options{Strategy: plan.HashIndex, Workers: 1})
	for i := 0; i < 300; i++ {
		if _, err := w.Spawn("V", map[string]value.Value{
			"team": value.Num(float64(i % 3)), "grp": value.Num(float64(i % 5)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	rt := w.classes["V"]
	teamCol := rt.cls.StateIndex("team")
	flip := 0.0
	bump := func() {
		flip = 1 - flip
		rt.tab.SetNumAt(0, teamCol, flip)
		w.prepareSites()
	}
	bump()
	bump()
	if a := testing.AllocsPerRun(30, bump); a > 0 {
		t.Errorf("hash: prepareSites allocates %.1f/run in steady state", a)
	}
}

// TestIndexReuseAndIncrement checks the maintenance ladder: a static world
// reuses its indexes verbatim; light churn rebuilds the grid, which answers
// exactly as the range tree does on the same churn.
func TestIndexReuseAndIncrement(t *testing.T) {
	build := func(strat plan.Strategy) (*World, []value.ID) {
		w := newWorld(t, diffRangeSrc, Options{Strategy: strat})
		var ids []value.ID
		for i := 0; i < 200; i++ {
			id, err := w.Spawn("U", map[string]value.Value{
				"x": value.Num(float64(i % 37)), "y": value.Num(float64(i % 41)),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		return w, ids
	}
	w, ids := build(plan.GridIndex)
	ref, _ := build(plan.RangeTreeIndex)
	// The workload writes no indexed column (x and y have no update rules),
	// so after warmup every tick must reuse.
	before := w.ExecStats()
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	after := w.ExecStats()
	if after.IndexReuses <= before.IndexReuses {
		t.Fatalf("static world did not reuse indexes (%d -> %d)", before.IndexReuses, after.IndexReuses)
	}
	if err := ref.Run(3); err != nil {
		t.Fatal(err)
	}
	// Light churn: move two objects between ticks → the grids rebuild.
	for _, v := range []*World{w, ref} {
		v.SetState("U", ids[3], "x", value.Num(500))
		v.SetState("U", ids[5], "y", value.Num(700))
	}
	before = w.ExecStats()
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunTick(); err != nil {
		t.Fatal(err)
	}
	after = w.ExecStats()
	if after.IndexReuses != before.IndexReuses || after.IndexIncrements != 0 {
		t.Fatalf("light churn: reuses %d -> %d, increments %d; want a rebuild", before.IndexReuses, after.IndexReuses, after.IndexIncrements)
	}
	for _, id := range ids {
		for _, attr := range []string{"seen", "best"} {
			if a, b := w.MustGet("U", id, attr), ref.MustGet("U", id, attr); !a.Equal(b) {
				t.Fatalf("id %d %s: rebuilt grid %v, range tree %v", id, attr, a, b)
			}
		}
	}
}

// TestEmptyExtentSkipsIndexBuild: with nothing to probe or nothing to
// index, prepareSites must not build anything.
func TestEmptyExtentSkipsIndexBuild(t *testing.T) {
	w := newWorld(t, diffRangeSrc, Options{Strategy: plan.GridIndex})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.sites {
		if s.parts[0].builtOK || s.parts[0].tree != nil || s.parts[0].hash != nil {
			t.Fatal("index built for an empty extent")
		}
	}
	if _, err := w.Spawn("U", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
}
