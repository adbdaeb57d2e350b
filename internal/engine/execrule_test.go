package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

// srcJoinAndTrade holds a phase around a hoisted range join (Fig. 2's
// crowding loop) and a frame-free atomic purchase (the market's), so one
// tick exercises the exec, join and txn axes.
const srcJoinAndTrade = `
class Unit {
  state:
    number x = 0;
    number y = 0;
    number health = 100;
  effects:
    number damage : sum;
  update:
    health = health - damage;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (u.x >= x - 10 && u.x <= x + 10 && u.y >= y - 10 && u.y <= y + 10) {
        cnt <- 1;
      }
    } in {
      damage <- cnt * 0.5;
    }
  }
}

class Trader {
  state:
    number gold = 0;
    number stock = 0;
    number wants = 0;
    number price = 25;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    number dstock : sum;
  update:
    gold = gold + dgold;
    stock = stock + dstock;
  run {
    if (wants > 0 && seller != null && gold >= price) {
      atomic (gold >= 0, seller.stock >= 0) {
        dgold <- 0 - price;
        seller.dgold <- price;
        dstock <- 1;
        seller.dstock <- 0 - 1;
      }
    }
  }
}
`

// TestDefaultsRunSetAtATime pins the default of every execution axis on a
// world far too small to amortize anything: three rows still run their
// phases as kernels, their join batched and their transaction through the
// batched admission driver.
func TestDefaultsRunSetAtATime(t *testing.T) {
	w := mustVecWorld(t, srcJoinAndTrade, engine.Options{})
	if _, err := w.Spawn("Unit", map[string]value.Value{"x": value.Num(1), "y": value.Num(2)}); err != nil {
		t.Fatal(err)
	}
	seller, err := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Spawn("Trader", map[string]value.Value{
		"gold": value.Num(100), "wants": value.Num(1), "seller": value.Ref(seller),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	st := w.ExecStats()
	if st.ScalarRows != 0 || st.VectorRows == 0 {
		t.Fatalf("scalar rows %d, vector rows %d: want every row on kernels", st.ScalarRows, st.VectorRows)
	}
	if st.JoinBatchedRows == 0 {
		t.Fatal("the join never ran batched")
	}
	if st.TxnBatchedRows == 0 {
		t.Fatal("the purchase was never admitted batched")
	}
}

// TestEmptyPhaseRunsNothing pins that a phase no live row is at runs
// neither kernels nor the scalar row loop. srcBlip's second phase only
// the scalar loop can run: while every row waits at the first, the pass
// is kernels only; once every row moved on, the first runs no kernels.
func TestEmptyPhaseRunsNothing(t *testing.T) {
	const n = 300
	const rules = 2 * n // srcBlip's two update rules run as kernels every tick
	w := mustVecWorld(t, srcBlip, engine.Options{})
	for i := 0; i < n; i++ {
		if _, err := w.Spawn("Blip", map[string]value.Value{"x": value.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	kernels, scalarLoop := w.EffectExec("Blip")
	if !kernels[0] || kernels[1] || scalarLoop {
		t.Fatalf("all rows at phase 0: kernels %v, scalar loop %v; want [true false], false", kernels, scalarLoop)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if st := w.ExecStats(); st.VectorRows != n+rules || st.ScalarRows != 0 {
		t.Fatalf("tick 1: vector rows %d, scalar rows %d; want %d, 0", st.VectorRows, st.ScalarRows, n+rules)
	}
	kernels, scalarLoop = w.EffectExec("Blip")
	if kernels[0] || kernels[1] || !scalarLoop {
		t.Fatalf("all rows at phase 1: kernels %v, scalar loop %v; want [false false], true", kernels, scalarLoop)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if st := w.ExecStats(); st.VectorRows != n+2*rules || st.ScalarRows != n {
		t.Fatalf("tick 2: vector rows %d, scalar rows %d; want %d, %d", st.VectorRows, st.ScalarRows, n+2*rules, n)
	}
}

// TestWorkersFanOutPerBatch pins the parallelism rule: a pass splits into
// min(Workers, batch-aligned shards), so Workers: 2 over a 2048-row extent
// (two vexpr batches) dispatches two shards however little work they hold.
func TestWorkersFanOutPerBatch(t *testing.T) {
	const src = `
class Dot {
  state:
    number x = 0;
  update:
    x = x + 1;
}
`
	w := mustVecWorld(t, src, engine.Options{Workers: 2})
	for i := 0; i < 2048; i++ {
		if _, err := w.Spawn("Dot", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := w.ExecStats().ParallelShards; got != 2 {
		t.Fatalf("dispatched %d shards, want 2", got)
	}
}

// srcShapes holds one accum site per remaining predicate shape: P probes P
// over a 1-D range and by an equality key, and Seeker — two phases split by
// waitNextTick — probes P over a 1-D range in its second phase.
const srcShapes = `
class P {
  state:
    number x = 0;
    number team = 0;
    number near = 0;
    number mates = 0;
  effects:
    number dn : sum;
    number dm : sum;
  update:
    near = dn;
    mates = dm;
  run {
    accum number c with sum over P q from P {
      if (q.x >= x - 5 && q.x <= x + 5) {
        c <- 1;
      }
    } in {
      dn <- c;
    }
    accum number k with sum over P q from P {
      if (q.team == team) {
        k <- 1;
      }
    } in {
      dm <- k;
    }
  }
}

class Seeker {
  state:
    number x = 0;
    number seen = 0;
  effects:
    number ds : sum;
  update:
    seen = seen + ds;
  run {
    ds <- 1;
    waitNextTick;
    accum number c with sum over P q from P {
      if (q.x >= x - 5 && q.x <= x + 5) {
        c <- 1;
      }
    } in {
      ds <- c;
    }
  }
}
`

// TestIndexFollowsPredicateShape pins the join-strategy rule from the first
// tick on: two bounded range dimensions take the grid, one range dimension
// the range tree, an equality key the hash index, and a site with no live
// row at its phase builds nothing, even when that class has several phases
// over a populated source — whether the class is empty or all its rows sit
// at another phase.
func TestIndexFollowsPredicateShape(t *testing.T) {
	fig2, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shapes := mustVecWorld(t, srcShapes, engine.Options{})
	for i := 0; i < 100; i++ {
		if _, err := fig2.Spawn("Unit", map[string]value.Value{
			"x": value.Num(float64(i * 7 % 97)), "y": value.Num(float64(i * 13 % 89)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := shapes.Spawn("P", map[string]value.Value{
			"x": value.Num(float64(i * 7 % 97)), "team": value.Num(float64(i % 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		w    *engine.World
		want []string
	}{
		{fig2, []string{"Unit accum(phase 0) -> grid"}},
		{shapes, []string{
			"P accum(phase 0) -> range-tree",
			"P accum(phase 0) -> hash",
			"Seeker accum(phase 1) -> nested-loop",
		}},
	} {
		for tick := 0; tick < 3; tick++ {
			if err := c.w.RunTick(); err != nil {
				t.Fatal(err)
			}
			got := c.w.SiteStrategies()
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("tick %d: strategies\n%s\nwant\n%s", tick, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		}
	}

	// 2000 Seekers over 2000 P rows, every Seeker at phase 0 on tick 0: the
	// phase-1 site has nothing to probe and builds nothing; on tick 1 every
	// Seeker is at phase 1 and the site takes its range tree; on tick 2 they
	// are back at phase 0.
	w := mustVecWorld(t, srcShapes, engine.Options{})
	for i := 0; i < 2000; i++ {
		if _, err := w.Spawn("P", map[string]value.Value{"x": value.Num(float64(i % 97)), "team": value.Num(float64(i % 3))}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Spawn("Seeker", map[string]value.Value{"x": value.Num(float64(i % 89))}); err != nil {
			t.Fatal(err)
		}
	}
	for tick, want := range []string{"nested-loop", "range-tree", "nested-loop"} {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		if got := w.SiteStrategies()[2]; got != "Seeker accum(phase 1) -> "+want {
			t.Fatalf("tick %d: %s, want Seeker accum(phase 1) -> %s", tick, got, want)
		}
	}
}
