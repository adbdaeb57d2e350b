package baseline_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
)

// srcKitchenSink exercises every language feature the two executors share:
// a rectangular accum join, a minby selection accum, cross-object and self
// emissions, set effects, multi-tick phases, transactions with constraints,
// and reactive handlers.
const srcKitchenSink = `
class Agent {
  state:
    number x = 0;
    number y = 0;
    number r = 8;
    number hp = 100;
    number gold = 50;
    number mark = 0;
    ref<Agent> rival = null;
    set<number> tags;
  effects:
    number damage : sum;
    number dgold : sum;
    number seen : max;
    ref<Agent> pick : minby;
    set<number> dtags : union;
    number marked : max;
  update:
    hp = hp - damage;
    gold = gold + dgold;
    mark = marked;
    tags = dtags;
  handlers:
    when (hp < 90) {
      marked <- 1;
    }
  run {
    accum number near with sum over Agent a from Agent {
      if (a.x >= x - r && a.x <= x + r && a.y >= y - r && a.y <= y + r) {
        near <- 1;
        a.damage <- 0.25;
      }
    } in {
      if (near > 2) {
        dtags <= near;
      }
    }
    accum ref<Agent> closest with minby over Agent a from Agent {
      if (a.x >= x - r && a.x <= x + r && id(a) != id(self())) {
        closest <- a by dist(a.x, a.y, x, y);
      }
    } in {
      if (closest != null) {
        closest.seen <- 1;
      }
    }
    waitNextTick;
    if (rival != null && gold >= 10) {
      atomic (gold >= 0, rival.gold >= 0) {
        dgold <- 0 - 10;
        rival.dgold <- 10;
      }
    }
  }
}
`

func populate(t *testing.T, sc *core.Scenario, seed int64, n int, strat plan.Strategy, workers int) (*engine.World, *baseline.World) {
	t.Helper()
	w, err := sc.NewWorld(engine.Options{Strategy: strat, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	b := sc.NewBaseline()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]value.ID, 0, n)
	for i := 0; i < n; i++ {
		init := map[string]value.Value{
			"x":    value.Num(float64(rng.Intn(40))),
			"y":    value.Num(float64(rng.Intn(40))),
			"gold": value.Num(float64(10 + rng.Intn(50))),
		}
		id, err := w.Spawn("Agent", init)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Spawn("Agent", init); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wire random rivalries (possibly self or dangling-free refs).
	for _, id := range ids {
		if rng.Intn(2) == 0 {
			r := ids[rng.Intn(len(ids))]
			w.SetState("Agent", id, "rival", value.Ref(r))
			b.SetState("Agent", id, "rival", value.Ref(r))
		}
	}
	return w, b
}

func statesMatch(t *testing.T, w *engine.World, b *baseline.World, attrs []string) bool {
	t.Helper()
	for _, id := range w.IDs("Agent") {
		for _, attr := range attrs {
			ev, eok := w.Get("Agent", id, attr)
			bv, bok := b.Get("Agent", id, attr)
			if eok != bok {
				t.Logf("agent %d %s: presence %v vs %v", id, attr, eok, bok)
				return false
			}
			if !eok {
				continue
			}
			switch ev.Kind() {
			case value.KindNumber:
				if !value.NumbersEqual(ev.AsNumber(), bv.AsNumber(), 1e-9) {
					t.Logf("agent %d %s: %v vs %v", id, attr, ev, bv)
					return false
				}
			default:
				if !ev.Equal(bv) {
					t.Logf("agent %d %s: %v vs %v", id, attr, ev, bv)
					return false
				}
			}
		}
	}
	return true
}

var equivAttrs = []string{"hp", "gold", "mark", "tags", "x", "y"}

// TestEngineBaselineEquivalence is the reproduction's strongest correctness
// check: the set-at-a-time engine (under every physical strategy, serial
// and parallel) and the object-at-a-time interpreter must produce identical
// state trajectories, because they implement the same language semantics
// (§2's claim that compilation to relational algebra preserves the
// script-level meaning).
func TestEngineBaselineEquivalence(t *testing.T) {
	sc, err := core.LoadScenario("kitchen-sink", srcKitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		strat   plan.Strategy
		workers int
	}{
		{plan.NestedLoop, 1},
		{plan.RangeTreeIndex, 1},
		{plan.GridIndex, 1},
		{plan.Auto, 1},
		{plan.Auto, 4},
	}
	for _, cfg := range configs {
		w, b := populate(t, sc, 1234, 60, cfg.strat, cfg.workers)
		for tick := 0; tick < 6; tick++ {
			if err := w.RunTick(); err != nil {
				t.Fatalf("%v/%d engine tick %d: %v", cfg.strat, cfg.workers, tick, err)
			}
			if err := b.RunTick(); err != nil {
				t.Fatalf("baseline tick %d: %v", tick, err)
			}
			if !statesMatch(t, w, b, equivAttrs) {
				t.Fatalf("%v workers=%d: divergence at tick %d", cfg.strat, cfg.workers, tick)
			}
		}
	}
}

// Property: equivalence holds for random seeds and population sizes.
func TestEquivalenceProperty(t *testing.T) {
	sc, err := core.LoadScenario("kitchen-sink", srcKitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 5
		w, b := populate(t, sc, seed, n, plan.Auto, 1)
		for tick := 0; tick < 4; tick++ {
			if err := w.RunTick(); err != nil {
				return false
			}
			if err := b.RunTick(); err != nil {
				return false
			}
			if !statesMatch(t, w, b, equivAttrs) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFig2ScenarioEquivalence covers the canonical scenarios from core.
func TestScenarioEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name, src, class string
		attrs            []string
	}{
		{"fig2", core.SrcFig2, "Unit", []string{"health"}},
		{"guard", core.SrcGuard, "Guard", []string{"x", "y", "health", "fleeing", "items"}},
		{"market", core.SrcMarket, "Trader", []string{"gold", "stock"}},
	} {
		sc, err := core.LoadScenario(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := sc.NewBaseline()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30; i++ {
			var init map[string]value.Value
			switch tc.class {
			case "Unit":
				init = map[string]value.Value{
					"x": value.Num(float64(rng.Intn(60))),
					"y": value.Num(float64(rng.Intn(60))),
				}
			case "Guard":
				init = map[string]value.Value{
					"px": value.Num(float64(rng.Intn(20))),
					"py": value.Num(float64(rng.Intn(20))),
				}
			case "Trader":
				init = map[string]value.Value{
					"gold":  value.Num(float64(rng.Intn(60))),
					"stock": value.Num(float64(rng.Intn(3))),
				}
			}
			eid, err := w.Spawn(tc.class, init)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Spawn(tc.class, init); err != nil {
				t.Fatal(err)
			}
			_ = eid
		}
		if tc.class == "Trader" {
			// Wire buyers to sellers.
			ids := w.IDs("Trader")
			for i, id := range ids {
				if i%3 != 0 {
					seller := ids[(i/3)*3]
					w.SetState("Trader", id, "seller", value.Ref(seller))
					w.SetState("Trader", id, "wants", value.Num(1))
					b.SetState("Trader", id, "seller", value.Ref(seller))
					b.SetState("Trader", id, "wants", value.Num(1))
				}
			}
		}
		for tick := 0; tick < 5; tick++ {
			if err := w.RunTick(); err != nil {
				t.Fatalf("%s engine: %v", tc.name, err)
			}
			if err := b.RunTick(); err != nil {
				t.Fatalf("%s baseline: %v", tc.name, err)
			}
			for _, id := range w.IDs(tc.class) {
				for _, attr := range tc.attrs {
					ev, _ := w.Get(tc.class, id, attr)
					bv, _ := b.Get(tc.class, id, attr)
					if ev.Kind() == value.KindNumber {
						if !value.NumbersEqual(ev.AsNumber(), bv.AsNumber(), 1e-9) {
							t.Fatalf("%s tick %d: #%d.%s = %v vs %v", tc.name, tick, id, attr, ev, bv)
						}
					} else if !ev.Equal(bv) {
						t.Fatalf("%s tick %d: #%d.%s = %v vs %v", tc.name, tick, id, attr, ev, bv)
					}
				}
			}
		}
	}
}

const srcRollback = `
class Trader {
  state:
    number gold = 0;
    number pay = 0;
    number tip = 0;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
  update:
    gold = gold + dgold;
  run {
    if (seller != null && tip > 0) {
      seller.dgold <- tip;
    }
    if (seller != null && pay > 0) {
      atomic (gold >= 0) {
        dgold <- 0 - pay;
        seller.dgold <- pay;
      }
    }
  }
}
`

// An aborted transaction must leave every effect it touched exactly as it
// found it. A buyer paying 1e17 who cannot afford it folds into the same
// seller.dgold as 0.1 that did commit (from a conflicting buyer, or from a
// plain emission); subtracting the abort back out would leave 0 there, not
// 0.1. Covered under serial admission, batched admission — the conflict
// group path and the single-transaction lane path — and the baseline.
func TestAbortedTxnLeavesCommittedSumExact(t *testing.T) {
	sc := core.MustLoad("rollback", srcRollback)
	type world interface {
		Spawn(string, map[string]value.Value) (value.ID, error)
		RunTick() error
		Get(string, value.ID, string) (value.Value, bool)
	}
	scenarios := []struct {
		name   string
		lanes  int64                    // transactions batched admission runs as lanes
		buyers []map[string]value.Value // "seller" is filled in
	}{
		{"conflict group", 0, []map[string]value.Value{
			{"gold": value.Num(1), "pay": value.Num(0.1)},
			{"pay": value.Num(1e17)},
		}},
		{"single lane", 1, []map[string]value.Value{
			{"tip": value.Num(0.1)},
			{"pay": value.Num(1e17)},
		}},
	}
	for _, s := range scenarios {
		worlds := map[string]func() world{
			"engine/scalar": func() world {
				w, err := sc.NewWorld(engine.Options{Txn: plan.TxnScalar})
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
			"engine/batched": func() world {
				w, err := sc.NewWorld(engine.Options{Txn: plan.TxnBatched})
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
			"baseline": func() world { return sc.NewBaseline() },
		}
		for wname, mk := range worlds {
			w := mk()
			seller, err := w.Spawn("Trader", nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range s.buyers {
				init := map[string]value.Value{"seller": value.Ref(seller)}
				for k, v := range b {
					init[k] = v
				}
				if _, err := w.Spawn("Trader", init); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			if g, _ := w.Get("Trader", seller, "gold"); g.AsNumber() != 0.1 {
				t.Errorf("%s, %s: seller gold = %v, want 0.1", s.name, wname, g)
			}
			if ew, ok := w.(*engine.World); ok && wname == "engine/batched" {
				if got := ew.ExecStats().TxnBatchedRows; got != s.lanes {
					t.Errorf("%s: %d transactions ran as lanes, want %d", s.name, got, s.lanes)
				}
			}
		}
	}
}
