package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

// srcVecBot exercises the whole vectorizable subset: multi-phase scripts
// with lets, nested ifs, self-targeted emissions (sum, max and keyed
// minby), bool and ref update rules, cross-object reads through possibly
// null refs, and effect reads of every payload kind. Everything here
// qualifies for batch execution, so scalar and vectorized runs must agree
// bit for bit.
const srcVecBot = `
class Bot {
  state:
    number x = 0;
    number y = 0;
    number vx = 1;
    number vy = 0.5;
    number fuel = 100;
    number mode = 0;
    bool alert = false;
    ref<Bot> buddy = null;
  effects:
    number dx : sum;
    number dfuel : sum;
    number flag : max;
    ref<Bot> pick : minby;
  update:
    x = x + dx;
    y = y + vy;
    fuel = fuel + dfuel;
    alert = flag > 0;
    mode = mode + 1 > 3 ? 0 : mode + 1;
    buddy = pick != null ? pick : buddy;
  run {
    let speed = sqrt(vx * vx + vy * vy);
    dx <- vx * 0.5 + speed * 0.01;
    if (fuel < 50 || alert) {
      dfuel <- 2;
      flag <- buddy != null ? 1 : 0;
    } else {
      dfuel <- 0 - speed * 0.25;
      if (buddy != null) {
        pick <- buddy by buddy.x + id(buddy) * 0.001;
      }
    }
    waitNextTick;
    dfuel <- buddy.fuel * 0.001;
    dx <- clamp(x * 0.01, 0 - 1, 1);
    if (x > 40 && !alert) {
      flag <- 1;
    }
  }
}
`

func mustVecWorld(t *testing.T, src string, opts engine.Options) *engine.World {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatal(err)
	}
	w, err := engine.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustVecBaseline(t *testing.T, src string) *baseline.World {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return baseline.New(info)
}

type spawner interface {
	Spawn(class string, init map[string]value.Value) (value.ID, error)
}

func populateBots(t *testing.T, seed int64, n int, worlds ...spawner) []value.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]value.ID, 0, n)
	inits := make([]map[string]value.Value, n)
	for i := 0; i < n; i++ {
		inits[i] = map[string]value.Value{
			"x":    value.Num(float64(rng.Intn(200)) / 2),
			"y":    value.Num(float64(rng.Intn(100)) / 4),
			"vx":   value.Num(float64(rng.Intn(9)-4) / 2),
			"fuel": value.Num(float64(20 + rng.Intn(100))),
			"mode": value.Num(float64(rng.Intn(4))),
		}
	}
	buddies := make([]int, n)
	for i := range buddies {
		buddies[i] = rng.Intn(n + n/2) // some out of range → stays null
	}
	for wi, w := range worlds {
		var local []value.ID
		for i := 0; i < n; i++ {
			id, err := w.Spawn("Bot", inits[i])
			if err != nil {
				t.Fatal(err)
			}
			local = append(local, id)
		}
		if wi == 0 {
			ids = local
		}
	}
	// Buddy wiring must be identical across worlds; ids are assigned
	// deterministically so the same index mapping works everywhere.
	for _, w := range worlds {
		sw, ok := w.(interface {
			SetState(class string, id value.ID, attr string, v value.Value) error
		})
		if !ok {
			t.Fatal("world cannot SetState")
		}
		for i, bi := range buddies {
			if bi < n {
				if err := sw.SetState("Bot", ids[i], "buddy", value.Ref(ids[bi])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ids
}

var botAttrs = []string{"x", "y", "vx", "vy", "fuel", "mode", "alert", "buddy"}

type getter interface {
	Get(class string, id value.ID, attr string) (value.Value, bool)
}

func diffWorlds(a, b getter, ids []value.ID, exact bool) string {
	for _, id := range ids {
		for _, attr := range botAttrs {
			av, aok := a.Get("Bot", id, attr)
			bv, bok := b.Get("Bot", id, attr)
			if aok != bok {
				return fmt.Sprintf("bot %d %s: presence %v vs %v", id, attr, aok, bok)
			}
			if !aok {
				continue
			}
			same := av.Equal(bv)
			if !same && !exact && av.Kind() == value.KindNumber {
				same = value.NumbersEqual(av.AsNumber(), bv.AsNumber(), 1e-9)
			}
			if !same {
				return fmt.Sprintf("bot %d %s: %v vs %v", id, attr, av, bv)
			}
		}
	}
	return ""
}

// TestVectorizedMatchesScalarExactly is the tentpole's core claim: forcing
// batch execution produces bit-identical state trajectories to the scalar
// closure evaluator, across random worlds and seeds.
func TestVectorizedMatchesScalarExactly(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 5 + int(seed*13)%70
		scalar := mustVecWorld(t, srcVecBot, engine.Options{Exec: plan.ExecScalar})
		vec := mustVecWorld(t, srcVecBot, engine.Options{Exec: plan.ExecVectorized})
		auto := mustVecWorld(t, srcVecBot, engine.Options{})
		ids := populateBots(t, seed, n, scalar, vec, auto)
		for tick := 0; tick < 8; tick++ {
			for name, w := range map[string]*engine.World{"scalar": scalar, "vectorized": vec, "auto": auto} {
				if err := w.RunTick(); err != nil {
					t.Fatalf("seed %d %s tick %d: %v", seed, name, tick, err)
				}
			}
			if d := diffWorlds(scalar, vec, ids, true); d != "" {
				t.Fatalf("seed %d tick %d scalar vs vectorized: %s", seed, tick, d)
			}
			if d := diffWorlds(scalar, auto, ids, true); d != "" {
				t.Fatalf("seed %d tick %d scalar vs auto: %s", seed, tick, d)
			}
		}
		if vec.ExecStats().VectorRows == 0 {
			t.Fatal("forced vectorized world reported no vectorized rows")
		}
		if scalar.ExecStats().VectorRows != 0 {
			t.Fatal("forced scalar world reported vectorized rows")
		}
	}
}

// TestVectorizedMatchesBaseline closes the triangle: the batch path must
// also agree with the object-at-a-time reference interpreter.
func TestVectorizedMatchesBaseline(t *testing.T) {
	vec := mustVecWorld(t, srcVecBot, engine.Options{Exec: plan.ExecVectorized})
	bl := mustVecBaseline(t, srcVecBot)
	ids := populateBots(t, 42, 50, vec, bl)
	for tick := 0; tick < 8; tick++ {
		if err := vec.RunTick(); err != nil {
			t.Fatalf("engine tick %d: %v", tick, err)
		}
		if err := bl.RunTick(); err != nil {
			t.Fatalf("baseline tick %d: %v", tick, err)
		}
		if d := diffWorlds(vec, bl, ids, false); d != "" {
			t.Fatalf("tick %d: %s", tick, d)
		}
	}
}

// TestVectorizedSpawnKillChurn stresses the alive mask and dense staging
// against mid-run spawns and kills (holes in the physical extent).
func TestVectorizedSpawnKillChurn(t *testing.T) {
	scalar := mustVecWorld(t, srcVecBot, engine.Options{Exec: plan.ExecScalar})
	vec := mustVecWorld(t, srcVecBot, engine.Options{Exec: plan.ExecVectorized})
	ids := populateBots(t, 7, 40, scalar, vec)
	rng := rand.New(rand.NewSource(99))
	live := append([]value.ID(nil), ids...)
	for tick := 0; tick < 10; tick++ {
		if tick%2 == 1 && len(live) > 10 {
			k := rng.Intn(len(live))
			for _, w := range []*engine.World{scalar, vec} {
				if err := w.Kill("Bot", live[k]); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live[:k], live[k+1:]...)
		}
		if tick%3 == 2 {
			init := map[string]value.Value{"x": value.Num(float64(tick) * 3), "fuel": value.Num(60)}
			var nid value.ID
			for wi, w := range []*engine.World{scalar, vec} {
				id, err := w.Spawn("Bot", init)
				if err != nil {
					t.Fatal(err)
				}
				if wi == 0 {
					nid = id
				} else if id != nid {
					t.Fatalf("id drift: %d vs %d", id, nid)
				}
			}
			live = append(live, nid)
		}
		for _, w := range []*engine.World{scalar, vec} {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		if d := diffWorlds(scalar, vec, live, true); d != "" {
			t.Fatalf("tick %d: %s", tick, d)
		}
	}
}

// TestVectorizedCrossEmitOrdering pins the reorder hazard: a scalar phase
// that cross-emits into its own class must disable phase vectorization for
// the whole class (running a vectorized phase first would interleave sum
// contributions in a different order than the scalar row loop). Catastrophic
// cancellation magnitudes make any reorder visible.
func TestVectorizedCrossEmitOrdering(t *testing.T) {
	const src = `
class Cell {
  state:
    number acc = 0;
    number amt = 0;
    ref<Cell> sink = null;
  effects:
    number d : sum;
  update:
    acc = acc + d;
  run {
    d <- 1;
    waitNextTick;
    if (sink != null) {
      sink.d <- amt;
    }
  }
}
`
	scalar := mustVecWorld(t, src, engine.Options{Exec: plan.ExecScalar})
	vec := mustVecWorld(t, src, engine.Options{Exec: plan.ExecVectorized})
	var ids []value.ID
	// Huge cancelling magnitudes: 1e16 + (-1e16) + 1 + 3 = 4 in scalar
	// fold order, but 1 + 1e16 absorbs the 1, giving 3 — any
	// contribution reorder diverges.
	amts := []float64{0, 1e16, 0, -1e16, 0, 3}
	for i := range amts {
		init := map[string]value.Value{"amt": value.Num(amts[i])}
		for wi, w := range []*engine.World{scalar, vec} {
			id, err := w.Spawn("Cell", init)
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				ids = append(ids, id)
			}
		}
	}
	// Odd cells start in phase 1 (the cross-emitting phase) and point
	// their sink at cell 4 — a phase-0 row *after* rows 1 and 3 in
	// physical order. Scalar fold into cell 4: amt1, amt3, own 1, amt5;
	// a vectorized phase 0 running first would fold: 1, amt1, amt3, amt5
	// — different float results under catastrophic cancellation.
	for _, w := range []*engine.World{scalar, vec} {
		for i, id := range ids {
			if i%2 == 1 {
				if err := w.SetPC("Cell", id, 1); err != nil {
					t.Fatal(err)
				}
				if err := w.SetState("Cell", id, "sink", value.Ref(ids[4])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for tick := 0; tick < 6; tick++ {
		if err := scalar.RunTick(); err != nil {
			t.Fatal(err)
		}
		if err := vec.RunTick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		sv := scalar.MustGet("Cell", id, "acc")
		vv := vec.MustGet("Cell", id, "acc")
		if !sv.Equal(vv) {
			t.Fatalf("cell %d acc: scalar %v, vectorized %v (contribution reorder)", id, sv, vv)
		}
	}
	// The update rule still vectorizes even though the phases may not.
	if vec.ExecStats().VectorRows == 0 {
		t.Error("update rule should still run vectorized")
	}
}

// TestVectorizedFallbackMixedProgram forces batch mode on a program that is
// only partially vectorizable (accum joins, set effects, atomic blocks and
// string-free scalar rules mixed together) and checks it still matches the
// scalar path — the fallback contract.
func TestVectorizedFallbackMixedProgram(t *testing.T) {
	const src = `
class Agent {
  state:
    number x = 0;
    number r = 8;
    number hp = 100;
    set<number> tags;
  effects:
    number damage : sum;
    set<number> dtags : union;
  update:
    hp = hp - damage;
    tags = dtags;
  run {
    accum number near with sum over Agent a from Agent {
      if (a.x >= x - r && a.x <= x + r) {
        near <- 1;
        a.damage <- 0.125;
      }
    } in {
      if (near > 2) {
        dtags <= near;
      }
    }
  }
}
`
	scalar := mustVecWorld(t, src, engine.Options{Exec: plan.ExecScalar})
	vec := mustVecWorld(t, src, engine.Options{Exec: plan.ExecVectorized})
	var ids []value.ID
	for i := 0; i < 30; i++ {
		init := map[string]value.Value{"x": value.Num(float64(i * 3 % 50))}
		id, err := scalar.Spawn("Agent", init)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vec.Spawn("Agent", init); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for tick := 0; tick < 5; tick++ {
		if err := scalar.RunTick(); err != nil {
			t.Fatal(err)
		}
		if err := vec.RunTick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		for _, attr := range []string{"hp", "tags"} {
			sv, _ := scalar.Get("Agent", id, attr)
			vv, _ := vec.Get("Agent", id, attr)
			if !sv.Equal(vv) {
				t.Fatalf("agent %d %s: %v vs %v", id, attr, sv, vv)
			}
		}
	}
	// hp vectorizes even though the phase does not.
	if vec.ExecStats().VectorRows == 0 {
		t.Error("update rule hp = hp - damage should have vectorized")
	}
}
