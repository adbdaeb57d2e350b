package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

// trafficWorld builds a vehicles world sized so its update step actually
// fans out under Workers > 1 (the extent spans several batches).
func trafficWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 5)); err != nil {
		t.Fatal(err)
	}
	return w
}

// rtsWorldFor builds the combat scenario with its physics component — a
// scalar-only class (it cross-emits damage into itself), so it exercises
// the sharded scalar path plus worker-sink merging.
func rtsWorldFor(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("rts", core.SrcRTS)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Register(physics.New2D(physics.Config{
		Class: "Soldier", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy",
		Radius: 0.8, MaxSpeed: 2,
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 400, MaxY: 400},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateSoldiers(w, workload.Clustered(n, 2, 30, 400, 400, 7)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParallelCountersMatchSerial pins the statistics contract of the
// sharded executor: Workers=4 must report exactly the row counts Workers=1
// reports on the same scenario (the old parallel path reported zero
// effect-phase work), and the shard counter must show the pool was used.
func TestParallelCountersMatchSerial(t *testing.T) {
	const n, ticks = 3000, 4
	serial := trafficWorld(t, n, engine.Options{Workers: 1})
	par := trafficWorld(t, n, engine.Options{Workers: 4})
	for _, w := range []*engine.World{serial, par} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	ss, ps := serial.ExecStats(), par.ExecStats()
	if ss.ScalarRows != ps.ScalarRows || ss.VectorRows != ps.VectorRows || ss.HandlerRows != ps.HandlerRows {
		t.Fatalf("counter drift: serial %+v, parallel %+v", ss, ps)
	}
	if ps.VectorRows == 0 {
		t.Fatal("traffic under Workers=4 reported no vectorized rows")
	}
	if ss.ParallelShards != 0 {
		t.Fatalf("Workers=1 dispatched %d shards", ss.ParallelShards)
	}
	if ps.ParallelShards == 0 {
		t.Fatal("Workers=4 never dispatched shards on a 3000-row extent")
	}

	// rts on the scalar path must count its effect-phase rows too, and on
	// the kernel path (its phase around a hoisted join) its vector rows.
	for _, exec := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
		sRTS := rtsWorldFor(t, 1200, engine.Options{Workers: 1, Exec: exec})
		pRTS := rtsWorldFor(t, 1200, engine.Options{Workers: 4, Exec: exec})
		for _, w := range []*engine.World{sRTS, pRTS} {
			if err := w.Run(3); err != nil {
				t.Fatal(err)
			}
		}
		ss, ps := sRTS.ExecStats(), pRTS.ExecStats()
		if ss.ScalarRows != ps.ScalarRows || ss.VectorRows != ps.VectorRows {
			t.Fatalf("rts %v rows: serial %d/%d, parallel %d/%d", exec,
				ss.ScalarRows, ss.VectorRows, ps.ScalarRows, ps.VectorRows)
		}
		if rows := map[plan.ExecMode]int64{plan.ExecScalar: ps.ScalarRows, plan.ExecVectorized: ps.VectorRows}[exec]; rows == 0 {
			t.Fatalf("rts %v under Workers=4 reported zero effect-phase rows on its path", exec)
		}
	}

	// DisableStats must silence every counter on the parallel path as well.
	off := trafficWorld(t, n, engine.Options{Workers: 4, DisableStats: true})
	if err := off.Run(2); err != nil {
		t.Fatal(err)
	}
	if c := off.ExecStats(); c.ScalarRows != 0 || c.VectorRows != 0 || c.ParallelShards != 0 || c.HandlerRows != 0 {
		t.Fatalf("DisableStats leaked counters: %+v", c)
	}
}

// TestForcedVectorizedParallel pins the composition bug this PR fixes:
// forcing ExecVectorized with Workers > 1 used to fall back to the scalar
// worker loop silently. Now the batch kernels must run — and produce the
// same trajectory and the same vectorized-row count as Workers=1.
func TestForcedVectorizedParallel(t *testing.T) {
	const n, ticks = 2500, 4
	w1 := trafficWorld(t, n, engine.Options{Workers: 1, Exec: plan.ExecVectorized})
	w4 := trafficWorld(t, n, engine.Options{Workers: 4, Exec: plan.ExecVectorized})
	for _, w := range []*engine.World{w1, w4} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	if w4.ExecStats().VectorRows == 0 {
		t.Fatal("Workers=4 + ExecVectorized ran no batch kernels")
	}
	if w1.ExecStats().VectorRows != w4.ExecStats().VectorRows {
		t.Fatalf("VectorRows: Workers=1 %d, Workers=4 %d",
			w1.ExecStats().VectorRows, w4.ExecStats().VectorRows)
	}
	if d := diffClassWorlds(w1, w4, "Vehicle", vehicleAttrs, w1.IDs("Vehicle")); d != "" {
		t.Fatal(d)
	}
}

var (
	vehicleAttrs = []string{"x", "y", "dx", "dy", "speed", "fuel", "odo", "stress"}
	soldierAttrs = []string{"player", "x", "y", "tx", "ty", "range", "health", "attack"}
)

func diffClassWorlds(a, b *engine.World, class string, attrs []string, ids []value.ID) string {
	for _, id := range ids {
		for _, attr := range attrs {
			av, aok := a.Get(class, id, attr)
			bv, bok := b.Get(class, id, attr)
			if aok != bok {
				return fmt.Sprintf("%s %d %s: presence %v vs %v", class, id, attr, aok, bok)
			}
			if aok && !av.Equal(bv) {
				return fmt.Sprintf("%s %d %s: %v vs %v", class, id, attr, av, bv)
			}
		}
	}
	return ""
}

// srcCrossFloat is the fold-order probe of the matrix below: two classes
// whose every object emits a non-dyadic float (0.1 * w) into a handful of
// shared sum targets in both classes. Float addition does not associate, so
// each target's combined value is bit-identical across configurations only
// if its contributions fold in the serial order — all Ants in row order,
// then all Bees — whichever shard or partition ran the emitting row.
const srcCrossFloat = `
class Ant {
  state:
    number x = 0;
    number y = 0;
    number w = 0;
    number load = 0;
    ref<Ant> a = null;
    ref<Bee> b = null;
  effects:
    number gain : sum;
  update:
    load = load + gain;
  run {
    if (a != null) { a.gain <- 0.1 * w; }
    if (b != null) { b.gain <- 0.1 * w; }
  }
}
class Bee {
  state:
    number x = 0;
    number y = 0;
    number w = 0;
    number load = 0;
    ref<Ant> a = null;
    ref<Bee> b = null;
  effects:
    number gain : sum;
  update:
    load = load + gain;
  run {
    if (a != null) { a.gain <- 0.1 * w; }
    if (b != null) { b.gain <- 0.1 * w; }
  }
}
`

const crossFloatTargets = 48

// crossFloatInit wires object i of an n-per-class population: Ants take ids
// 1..n and Bees n+1..2n, and everyone aims at the first few of each class.
func crossFloatInit(n, i int) map[string]value.Value {
	return map[string]value.Value{
		"x": value.Num(float64(i*37%400) * 10), "y": value.Num(float64(i*53%400) * 10),
		"w": value.Num(float64(i) + 1),
		"a": value.Ref(value.ID(1 + i*7%crossFloatTargets)),
		"b": value.Ref(value.ID(n + 1 + i*11%crossFloatTargets)),
	}
}

func crossFloatWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("cross-float", srcCrossFloat)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"Ant", "Bee"} {
		for i := 0; i < n; i++ {
			if _, err := w.Spawn(class, crossFloatInit(n, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// srcMixedEffects pins sink reuse across classes: Hub (three effects, a
// vectorizable run block) runs its pass before Leaf (one effect, a scalar run
// block emitting to a Hub and to itself), on the same pooled sinks. A sink's
// vectorized touched log is sized by the widest class that used it, so the
// merge of a narrower class's pass must not read the log by slot count.
const srcMixedEffects = `
class Hub {
  state:
    number x = 0;
    number y = 0;
    number w = 0;
    number p = 0;
    number q = 0;
    number load = 0;
  effects:
    number dp : sum;
    number dq : max;
    number gain : sum;
  update:
    p = p + dp;
    q = dq;
    load = load + gain;
  run {
    dp <- 0.1 * w;
    if (w > 40) { dq <- w * 0.3; }
  }
}
class Leaf {
  state:
    number x = 0;
    number y = 0;
    number w = 0;
    number load = 0;
    ref<Hub> h = null;
  effects:
    number gain : sum;
  update:
    load = load + gain;
  run {
    gain <- 0.1 * w;
    if (h != null) { h.gain <- 0.7 * w; }
  }
}
`

func mixedEffectsInit(i int) map[string]value.Value {
	return map[string]value.Value{
		"x": value.Num(float64(i*37%400) * 10), "y": value.Num(float64(i*53%400) * 10),
		"w": value.Num(float64(i%83) + 1),
	}
}

func mixedEffectsWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("mixed-effects", srcMixedEffects)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Spawn("Hub", mixedEffectsInit(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		init := mixedEffectsInit(i)
		init["h"] = value.Ref(value.ID(1 + i*7%crossFloatTargets))
		if _, err := w.Spawn("Leaf", init); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestParallelMatrixDifferential is the acceptance guard for the sharded
// tick driver: Workers ∈ {1, 4} × Exec ∈ {scalar, vectorized, auto} × the
// partition layouts below over the traffic, rts, cross-float and
// mixed-effects scenarios with spawn/kill churn must end bit-identical to the
// Workers=1/ExecScalar/unpartitioned reference — one shard, one sink, a
// straight replay. The layouts are every Partitions {1, 2, 4} × {grid,
// stripes} cell of TestPartitionMatrixDifferential, which leaves its
// join-free scenario to this matrix, plus a prime count (stripes only).
func TestParallelMatrixDifferential(t *testing.T) {
	type layout struct {
		parts int
		strat plan.PartitionStrategy
	}
	type cfg struct {
		workers int
		exec    plan.ExecMode
		layout
	}
	var cfgs []cfg
	for _, l := range []layout{
		{0, plan.PartitionAuto}, {1, plan.PartitionGrid}, {1, plan.PartitionStripes},
		{2, plan.PartitionGrid}, {2, plan.PartitionStripes}, {3, plan.PartitionAuto},
		{4, plan.PartitionGrid}, {4, plan.PartitionStripes},
	} {
		for _, wk := range []int{1, 4} {
			for _, ex := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
				cfgs = append(cfgs, cfg{wk, ex, l})
			}
		}
	}
	scenarios := []struct {
		name  string
		class string
		attrs []string
		n     int
		ticks int
		build func(t *testing.T, n int, opts engine.Options) *engine.World
		spawn func(w *engine.World, i int) (value.ID, error)
		// also names a second class diffed over its whole extent, on
		// alsoAttrs (nil = attrs).
		also      string
		alsoAttrs []string
	}{
		{
			name: "traffic", class: "Vehicle", attrs: vehicleAttrs, n: 2500, ticks: 5,
			build: trafficWorld,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Vehicle", map[string]value.Value{
					"x": value.Num(float64(i%97) * 40), "y": value.Num(float64(i%89) * 40),
					"dx": value.Num(1), "speed": value.Num(float64(2 + i%4)),
					"fuel": value.Num(float64(300 + i%57)),
				})
			},
		},
		{
			name: "rts", class: "Soldier", attrs: soldierAttrs, n: 900, ticks: 4,
			build: rtsWorldFor,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Soldier", map[string]value.Value{
					"player": value.Str([2]string{"red", "blue"}[i%2]),
					"x":      value.Num(float64(50 + i%300)), "y": value.Num(float64(50 + i%290)),
					"tx": value.Num(200), "ty": value.Num(200),
				})
			},
		},
		{
			name: "cross-float", class: "Ant", attrs: []string{"load"}, n: 2500, ticks: 4,
			build: crossFloatWorld, also: "Bee",
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Ant", crossFloatInit(2500, i))
			},
		},
		{
			name: "mixed-effects", class: "Hub", attrs: []string{"p", "q", "load"}, n: 3000, ticks: 4,
			build: mixedEffectsWorld, also: "Leaf", alsoAttrs: []string{"load"},
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Hub", mixedEffectsInit(i))
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			worlds := make([]*engine.World, len(cfgs))
			for i, c := range cfgs {
				worlds[i] = sc.build(t, sc.n, engine.Options{
					Workers: c.workers, Exec: c.exec, Partitions: c.parts, Partition: c.strat,
				})
			}
			ref := worlds[0] // Workers=1, ExecScalar, Partitions=0
			live := append([]value.ID(nil), ref.IDs(sc.class)...)
			rng := rand.New(rand.NewSource(11))
			for tick := 0; tick < sc.ticks; tick++ {
				// Churn: kill a random live object and spawn a fresh one
				// identically in every world (ids stay aligned because
				// spawn order is identical).
				if len(live) > 20 {
					k := rng.Intn(len(live))
					for _, w := range worlds {
						if err := w.Kill(sc.class, live[k]); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live[:k], live[k+1:]...)
				}
				var nid value.ID
				for wi, w := range worlds {
					id, err := sc.spawn(w, tick*31)
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
				for wi, w := range worlds {
					if err := w.RunTick(); err != nil {
						t.Fatalf("cfg %+v tick %d: %v", cfgs[wi], tick, err)
					}
				}
			}
			for wi := 1; wi < len(worlds); wi++ {
				d := diffClassWorlds(ref, worlds[wi], sc.class, sc.attrs, live)
				if d == "" && sc.also != "" {
					attrs := sc.alsoAttrs
					if attrs == nil {
						attrs = sc.attrs
					}
					d = diffClassWorlds(ref, worlds[wi], sc.also, attrs, ref.IDs(sc.also))
				}
				if d != "" {
					t.Errorf("cfg %+v diverged from Workers=1/ExecScalar/Partitions=0: %s", cfgs[wi], d)
				}
			}
		})
	}
}
