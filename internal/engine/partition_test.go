package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

func flockWorldFor(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("flock", core.SrcFlock)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateBoids(w, workload.Uniform(n, 900, 900, 3)); err != nil {
		t.Fatal(err)
	}
	return w
}

func carWorldFor(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("traffic-prox", core.SrcTraffic)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.TrafficNetwork{W: 4000, H: 4000, Roads: 40, Speed: 3}
	if _, err := core.PopulateCars(w, net.Vehicles(n, 9)); err != nil {
		t.Fatal(err)
	}
	return w
}

var (
	boidAttrs = []string{"x", "y", "vx", "vy", "sight"}
	carAttrs  = []string{"x", "y", "dx", "dy", "speed", "slow"}
)

// TestPartitionMatrixDifferential is the acceptance guard for shared-
// nothing partitioned execution: Partitions ∈ {1, 2, 4} × layout ∈ {grid,
// stripes} × Workers ∈ {1, 4} over the headway-join traffic and flock
// (three range joins per boid per tick) scenarios, with spawn/kill churn
// and continuous movement driving boundary-crossing migrations — every
// configuration must end bit-identical to the single-partition run. The
// join-free traffic scenario, where a layout only decides which shard runs
// a row, runs these same twelve cells against the unpartitioned scalar
// reference in TestParallelMatrixDifferential, under every Exec mode.
func TestPartitionMatrixDifferential(t *testing.T) {
	type cfg struct {
		parts   int
		strat   plan.PartitionStrategy
		workers int
	}
	var cfgs []cfg
	for _, p := range []int{1, 2, 4} {
		for _, s := range []plan.PartitionStrategy{plan.PartitionGrid, plan.PartitionStripes} {
			for _, wk := range []int{1, 4} {
				cfgs = append(cfgs, cfg{p, s, wk})
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
	}{
		{
			name: "traffic-prox", class: "Car", attrs: carAttrs, n: 1500, ticks: 4,
			build: carWorldFor,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Car", map[string]value.Value{
					"x": value.Num(float64(i%83) * 48), "y": value.Num(float64(i%79) * 50),
					"dx": value.Num(1), "speed": value.Num(float64(2 + i%3)),
				})
			},
		},
		{
			name: "flock", class: "Boid", attrs: boidAttrs, n: 1200, ticks: 4,
			build: flockWorldFor,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Boid", map[string]value.Value{
					"x": value.Num(float64(i%59) * 15), "y": value.Num(float64(i%53) * 17),
					"vx": value.Num(1), "vy": value.Num(-0.5),
				})
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			worlds := make([]*engine.World, len(cfgs))
			for i, c := range cfgs {
				worlds[i] = sc.build(t, sc.n, engine.Options{
					Partitions: c.parts, Partition: c.strat, Workers: c.workers,
				})
			}
			ref := worlds[0] // Partitions=1
			live := append([]value.ID(nil), ref.IDs(sc.class)...)
			rng := rand.New(rand.NewSource(13))
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
					id, err := sc.spawn(w, tick*37)
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
				if d := diffClassWorlds(ref, worlds[wi], sc.class, sc.attrs, live); d != "" {
					t.Fatalf("cfg %+v diverged from Partitions=1: %s", cfgs[wi], d)
				}
			}
		})
	}
}

// TestPartitionedMatchesUnpartitionedTraffic ties the partitioned executor
// back to the plain engine: on the join-free traffic scenario every fold is
// exact, so partitioned execution must be bit-identical to the
// unpartitioned world too, not just to Partitions=1.
func TestPartitionedMatchesUnpartitionedTraffic(t *testing.T) {
	const n, ticks = 2000, 5
	plain := trafficWorld(t, n, engine.Options{})
	parted := trafficWorld(t, n, engine.Options{Partitions: 4})
	for _, w := range []*engine.World{plain, parted} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	if d := diffClassWorlds(plain, parted, "Vehicle", vehicleAttrs, plain.IDs("Vehicle")); d != "" {
		t.Fatal(d)
	}
	if parted.Partitions() != 4 || plain.Partitions() != 0 {
		t.Fatalf("Partitions() = %d / %d", parted.Partitions(), plain.Partitions())
	}
}

// TestPartitionCounters pins the §4.2 accounting: spatial partitioning of a
// moving join workload must report ghost replicas, boundary migrations, a
// sane imbalance ratio and per-partition index memory — and the hash
// strawman must replicate everything everywhere.
func TestPartitionCounters(t *testing.T) {
	const n, parts, ticks = 1500, 4, 4
	w := flockWorldFor(t, n, engine.Options{Partitions: parts, Partition: plan.PartitionStripes})
	if err := w.Run(ticks); err != nil {
		t.Fatal(err)
	}
	st := w.ExecStats()
	if st.GhostRows == 0 {
		t.Fatal("spatial partitioning of flock reported no ghost rows")
	}
	if st.MigratedRows == 0 {
		t.Fatal("moving boids never migrated across stripe boundaries")
	}
	if st.PartMsgsGhost == 0 {
		t.Fatal("index rebuilds sent no ghost refresh messages")
	}
	if st.PartBytes == 0 {
		t.Fatal("messages carried no modeled bytes")
	}
	if imb := st.PartImbalance(parts); imb < 1 || imb > float64(parts) {
		t.Fatalf("imbalance %v outside [1, parts]", imb)
	}
	ib := w.PartitionIndexBytes()
	if len(ib) != parts {
		t.Fatalf("PartitionIndexBytes len %d, want %d", len(ib), parts)
	}
	tot := int64(0)
	for _, b := range ib {
		if b <= 0 {
			t.Fatalf("partition index bytes = %v", ib)
		}
		tot += b
	}

	// The hash layout must replicate every boid to every other partition,
	// per site, per tick — and keep one full-size shared index.
	h := flockWorldFor(t, n, engine.Options{Partitions: parts, Partition: plan.PartitionHash})
	if err := h.Run(ticks); err != nil {
		t.Fatal(err)
	}
	hst := h.ExecStats()
	const sites = 3 // flock runs three accum joins
	want := int64(parts-1) * int64(n) * sites * ticks
	if hst.GhostRows < want {
		t.Fatalf("hash ghost rows %d, want >= %d (full replication)", hst.GhostRows, want)
	}
	if hst.GhostRows <= st.GhostRows*10 {
		t.Fatalf("hash replication (%d) must dwarf spatial ghosts (%d)", hst.GhostRows, st.GhostRows)
	}

	// DisableStats silences the partition counters like every other counter.
	off := flockWorldFor(t, n, engine.Options{Partitions: parts, DisableStats: true})
	if err := off.Run(2); err != nil {
		t.Fatal(err)
	}
	if c := off.ExecStats(); c.PartMessages() != 0 || c.GhostRows != 0 || c.MigratedRows != 0 ||
		c.PartLoadSum != 0 || c.PartBytes != 0 {
		t.Fatalf("DisableStats leaked partition counters: %+v", c)
	}
}

// TestInteractionRadiiExposed pins the derived per-class-pair interaction
// radius: flock's ±sight box must anchor both dimensions at the maximum
// sight (20), and an accum with a one-sided (unbounded) range conjunct must
// fall back to a shared whole-world site.
func TestInteractionRadiiExposed(t *testing.T) {
	w := flockWorldFor(t, 800, engine.Options{Partitions: 4})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	radii := w.InteractionRadii()
	if len(radii) != 3 {
		t.Fatalf("flock has 3 sites, got %d", len(radii))
	}
	for _, sr := range radii {
		if sr.Class != "Boid" || sr.Source != "Boid" {
			t.Fatalf("site pair %s->%s", sr.Class, sr.Source)
		}
		if sr.Shared {
			t.Fatalf("bounded flock site classified shared: %+v", sr)
		}
		if len(sr.Dims) != 2 {
			t.Fatalf("dims: %+v", sr.Dims)
		}
		for _, d := range sr.Dims {
			if !d.Anchored || d.Attr != d.Axis {
				t.Fatalf("dim not anchored to its own axis: %+v", d)
			}
			if math.Abs(d.Lo-20) > 1e-9 || math.Abs(d.Hi-20) > 1e-9 {
				t.Fatalf("sight reach = %v/%v, want 20/20", d.Lo, d.Hi)
			}
		}
	}

	// One-sided predicate: `u.x >= x - 5` has no upper bound, so the reach
	// is unbounded and the site must fall back to whole-world replication.
	const unboundedSrc = `
class P {
  state:
    number x = 0;
    number v = 1;
  effects:
    number s : sum;
  update:
    x = x + 1;
  run {
    accum number c with sum over P u from P {
      if (u.x >= x - 5) {
        c <- u.v;
      }
    } in {
      s <- c;
    }
  }
}
`
	sc, err := core.LoadScenario("unbounded", unboundedSrc)
	if err != nil {
		t.Fatal(err)
	}
	uw, err := sc.NewWorld(engine.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := uw.Spawn("P", map[string]value.Value{"x": value.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := uw.Run(2); err != nil {
		t.Fatal(err)
	}
	ur := uw.InteractionRadii()
	if len(ur) != 1 || !ur[0].Shared {
		t.Fatalf("unbounded site must be shared: %+v", ur)
	}
	if st := uw.ExecStats(); st.GhostRows == 0 {
		t.Fatal("shared fallback must account full replication")
	}
}

// TestPartitionByOption covers the explicit axis designation and its
// validation.
func TestPartitionByOption(t *testing.T) {
	sc, err := core.LoadScenario("flock", core.SrcFlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.NewWorld(engine.Options{Partitions: 2, PartitionBy: map[string][]string{"Nope": {"x"}}}); err == nil {
		t.Fatal("unknown class must be rejected")
	}
	if _, err := sc.NewWorld(engine.Options{Partitions: 2, PartitionBy: map[string][]string{"Boid": {"zap"}}}); err == nil {
		t.Fatal("unknown attribute must be rejected")
	}
	if _, err := sc.NewWorld(engine.Options{Partitions: 2, PartitionBy: map[string][]string{"Boid": {}}}); err == nil {
		t.Fatal("empty axis list must be rejected")
	}
	// Partitioning on a single explicit axis must still be bit-identical.
	a := flockWorldFor(t, 600, engine.Options{Partitions: 1})
	b := flockWorldFor(t, 600, engine.Options{Partitions: 3, PartitionBy: map[string][]string{"Boid": {"y"}}})
	for _, w := range []*engine.World{a, b} {
		if err := w.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	if d := diffClassWorlds(a, b, "Boid", boidAttrs, a.IDs("Boid")); d != "" {
		t.Fatal(d)
	}
}

// TestSpatialToSharedFlipRebuilds pins the stale-index hazard on a
// spatial→shared site transition: tick 1 builds partition-local
// member-scoped indexes; a NaN anchor then forces the whole-world fallback
// while the source class's columns are completely unchanged — the
// maintenance ladder must NOT reuse the member-scoped index for
// whole-extent probes (it only covers one partition's neighborhood), it
// must rebuild over the full extent.
func TestSpatialToSharedFlipRebuilds(t *testing.T) {
	const src = `
class S {
  state:
    number sx = 0;
    number v = 1;
}
class C {
  state:
    number x = 0;
    number tx = 0;
    number o = 0;
  effects:
    number out : sum;
  update:
    o = out;
  run {
    accum number c with sum over S u from S {
      if (u.sx >= tx - 5 && u.sx <= tx + 5) {
        c <- u.v;
      }
    } in {
      out <- c;
    }
  }
}
`
	sc, err := core.LoadScenario("flip", src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(engine.Options{
		Partitions: 2, Partition: plan.PartitionStripes,
		Strategy:    plan.RangeTreeIndex,
		PartitionBy: map[string][]string{"C": {"x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := w.Spawn("S", map[string]value.Value{"sx": value.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var probes []value.ID
	for _, x := range []float64{10, 48, 52, 90} {
		id, err := w.Spawn("C", map[string]value.Value{"x": value.Num(x), "tx": value.Num(x)})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, id)
	}
	check := func(tag string) {
		t.Helper()
		for _, id := range probes {
			// Each probe sees 11 source rows (tx±5 over integer sx).
			if got := w.MustGet("C", id, "o").AsNumber(); got != 11 {
				t.Fatalf("%s: probe %d counted %v, want 11", tag, id, got)
			}
		}
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	check("spatial tick")
	// Poison one anchor: the probe box (tx±5) stays valid but has no
	// relation to the partition axis any more, so the site must fall back
	// to a shared whole-extent index — S's columns never changed, which is
	// exactly what made the stale member-scoped reuse possible.
	if err := w.SetState("C", probes[0], "x", value.Num(math.NaN())); err != nil {
		t.Fatal(err)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	check("shared tick")
	radii := w.InteractionRadii()
	if len(radii) != 1 || !radii[0].Shared {
		t.Fatalf("site must have fallen back to shared: %+v", radii)
	}
	// And back: restoring the anchor must restore spatial ghosting (the
	// shared pass overwrote the member views, so they must refill).
	if err := w.SetState("C", probes[0], "x", value.Num(10)); err != nil {
		t.Fatal(err)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	check("respatialized tick")
	if radii = w.InteractionRadii(); radii[0].Shared {
		t.Fatalf("site must be spatial again: %+v", radii)
	}
}

// TestRebalanceMatrixDifferential is the acceptance guard for layout
// epochs: Partitions ∈ {1, 2, 4} × Rebalance ∈ {eager, off} × Workers ∈
// {1, 4} over the traffic (vectorized phases) and flock (three range
// joins) scenarios, with drift-heavy churn — every tick kills random
// objects and spawns replacements clustered into one corner, so ownership
// skews hard and eager worlds install successor epochs mid-run — and every
// configuration must end bit-identical to the single-partition reference.
// Rebalancing may only change who computes what, never what is computed.
func TestRebalanceMatrixDifferential(t *testing.T) {
	type cfg struct {
		parts   int
		reb     plan.RebalancePolicy
		workers int
	}
	var cfgs []cfg
	for _, p := range []int{1, 2, 4} {
		for _, rb := range []plan.RebalancePolicy{plan.RebalanceEager, plan.RebalanceOff} {
			for _, wk := range []int{1, 4} {
				cfgs = append(cfgs, cfg{p, rb, wk})
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
	}{
		{
			name: "traffic", class: "Vehicle", attrs: vehicleAttrs, n: 2000, ticks: 8,
			build: func(t *testing.T, n int, opts engine.Options) *engine.World {
				// A clustered population (two tight blobs in a 4000² world)
				// so uniform first-tick slots start out skewed and eager
				// worlds have something to split.
				t.Helper()
				sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sc.NewWorld(opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := core.PopulateVehicles(w, workload.Clustered(n, 2, 80, 4000, 4000, 5)); err != nil {
					t.Fatal(err)
				}
				return w
			},
			spawn: func(w *engine.World, i int) (value.ID, error) {
				// Cluster churn into one corner so loads skew further.
				return w.Spawn("Vehicle", map[string]value.Value{
					"x": value.Num(3600 + float64(i%13)*30), "y": value.Num(3700 + float64(i%11)*25),
					"dx": value.Num(1), "speed": value.Num(float64(2 + i%4)),
					"fuel": value.Num(float64(300 + i%57)),
				})
			},
		},
		{
			name: "flock", class: "Boid", attrs: boidAttrs, n: 1000, ticks: 6,
			build: flockWorldFor,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Boid", map[string]value.Value{
					"x": value.Num(float64(i%23) * 6), "y": value.Num(float64(i%19) * 7),
					"vx": value.Num(2), "vy": value.Num(1),
				})
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			worlds := make([]*engine.World, len(cfgs))
			for i, c := range cfgs {
				worlds[i] = sc.build(t, sc.n, engine.Options{
					Partitions: c.parts, Rebalance: c.reb, Workers: c.workers,
				})
			}
			ref := worlds[0]
			live := append([]value.ID(nil), ref.IDs(sc.class)...)
			rng := rand.New(rand.NewSource(29))
			for tick := 0; tick < sc.ticks; tick++ {
				for k := 0; k < 3 && len(live) > 40; k++ {
					j := rng.Intn(len(live))
					for _, w := range worlds {
						if err := w.Kill(sc.class, live[j]); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live[:j], live[j+1:]...)
				}
				for k := 0; k < 3; k++ {
					var nid value.ID
					for wi, w := range worlds {
						id, err := sc.spawn(w, tick*41+k*17)
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
				for wi, w := range worlds {
					if err := w.RunTick(); err != nil {
						t.Fatalf("cfg %+v tick %d: %v", cfgs[wi], tick, err)
					}
				}
			}
			rebalanced := false
			for wi := 1; wi < len(worlds); wi++ {
				if d := diffClassWorlds(ref, worlds[wi], sc.class, sc.attrs, live); d != "" {
					t.Fatalf("cfg %+v diverged from reference: %s", cfgs[wi], d)
				}
				if cfgs[wi].parts > 1 && cfgs[wi].reb == plan.RebalanceEager &&
					worlds[wi].ExecStats().RebalanceCount > 0 {
					rebalanced = true
				}
				if cfgs[wi].reb == plan.RebalanceOff {
					if c := worlds[wi].ExecStats().RebalanceCount; c != 0 {
						t.Fatalf("cfg %+v: frozen layout rebalanced %d times", cfgs[wi], c)
					}
				}
			}
			if !rebalanced {
				t.Fatal("no eager configuration installed a successor epoch; the matrix exercised nothing")
			}
		})
	}
}

// SrcDriftFlock is a flock whose members share one constant velocity: the
// whole population translates every tick, so any frozen layout's measured
// box goes stale and every row eventually clamps into the far edge
// partition — the §4.2 clamp-skew pathology this PR makes observable
// (stats.ClampedRows) and fixable (RebalanceWiden with a measured drift
// margin).
const srcDriftFlock = `
class Boid {
  state:
    number x = 0;
    number y = 0;
    number vx = 4;
    number vy = 0;
  effects:
    number nb : sum;
  update:
    x = x + vx;
    y = y + vy;
  run {
    accum number cnt with sum over Boid u from Boid {
      if (u.x >= x - 10 && u.x <= x + 10 && u.y >= y - 10 && u.y <= y + 10) {
        cnt <- 1;
      }
    } in {
      nb <- cnt;
    }
  }
}
`

func driftFlockWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("drift-flock", srcDriftFlock)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Spawn("Boid", map[string]value.Value{
			"x": value.Num(float64(i%30) * 4), "y": value.Num(float64(i/30) * 5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestDriftingFlockClampSkew is the edge-partition clamp-skew regression: a
// drifting flock under a frozen layout piles every row into the boundary
// stripe (clamped rows accumulate, imbalance approaches the partition
// count), while the adaptive default re-measures drift-widened bounds —
// epochs advance, clamp skew stays bounded, the imbalance holds near 1 —
// and the two worlds still end bit-identical, because layouts never change
// results.
func TestDriftingFlockClampSkew(t *testing.T) {
	const n, parts, ticks = 600, 4, 40
	frozen := driftFlockWorld(t, n, engine.Options{
		Partitions: parts, Partition: plan.PartitionStripes, Rebalance: plan.RebalanceOff,
	})
	adaptive := driftFlockWorld(t, n, engine.Options{
		Partitions: parts, Partition: plan.PartitionStripes,
	})
	for _, w := range []*engine.World{frozen, adaptive} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	fs, as := frozen.ExecStats(), adaptive.ExecStats()

	// The skew is observable: the frozen world clamps essentially the whole
	// population every late tick.
	if fs.ClampedRows < int64(n)*int64(ticks)/4 {
		t.Fatalf("frozen drift clamped only %d row-ticks; skew not observable", fs.ClampedRows)
	}
	if fs.RebalanceCount != 0 || fs.EpochID != 1 {
		t.Fatalf("frozen layout advanced epochs: %d fires, epoch %d", fs.RebalanceCount, fs.EpochID)
	}

	// The adaptive world re-measures: epochs advance, and the measured
	// drift margin keeps clamping bounded well below the frozen world.
	if as.RebalanceCount == 0 || as.EpochID < 2 {
		t.Fatalf("adaptive drift never rebalanced: %d fires, epoch %d", as.RebalanceCount, as.EpochID)
	}
	if as.ClampedRows*2 >= fs.ClampedRows {
		t.Fatalf("adaptive clamp skew %d not clearly below frozen %d", as.ClampedRows, fs.ClampedRows)
	}
	fi, ai := fs.PartImbalance(parts), as.PartImbalance(parts)
	if ai >= fi {
		t.Fatalf("adaptive imbalance %.2f did not beat frozen %.2f", ai, fi)
	}
	if fi < 2 {
		t.Fatalf("frozen imbalance %.2f never degraded; drift workload too tame", fi)
	}

	// And rebalancing never changed what was computed.
	if d := diffClassWorlds(frozen, adaptive, "Boid", []string{"x", "y", "vx", "vy"}, frozen.IDs("Boid")); d != "" {
		t.Fatalf("adaptive layouts diverged from frozen: %s", d)
	}
}

// TestPartitionedVecFanOut pins the per-worker kernel scratch: partitioned
// vectorized phases must fan out across the pool (ParallelShards counts the
// dispatched partition sweeps — it stayed zero when vec phases ran
// partition-serial over one shared scratch) and stay bit-identical with
// identical VectorRows accounting across worker counts.
func TestPartitionedVecFanOut(t *testing.T) {
	const n, parts, ticks = 3000, 4, 4
	w1 := trafficWorld(t, n, engine.Options{Partitions: parts, Workers: 1})
	w4 := trafficWorld(t, n, engine.Options{Partitions: parts, Workers: 4})
	for _, w := range []*engine.World{w1, w4} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	s1, s4 := w1.ExecStats(), w4.ExecStats()
	if s1.VectorRows == 0 {
		t.Fatal("traffic phases never vectorized under partitioning")
	}
	if s1.VectorRows != s4.VectorRows {
		t.Fatalf("VectorRows drifted across worker counts: %d vs %d", s1.VectorRows, s4.VectorRows)
	}
	if s1.ParallelShards != 0 {
		t.Fatalf("Workers=1 dispatched %d partition sweeps", s1.ParallelShards)
	}
	if s4.ParallelShards < int64(parts)*ticks {
		t.Fatalf("Workers=4 dispatched %d partition sweeps, want >= %d (fan-out per class pass)",
			s4.ParallelShards, int64(parts)*ticks)
	}
	if d := diffClassWorlds(w1, w4, "Vehicle", vehicleAttrs, w1.IDs("Vehicle")); d != "" {
		t.Fatalf("partitioned vec fan-out diverged: %s", d)
	}
}

// srcSparseMove is a mostly-static 2-D join workload: only movers (v != 0)
// change position, so per-partition grids see a small dirty fraction per
// tick.
const srcSparseMove = `
class P {
  state:
    number x = 0;
    number y = 0;
    number v = 0;
    number near = 0;
  effects:
    number nb : sum;
  update:
    x = x + v;
    near = nb;
  run {
    accum number cnt with sum over P u from P {
      if (u.x >= x - 15 && u.x <= x + 15 && u.y >= y - 15 && u.y <= y + 15) {
        cnt <- 1;
      }
    } in {
      nb <- cnt;
    }
  }
}
`

// TestPartitionMemberGridSync pins maintenance of partition-local grids
// under sparse churn: rebuilt over exactly the member rows every tick, the
// results must stay bit-identical to Partitions=1.
func TestPartitionMemberGridSync(t *testing.T) {
	build := func(parts int) *engine.World {
		sc, err := core.LoadScenario("sparse-move", srcSparseMove)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{
			Partitions: parts, Partition: plan.PartitionStripes,
			Strategy: plan.GridIndex,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1200; i++ {
			v := 0.0
			if i%25 == 0 {
				v = 2 // 4% movers
			}
			if _, err := w.Spawn("P", map[string]value.Value{
				"x": value.Num(float64(i%40) * 10), "y": value.Num(float64(i/40) * 12),
				"v": value.Num(v),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	const ticks = 6
	ref := build(1)
	parted := build(3)
	for _, w := range []*engine.World{ref, parted} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	if d := diffClassWorlds(ref, parted, "P", []string{"x", "y", "v", "near"}, ref.IDs("P")); d != "" {
		t.Fatalf("rebuilt partition grids diverged from Partitions=1: %s", d)
	}
}
