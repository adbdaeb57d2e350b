package sgl_test

import (
	"os"
	"strings"
	"testing"

	sgl "repro"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

func TestLoadErrorsPropagate(t *testing.T) {
	if _, err := sgl.Load("class {"); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := sgl.Load(`class C { state: number x = 0; run { y <- 1; } }`); err == nil {
		t.Error("semantic error must surface")
	}
}

func TestGameAccessors(t *testing.T) {
	data, err := os.ReadFile("testdata/unit.sgl")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgl.Load(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Classes(); len(got) != 1 || got[0] != "Unit" {
		t.Errorf("Classes = %v", got)
	}
	if !strings.Contains(g.Explain("Unit"), "rectangular range") {
		t.Error("Explain must show the recognized index join")
	}
	if g.Explain("Nope") != "" {
		t.Error("unknown class explains empty")
	}
	src := g.Source()
	if _, err := sgl.Load(src); err != nil {
		t.Errorf("canonical source must reparse: %v", err)
	}
	if g.Info() == nil {
		t.Error("Info accessor")
	}
}

const srcAccumOverSet = `
class Squad {
  state:
    number x = 0;
    number morale = 0;
    set<ref<Squad>> friends;
  effects:
    number dmorale : sum;
  update:
    morale = morale + dmorale;
  run {
    accum number total with sum over Squad f from friends {
      total <- f.x;
    } in {
      dmorale <- total;
    }
  }
}
`

func TestAccumOverSetSource(t *testing.T) {
	g := mustLoad(t, srcAccumOverSet)
	w, err := g.NewWorld(sgl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(3)})
	b, _ := w.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(4)})
	dead, _ := w.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(100)})
	friends := value.NewSet(value.Ref(a), value.Ref(b), value.Ref(dead))
	c, _ := w.Spawn("Squad", map[string]sgl.Value{"friends": value.SetVal(friends)})
	// Kill one friend: the dangling ref must be skipped, not crash.
	w.Kill("Squad", dead)
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("Squad", c, "morale").AsNumber(); got != 7 {
		t.Fatalf("morale = %v, want 7 (3+4, dangling friend skipped)", got)
	}
	// Baseline agrees.
	bw := g.NewBaseline()
	ba, _ := bw.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(3)})
	bb, _ := bw.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(4)})
	bdead, _ := bw.Spawn("Squad", map[string]sgl.Value{"x": sgl.Num(100)})
	bc, _ := bw.Spawn("Squad", map[string]sgl.Value{
		"friends": value.SetVal(value.NewSet(value.Ref(ba), value.Ref(bb), value.Ref(bdead))),
	})
	bw.Kill("Squad", bdead)
	if err := bw.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got, _ := bw.Get("Squad", bc, "morale"); got.AsNumber() != 7 {
		t.Fatalf("baseline morale = %v", got.AsNumber())
	}
}

const srcHashJoin = `
class Piece {
  state:
    number player = 0;
    number strength = 0;
    number allies = 0;
  effects:
    number cnt : sum;
  update:
    allies = cnt;
  run {
    accum number k with count over Piece p from Piece {
      if (p.player == player) {
        k <- 1;
      }
    } in {
      cnt <- k;
    }
  }
}
`

func TestHashJoinStrategy(t *testing.T) {
	g := mustLoad(t, srcHashJoin)
	for _, strat := range []sgl.Strategy{sgl.HashIndex, sgl.NestedLoop, sgl.Auto} {
		w, err := g.NewWorld(sgl.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		var ids []sgl.ID
		for i := 0; i < 30; i++ {
			id, _ := w.Spawn("Piece", map[string]sgl.Value{"player": sgl.Num(float64(i % 3))})
			ids = append(ids, id)
		}
		if err := w.RunTick(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, id := range ids {
			// Each player has 10 pieces (including self).
			if got := w.MustGet("Piece", id, "allies").AsNumber(); got != 10 {
				t.Fatalf("%v: allies = %v, want 10", strat, got)
			}
		}
	}
}

const srcSetEffects = `
class Collector {
  state:
    number x = 0;
    set<number> seen;
  effects:
    set<number> dseen : union;
  update:
    seen = dseen;
  run {
    accum set<number> vals with union over Collector c from Collector {
      if (c.x >= x - 5 && c.x <= x + 5) {
        vals <= c.x;
      }
    } in {
      dseen <- vals;
    }
  }
}
`

func TestSetEffectsAndSetAccum(t *testing.T) {
	g := mustLoad(t, srcSetEffects)
	w, err := g.NewWorld(sgl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []sgl.ID
	for _, x := range []float64{0, 3, 50} {
		id, _ := w.Spawn("Collector", map[string]sgl.Value{"x": sgl.Num(x)})
		ids = append(ids, id)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	s0 := w.MustGet("Collector", ids[0], "seen").AsSet()
	if s0.Len() != 2 || !s0.Contains(sgl.Num(0)) || !s0.Contains(sgl.Num(3)) {
		t.Fatalf("seen[0] = %v", s0)
	}
	s2 := w.MustGet("Collector", ids[2], "seen").AsSet()
	if s2.Len() != 1 || !s2.Contains(sgl.Num(50)) {
		t.Fatalf("seen[2] = %v", s2)
	}
}

func TestSpawnDuringTickVisibleNextTick(t *testing.T) {
	g := mustLoad(t, srcHashJoin)
	w, _ := g.NewWorld(sgl.Options{})
	first, _ := w.Spawn("Piece", map[string]sgl.Value{"player": sgl.Num(0)})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("Piece", first, "allies").AsNumber(); got != 1 {
		t.Fatalf("allies = %v", got)
	}
	w.Spawn("Piece", map[string]sgl.Value{"player": sgl.Num(0)})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("Piece", first, "allies").AsNumber(); got != 2 {
		t.Fatalf("allies after spawn = %v", got)
	}
}

// TestWorkersComposeWithExec pins the public contract of the sharded
// executor: Workers and Exec are independent axes. Forcing ExecVectorized
// with Workers=4 must actually run batch kernels (it used to fall back to
// the scalar worker loop silently), report the same vectorized-row count as
// Workers=1, dispatch shards to the pool, and produce the identical
// trajectory.
func TestWorkersComposeWithExec(t *testing.T) {
	g, err := sgl.Load(core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	const n, ticks = 2500, 3
	worlds := map[int]*sgl.World{}
	for _, workers := range []int{1, 4} {
		w, err := g.NewWorld(sgl.Options{Workers: workers, Exec: sgl.ExecVectorized})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 9)); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
		worlds[workers] = w
	}
	if v := worlds[4].ExecStats().VectorRows; v == 0 {
		t.Fatal("Workers=4 + ExecVectorized reported zero vectorized rows")
	}
	if worlds[1].ExecStats().VectorRows != worlds[4].ExecStats().VectorRows {
		t.Fatalf("VectorRows drift: Workers=1 %d, Workers=4 %d",
			worlds[1].ExecStats().VectorRows, worlds[4].ExecStats().VectorRows)
	}
	if worlds[4].ExecStats().ParallelShards == 0 {
		t.Fatal("Workers=4 never dispatched shards")
	}
	for _, id := range worlds[1].IDs("Vehicle") {
		for _, attr := range []string{"x", "y", "fuel", "odo", "stress"} {
			a := worlds[1].MustGet("Vehicle", id, attr)
			b := worlds[4].MustGet("Vehicle", id, attr)
			if !a.Equal(b) {
				t.Fatalf("vehicle %d %s: Workers=1 %v, Workers=4 %v", id, attr, a, b)
			}
		}
	}
}

// TestExecModeOptions exercises the public execution-mode surface: the
// same program must produce identical trajectories under forced scalar,
// forced vectorized and cost-model (auto) execution.
func TestExecModeOptions(t *testing.T) {
	data, err := os.ReadFile("testdata/unit.sgl")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgl.Load(string(data))
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[sgl.ExecMode]*sgl.World{}
	var ids []sgl.ID
	for _, mode := range []sgl.ExecMode{sgl.ExecScalar, sgl.ExecVectorized} {
		w, err := g.NewWorld(sgl.Options{Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		var local []sgl.ID
		for i := 0; i < 60; i++ {
			id, err := w.Spawn("Unit", map[string]sgl.Value{
				"x": sgl.Num(float64(i % 8 * 4)), "y": sgl.Num(float64(i / 8 * 4)),
			})
			if err != nil {
				t.Fatal(err)
			}
			local = append(local, id)
		}
		if err := w.Run(4); err != nil {
			t.Fatal(err)
		}
		worlds[mode] = w
		ids = local
	}
	for _, id := range ids {
		want := worlds[sgl.ExecScalar].MustGet("Unit", id, "health")
		for _, mode := range []sgl.ExecMode{sgl.ExecVectorized} {
			if got := worlds[mode].MustGet("Unit", id, "health"); !got.Equal(want) {
				t.Fatalf("%v: unit %d health %v, scalar %v", mode, id, got, want)
			}
		}
	}
}

// TestPartitionOptions exercises the public shared-nothing surface: forced
// layouts must produce trajectories identical to Partitions=1, the §4.2
// counters and per-partition index memory must be populated, and the
// derived interaction radius must be visible per class pair.
func TestPartitionOptions(t *testing.T) {
	g, err := sgl.Load(core.SrcTraffic)
	if err != nil {
		t.Fatal(err)
	}
	const n, ticks = 1200, 3
	net := workload.TrafficNetwork{W: 4000, H: 4000, Roads: 30, Speed: 3}
	build := func(opts sgl.Options) *sgl.World {
		t.Helper()
		w, err := g.NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateCars(w, net.Vehicles(n, 5)); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref := build(sgl.Options{Partitions: 1})
	for _, strat := range []sgl.PartitionStrategy{sgl.PartitionAuto, sgl.PartitionStripes, sgl.PartitionGrid, sgl.PartitionHash} {
		w := build(sgl.Options{Partitions: 4, Partition: strat, Workers: 2})
		for _, id := range ref.IDs("Car") {
			for _, attr := range []string{"x", "y", "slow"} {
				a := ref.MustGet("Car", id, attr)
				b := w.MustGet("Car", id, attr)
				if !a.Equal(b) {
					t.Fatalf("%v: car %d %s: %v vs %v", strat, id, attr, a, b)
				}
			}
		}
		if w.Partitions() != 4 {
			t.Fatalf("%v: Partitions() = %d", strat, w.Partitions())
		}
		if st := w.ExecStats(); st.GhostRows == 0 || st.PartLoadSum == 0 {
			t.Fatalf("%v: partition counters empty: %+v", strat, st)
		}
		if ib := w.PartitionIndexBytes(); len(ib) != 4 {
			t.Fatalf("%v: PartitionIndexBytes = %v", strat, ib)
		}
	}
	// Radius exposure needs a layout with both axes: under stripes the y
	// dimension can only anchor (loosely but soundly) to the x axis.
	grid := build(sgl.Options{Partitions: 4, Partition: sgl.PartitionGrid})
	radii := grid.InteractionRadii()
	if len(radii) != 1 || radii[0].Class != "Car" || radii[0].Source != "Car" {
		t.Fatalf("InteractionRadii = %+v", radii)
	}
	for _, d := range radii[0].Dims {
		// The reach is max over rows of (x+12)−x etc., so it may exceed 12
		// by a rounding ulp — which is exactly why the ghost intervals are
		// computed from these measured values, not the literal constant.
		if !d.Anchored || d.Attr != d.Axis || d.Lo < 12 || d.Lo > 12.001 || d.Hi < 12 || d.Hi > 12.001 {
			t.Fatalf("headway reach = %+v, want ~±12 on its own axis", d)
		}
	}
}
