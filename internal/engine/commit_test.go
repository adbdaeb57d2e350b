package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

// checkpointDigest renders a checkpoint bit for bit: every class's live ids
// and every column's payload bits (strings verbatim).
func checkpointDigest(t *testing.T, w *engine.World) string {
	t.Helper()
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(cp.Tables))
	for name := range cp.Tables {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		snap := cp.Tables[name]
		fmt.Fprintf(&b, "%s ids=%v\n", name, snap.IDs)
		for _, c := range snap.Cols {
			fmt.Fprintf(&b, " %s:", c.Name)
			for _, f := range c.Nums {
				fmt.Fprintf(&b, " %x", math.Float64bits(f))
			}
			fmt.Fprintf(&b, " %q\n", c.Strs)
		}
	}
	return b.String()
}

// stateBits copies the raw payload bits of every numeric state column of a
// class, dead slots included, indexed [column][physical row].
func stateBits(w *engine.World, class string) [][]uint64 {
	tab := w.ClassTable(class)
	out := make([][]uint64, len(tab.Columns())-1) // the last column is the program counter
	for ci := range out {
		for _, f := range tab.NumColumn(ci) {
			out[ci] = append(out[ci], math.Float64bits(f))
		}
	}
	return out
}

// srcVehiclesWatched is SrcVehicles plus a reactive handler that reads
// x/y — columns the update step commits by swap — on the committed state,
// and a Watcher class whose accum probes a grid built over those swapped
// columns at the start of every tick. Accums are not allowed in handlers,
// so the probe runs in the next effect phase; Vehicle itself stays
// kernel-only.
var srcVehiclesWatched = strings.Replace(core.SrcVehicles, "  run {", `  handlers:
    when (x < 300 || y < 300) {
      burn <- 0.5;
    }
  run {`, 1) + `
class Watcher {
  state:
    number x = 0;
    number y = 0;
    number seen = 0;
  effects:
    number cnt : sum;
  update:
    seen = cnt;
  run {
    accum number n with sum over Vehicle u from Vehicle {
      if (u.x >= x - 150 && u.x <= x + 150 && u.y >= y - 150 && u.y <= y + 150) {
        n <- 1;
      }
    } in {
      cnt <- n;
    }
  }
}
`

// swapScenario is one world of the swap-commit wall.
type swapScenario struct {
	name, class string
	build       func(t *testing.T, opts engine.Options) *engine.World
	spawn       func(w *engine.World, rng *rand.Rand) error
	subs        func(t *testing.T) []views.Def
}

func swapScenarios() []swapScenario {
	box := func(t *testing.T, cx, cy, r float64) string {
		t.Helper()
		pred, err := views.InterestPred([]string{"x", "y"}, []float64{cx, cy}, r)
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	return []swapScenario{
		{
			name: "vehicles", class: "Vehicle",
			build: func(t *testing.T, opts engine.Options) *engine.World {
				t.Helper()
				opts.Strategy = plan.GridIndex // watchers probe a grid over the swapped x/y
				sc, err := core.LoadScenario("vehicles-watched", srcVehiclesWatched)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sc.NewWorld(opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := core.PopulateVehicles(w, workload.Uniform(2500, 4000, 4000, 13)); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64; i++ {
					if _, err := w.Spawn("Watcher", map[string]value.Value{
						"x": value.Num(float64(i%8)*500 + 250), "y": value.Num(float64(i/8)*500 + 250),
					}); err != nil {
						t.Fatal(err)
					}
				}
				return w
			},
			spawn: func(w *engine.World, rng *rand.Rand) error {
				_, err := w.Spawn("Vehicle", map[string]value.Value{
					"x": value.Num(rng.Float64() * 4000), "y": value.Num(rng.Float64() * 4000),
					"dx": value.Num(1), "fuel": value.Num(rng.Float64() * 5),
				})
				return err
			},
			subs: func(t *testing.T) []views.Def {
				return []views.Def{
					{Class: "Vehicle", Pred: box(t, 2000, 2000, 300), Payload: []string{"x", "y", "fuel"}},
					{Class: "Vehicle", Pred: "stress > 0.5", Payload: []string{"stress", "dx"}},
					{Class: "Vehicle", Pred: "fuel < 990", Kind: views.Sum, Attr: "fuel"},
					{Class: "Vehicle", Pred: "true", Kind: views.TopK, Attr: "odo", K: 5},
				}
			},
		},
		{
			name: "arena", class: "Fighter",
			build: func(t *testing.T, opts engine.Options) *engine.World {
				t.Helper()
				sc, err := core.LoadScenario("arena", core.SrcArena)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sc.NewWorld(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Register(physics.New2D(physics.Config{
					Class: "Fighter", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
					Radius: 0.8, MaxSpeed: 2,
					Bounds: &physics.Rect{MaxX: core.ArenaSide(900), MaxY: core.ArenaSide(900)},
				})); err != nil {
					t.Fatal(err)
				}
				if _, err := core.PopulateArena(w, 900, 0.3, 0.2, 5); err != nil {
					t.Fatal(err)
				}
				return w
			},
			spawn: func(w *engine.World, rng *rand.Rand) error {
				side := core.ArenaSide(900)
				x, y := side/2+(rng.Float64()-0.5)*40, side/2+(rng.Float64()-0.5)*40
				_, err := w.Spawn("Fighter", map[string]value.Value{
					"team": value.Num(float64(rng.Intn(2))), "x": value.Num(x), "y": value.Num(y),
					"tx": value.Num(side - x), "ty": value.Num(side - y),
				})
				return err
			},
			subs: func(t *testing.T) []views.Def {
				side := core.ArenaSide(900)
				return []views.Def{
					{Class: "Fighter", Pred: box(t, side/2, side/2, 15), Payload: []string{"x", "y", "health"}},
					{Class: "Fighter", Pred: box(t, side/4, side/4, 200), Payload: []string{"x", "y"}},
					{Class: "Fighter", Pred: "health < 95", Payload: []string{"health"}},
					{Class: "Fighter", Pred: "team == 1", Kind: views.Sum, Attr: "health"},
				}
			},
		},
	}
}

// runSwapWall drives one scenario world for 12 ticks: 3 kills and 2 spawns
// (into the rows just freed) between ticks and a checkpoint→restore before
// tick 6. withViews attaches a views.Registry (maintained in mode) and
// records its delta stream; otherwise the raw changefeed is drained every
// tick and checked against an oracle diffing the state before and after.
// Dead slots must keep the payload they died with until reused. The
// returned record holds per tick the checkpoint, the raw storage of every
// state column (dead slots included) and the feed rows or view deltas.
func runSwapWall(t *testing.T, sc swapScenario, opts engine.Options, withViews bool, mode plan.ViewMode) string {
	t.Helper()
	w := sc.build(t, opts)
	var reg *views.Registry
	if withViews {
		reg = views.New(w, plan.DefaultCosts())
		for _, def := range sc.subs(t) {
			def.Mode = mode
			if _, err := reg.Subscribe(def); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		w.EnableChangeFeed()
		w.DrainChangeFeed(func(engine.ClassDelta) {})
	}
	tab := w.ClassTable(sc.class)
	dead := map[int][]uint64{} // freed row → its state payload bits at death
	rng := rand.New(rand.NewSource(31))
	var b strings.Builder
	for tick := 0; tick < 12; tick++ {
		before, beforeIDs := stateBits(w, sc.class), slices.Clone(tab.RawIDs())
		beforeAlive := slices.Clone(tab.AliveMask())
		var killed []value.ID
		if tick > 0 {
			for i := 0; i < 3; i++ {
				ids := w.IDs(sc.class)
				id := ids[rng.Intn(len(ids))]
				row, bits := tab.Row(id), stateBits(w, sc.class)
				dead[row] = nil
				for ci := range bits {
					dead[row] = append(dead[row], bits[ci][row])
				}
				if err := w.Kill(sc.class, id); err != nil {
					t.Fatal(err)
				}
				killed = append(killed, id)
			}
			for i := 0; i < 2; i++ {
				if err := sc.spawn(w, rng); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tick == 6 {
			cp, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Restore(cp); err != nil {
				t.Fatal(err)
			}
			clear(dead) // rows compacted: the free list is new
		}
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "tick %d\n%s", tick, checkpointDigest(t, w))
		after := stateBits(w, sc.class)
		for ci, col := range after {
			fmt.Fprintf(&b, " raw%d: %x\n", ci, col)
		}
		for row, bits := range dead {
			if tab.Alive(row) {
				delete(dead, row)
				continue
			}
			for ci, want := range bits {
				if after[ci][row] != want {
					t.Errorf("tick %d: dead row %d column %d holds %x, died with %x", tick, row, ci, after[ci][row], want)
				}
			}
		}
		if withViews {
			reg.Apply(func(d *views.Delta) {
				fmt.Fprintf(&b, " sub=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
					d.Sub, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols, d.RemIDs, d.AggChanged, d.Agg, d.Top)
			})
			continue
		}
		w.DrainChangeFeed(func(d engine.ClassDelta) {
			if d.Class != sc.class {
				return
			}
			fmt.Fprintf(&b, " feed resync=%v rows=%v killed=%v\n", d.Resync, d.Rows, d.Killed)
			if d.Resync != (tick == 6) {
				t.Errorf("tick %d: feed resync=%v", tick, d.Resync)
			}
			if d.Resync {
				return
			}
			var want []int32
			for r, ok := range tab.AliveMask() {
				changed := !ok || r >= len(beforeAlive) || !beforeAlive[r] || beforeIDs[r] != tab.ID(r)
				for ci := range after {
					changed = changed || after[ci][r] != before[ci][r]
				}
				if ok && changed {
					want = append(want, int32(r))
				}
			}
			slices.Sort(killed)
			if !slices.Equal(d.Rows, want) || !slices.Equal(d.Killed, killed) {
				t.Errorf("tick %d: feed rows %v killed %v, state diff says %v killed %v", tick, d.Rows, d.Killed, want, killed)
			}
		})
	}
	return b.String()
}

// TestSwapCommitWall is the guard for committing fully written next-epoch
// columns by pointer swap. Against the ExecScalar, Workers=1 reference, a
// vehicles world (kernel update rules, a handler reading the swapped x/y
// after the commit, watchers probing a grid over them) and an arena world
// (physics staging x/y through ClassCols, scalar accum phases) must
// produce, tick by tick under kills, spawns into freed rows and a
// checkpoint→restore, identical checkpoints, identical raw column storage
// including dead slots, identical changefeed rows (each also checked
// against a before/after state diff) and identical view delta streams —
// the reference maintaining its views by full rescan, the others
// incrementally from the changefeed.
func TestSwapCommitWall(t *testing.T) {
	ref := engine.Options{Workers: 1, Exec: plan.ExecScalar}
	for _, sc := range swapScenarios() {
		wantFeed := runSwapWall(t, sc, ref, false, plan.ViewAuto)
		wantViews := runSwapWall(t, sc, ref, true, plan.ViewRescan)
		for _, wk := range []int{1, 4} {
			for _, parts := range []int{0, 2} {
				opts := engine.Options{Workers: wk, Partitions: parts, Exec: plan.ExecVectorized}
				t.Run(fmt.Sprintf("%s/w%d-p%d", sc.name, wk, parts), func(t *testing.T) {
					if d := firstDiff(wantFeed, runSwapWall(t, sc, opts, false, plan.ViewAuto)); d != "" {
						t.Errorf("checkpoints, storage or feed diverged from the scalar reference: %s", d)
					}
					if d := firstDiff(wantViews, runSwapWall(t, sc, opts, true, plan.ViewDelta)); d != "" {
						t.Errorf("view deltas diverged from the scalar rescan reference: %s", d)
					}
				})
			}
		}
	}
}

// firstDiff names the first line where two records differ, "" if none.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(wl), len(gl)) {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d\nwant: %.600s\ngot:  %.600s", i+1, wl[i], gl[i])
		}
	}
	if len(wl) != len(gl) {
		return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
	}
	return ""
}

// srcBlip has two phases split by waitNextTick: phase 0 is kernel-eligible,
// phase 1 is not (an ordered string comparison has no columnar payload), so
// a vectorized effect pass must still run the scalar row loop for the rows
// at phase 1. srcBlipAllVec replaces that comparison with a numeric one:
// every phase vectorizes and the loop is skipped.
const srcBlip = `
class Blip {
  state:
    number x = 0;
    number y = 0;
    number v = 1;
    number hits = 0;
    string tag = "a";
  effects:
    number dx : sum;
    number hit : sum;
  update:
    x = x + dx;
    hits = hits + hit;
  run {
    dx <- v * 0.5;
    if (x > 10) {
      hit <- 1;
    }
    waitNextTick;
    if (tag < "m") {
      dx <- 0 - v;
    } else {
      hit <- 2;
    }
  }
}
`

var srcBlipAllVec = strings.Replace(srcBlip, `tag < "m"`, "v < 2", 1)

// TestVecOnlyPassSkipsScalarLoop checks the effect pass's decision to skip
// the scalar row loop: tick by tick, under kills and spawns, a forced
// vectorized world matches the ExecScalar, Workers=1 reference for Workers
// ∈ {1, 4} × Partitions ∈ {0, 2} — both for the mixed class, whose second
// phase only the scalar loop runs, and for the all-kernel one that skips it.
func TestVecOnlyPassSkipsScalarLoop(t *testing.T) {
	build := func(src string, opts engine.Options) *engine.World {
		w := mustVecWorld(t, src, opts)
		for i := 0; i < 3000; i++ {
			if _, err := w.Spawn("Blip", map[string]value.Value{
				"x": value.Num(float64(i % 23)), "y": value.Num(float64(i % 41)),
				"v": value.Num(float64(i%4) * 0.75), "tag": value.Str([]string{"b", "q", "z"}[i%3]),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	for _, src := range []struct{ name, src string }{{"mixed", srcBlip}, {"allvec", srcBlipAllVec}} {
		for _, wk := range []int{1, 4} {
			for _, parts := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/w%d-p%d", src.name, wk, parts), func(t *testing.T) {
					ref := build(src.src, engine.Options{Workers: 1, Exec: plan.ExecScalar})
					w := build(src.src, engine.Options{Workers: wk, Partitions: parts, Exec: plan.ExecVectorized})
					for tick := 0; tick < 8; tick++ {
						for _, x := range []*engine.World{ref, w} {
							ids := x.IDs("Blip")
							if err := x.Kill("Blip", ids[(tick*97)%len(ids)]); err != nil {
								t.Fatal(err)
							}
							if _, err := x.Spawn("Blip", map[string]value.Value{"x": value.Num(float64(tick)), "v": value.Num(1)}); err != nil {
								t.Fatal(err)
							}
							if err := x.RunTick(); err != nil {
								t.Fatal(err)
							}
						}
						if d := firstDiff(checkpointDigest(t, ref), checkpointDigest(t, w)); d != "" {
							t.Fatalf("tick %d: %s", tick, d)
						}
					}
					if w.ExecStats().VectorRows == 0 {
						t.Fatal("no phase ran as kernels")
					}
					if got := w.ExecStats().ScalarRows > 0; got != (src.name == "mixed") {
						t.Fatalf("scalar rows ran: %v", got)
					}
				})
			}
		}
	}
}
