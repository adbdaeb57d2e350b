package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
// differential: how to build and populate it, and how to churn it. pinned
// marks a script whose effect phase must stay on the scalar path.
type segScenario struct {
	name, src, class string
	attrs            []string
	physics          bool
	pinned           bool
	populate         func(w *engine.World) error
	spawn            func(w *engine.World, i int) error
}

// srcDuel hoists a maxby join whose `in` block emits two targeted
// contributions into the own class — one through the join result, one
// through a stored ref that goes null or dangling as rivals die — and a
// self-emission into another effect. hits folds a non-exact float sum, so
// any reordering of its contributions shows in health.
const srcDuel = `
class Duelist {
  state:
    number team = 0;
    number x = 0;
    number y = 0;
    number range = 12;
    number health = 100;
    ref<Duelist> rival = null;
  effects:
    number hits : sum;
    number drift : avg;
  update:
    health = health - hits;
    x = x + drift;
  run {
    accum ref<Duelist> foe with maxby over Duelist u from Duelist {
      if (u.team != team &&
          u.x >= x - range && u.x <= x + range &&
          u.y >= y - range && u.y <= y + range) {
        foe <- u by u.health;
      }
    } in {
      if (foe != null) {
        foe.hits <- health * 0.013;
      }
      rival.hits <- 0.3;
      drift <- (150 - x) * 0.01;
    }
  }
}
`

// srcDuelPinned additionally self-emits into hits, the effect its targeted
// emissions feed: the phase is pinned to the scalar path.
var srcDuelPinned = strings.Replace(srcDuel, "drift <- (150", "hits <- health * 0.002;\n      drift <- (150", 1)

func duelSpawn(w *engine.World, i int) error {
	rival := value.NullRef()
	if ids := w.IDs("Duelist"); i%3 != 0 && len(ids) > 0 {
		rival = value.Ref(ids[(i*7)%len(ids)])
	}
	rng := rand.New(rand.NewSource(int64(i)))
	_, err := w.Spawn("Duelist", map[string]value.Value{
		"team": value.Num(float64(i % 2)),
		"x":    value.Num(rng.Float64() * 200), "y": value.Num(rng.Float64() * 200),
		"health": value.Num(float64(50 + i%50)), "rival": rival,
	})
	return err
}

// srcTies keys its join on a numeric team that is NaN for a third of the
// objects (a NaN team differs from every team, its own too) and picks its
// maxby winner by a three-valued rank: most probes see ties on equal keys,
// which the fold breaks toward the smaller ref exactly as Accumulator.Add
// does, whatever the candidate order. Every 11th object's rank is NaN, which
// ranks after every number: were a leading NaN key never displaced, the
// winner would depend on the candidate order, which differs between
// partitioned (row order) and unpartitioned (cell order) probes.
const srcTies = `
class Tier {
  state:
    number team = 0;
    number x = 0;
    number y = 0;
    number rank = 0;
    number health = 100;
  effects:
    number hits : sum;
  update:
    health = health - hits;
  run {
    accum ref<Tier> foe with maxby over Tier u from Tier {
      if (u.team != team &&
          u.x >= x - 14 && u.x <= x + 14 &&
          u.y >= y - 14 && u.y <= y + 14) {
        foe <- u by u.rank;
      }
    } in {
      if (foe != null) {
        foe.hits <- health * 0.011;
      }
    }
  }
}
`

func tiesSpawn(w *engine.World, i int) error {
	team := float64(i % 2)
	if i%3 == 0 {
		team = math.NaN()
	}
	rank := float64(i % 3)
	if i%11 == 0 {
		rank = math.NaN()
	}
	rng := rand.New(rand.NewSource(int64(i)))
	_, err := w.Spawn("Tier", map[string]value.Value{
		"team": value.Num(team), "rank": value.Num(rank),
		"x": value.Num(rng.Float64() * 180), "y": value.Num(rng.Float64() * 180),
	})
	return err
}

func segScenarios() []segScenario {
	duelAttrs := []string{"team", "x", "y", "range", "health", "rival"}
	populateDuel := func(w *engine.World) error {
		for i := 0; i < 700; i++ {
			if err := duelSpawn(w, i); err != nil {
				return err
			}
		}
		// Rivals in both row directions: a contribution then lands on either
		// side of its target's own row in the scalar merge order.
		ids := w.IDs("Duelist")
		for i, id := range ids {
			if i%3 != 0 {
				if err := w.SetState("Duelist", id, "rival", value.Ref(ids[(i*7919+3)%len(ids)])); err != nil {
					return err
				}
			}
		}
		return nil
	}
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
		{name: "duel", src: srcDuel, class: "Duelist", attrs: duelAttrs, populate: populateDuel, spawn: duelSpawn},
		{name: "duel-pinned", src: srcDuelPinned, class: "Duelist", attrs: duelAttrs, pinned: true, populate: populateDuel, spawn: duelSpawn},
		{
			name: "ties", src: srcTies, class: "Tier", attrs: []string{"team", "x", "y", "rank", "health"},
			populate: func(w *engine.World) error {
				for i := 0; i < 700; i++ {
					if err := tiesSpawn(w, i); err != nil {
						return err
					}
				}
				return nil
			},
			spawn: tiesSpawn,
		},
	}
}

// newSegWorld builds an empty world for a scenario.
func newSegWorld(t *testing.T, sc segScenario, opts engine.Options, oneSegment bool) *engine.World {
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
	return w
}

const segTicks = 6

// segTick runs tick `tick` of a scenario's churn schedule and returns the
// world to continue with: after tick 1 every 9th object dies and 60 spawn
// into the freed rows; after tick 2 every 5th dies, leaving stored refs to
// them dangling; after tick 3 the world is checkpointed and continues as a
// fresh world restored from it.
func segTick(t *testing.T, sc segScenario, w *engine.World, opts engine.Options, oneSegment bool, tick int) *engine.World {
	t.Helper()
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	switch tick {
	case 1, 2:
		ids := w.IDs(sc.class)
		for i := 0; i < len(ids); i += 9 - 4*(tick-1) {
			if err := w.Kill(sc.class, ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; tick == 1 && i < 60; i++ {
			if err := sc.spawn(w, i); err != nil {
				t.Fatal(err)
			}
		}
	case 3:
		cp, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		w = newSegWorld(t, sc, opts, oneSegment)
		if err := w.Restore(cp); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// runSegScenario populates a scenario's world and runs its churn schedule,
// calling check after every tick.
func runSegScenario(t *testing.T, sc segScenario, opts engine.Options, oneSegment bool, check func(tick int, w *engine.World)) *engine.World {
	t.Helper()
	w := newSegWorld(t, sc, opts, oneSegment)
	if err := sc.populate(w); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < segTicks; tick++ {
		w = segTick(t, sc, w, opts, oneSegment, tick)
		check(tick, w)
	}
	return w
}

// segState is every state attribute of every live object, in id order.
type segState struct {
	ids  []value.ID
	vals []value.Value
}

func snapState(w *engine.World, class string, attrs []string) segState {
	s := segState{ids: w.IDs(class)}
	for _, id := range s.ids {
		for _, attr := range attrs {
			v, _ := w.Get(class, id, attr)
			s.vals = append(s.vals, v)
		}
	}
	return s
}

// diffState compares two snapshots bit for bit.
func diffState(a, b segState, attrs []string) string {
	if len(a.ids) != len(b.ids) {
		return fmt.Sprintf("%d vs %d live objects", len(a.ids), len(b.ids))
	}
	for i, id := range a.ids {
		if b.ids[i] != id {
			return fmt.Sprintf("object %d: id %d vs %d", i, id, b.ids[i])
		}
	}
	for i, av := range a.vals {
		if bv := b.vals[i]; !sameBits(av, bv) {
			return fmt.Sprintf("id %d %s: %v vs %v", a.ids[i/len(attrs)], attrs[i%len(attrs)], av, bv)
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

// TestSegmentedJoinDifferential pins the segmented batch join and the
// kernel phase around it: on the rts, arena, Fig2, duel and ties scripts under
// spawn/kill churn, dangling targets and a checkpoint → restore, joins
// hoisted into per-batch probes with the enclosing phase on kernels, the
// same batched joins run one
// probe at a time, and the scalar join interpreter match the Workers=1
// unpartitioned ExecScalar reference tick by tick, bit for bit, in every
// Workers {1, 4} × Partitions {0, 2} cell — and hoisting changes none of
// the join counters. Unpinned scripts run no scalar row on the kernel arm;
// the pinned duel runs its phase scalar in every arm.
func TestSegmentedJoinDifferential(t *testing.T) {
	for _, sc := range segScenarios() {
		var ref []segState
		runSegScenario(t, sc, engine.Options{Join: plan.JoinScalar, Exec: plan.ExecScalar, Workers: 1}, false,
			func(_ int, w *engine.World) { ref = append(ref, snapState(w, sc.class, sc.attrs)) })
		for _, strat := range []plan.Strategy{plan.Auto, plan.GridIndex} {
			for _, workers := range []int{1, 4} {
				for _, parts := range []int{0, 2} {
					label := fmt.Sprintf("%s/%v/w%d/p%d", sc.name, strat, workers, parts)
					arm := func(name string, join plan.JoinMode, exec plan.ExecMode, oneSegment bool) *engine.World {
						opts := engine.Options{Strategy: strat, Workers: workers, Partitions: parts, Join: join, Exec: exec}
						return runSegScenario(t, sc, opts, oneSegment, func(tick int, w *engine.World) {
							if d := diffState(ref[tick], snapState(w, sc.class, sc.attrs), sc.attrs); d != "" {
								t.Fatalf("%s %s diverged from the reference after tick %d: %s", label, name, tick, d)
							}
						})
					}
					hoisted := arm("hoisted", plan.JoinBatched, plan.ExecVectorized, false)
					if hoisted.HoistedSites() == 0 {
						t.Fatalf("%s: no site was hoisted", label)
					}
					one := arm("one-segment", plan.JoinBatched, plan.ExecVectorized, true)
					arm("scalar", plan.JoinScalar, plan.ExecVectorized, false)
					hs, os := hoisted.ExecStats(), one.ExecStats()
					if hs.JoinProbeRows != os.JoinProbeRows || hs.JoinMatchRows != os.JoinMatchRows || hs.JoinBatchedRows != os.JoinBatchedRows {
						t.Fatalf("%s: join counters hoisted %d/%d/%d, one-segment %d/%d/%d", label,
							hs.JoinProbeRows, hs.JoinMatchRows, hs.JoinBatchedRows,
							os.JoinProbeRows, os.JoinMatchRows, os.JoinBatchedRows)
					}
					if sc.pinned != (hs.ScalarRows > 0) && parts == 0 {
						t.Fatalf("%s: kernels ran %d scalar rows, pinned=%v", label, hs.ScalarRows, sc.pinned)
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

const srcCount = `
class P {
  state:
    number x = 0;
    number y = 0;
    number team = 0;
    number n = 0;
  effects:
    number c : sum;
  update:
    n = c;
  run {
    accum number k with sum over P u from P {
      if (u.team != team && u.x >= x - 5 && u.x <= x + 5 && u.y >= y - 5 && u.y <= y + 5) {
        k <- 1;
      }
    } in {
      c <- k;
    }
  }
}
`

// TestNaNCoordinateNeverMatches: a row with a NaN coordinate is inside no
// box, whichever index or scan serves the probe — the grid leaves NaN
// points out, and the range tree and the nested loop let them through to
// the per-dimension re-check — and its own NaN box matches nothing. The key conjunct u.team != team compares
// as value.Equal does, NaN included: a NaN team differs from every team,
// its own too, so a NaN-team row counts all 20 finite rows and a team-1
// row only the 10 NaN-team ones.
func TestNaNCoordinateNeverMatches(t *testing.T) {
	for _, strat := range []plan.Strategy{plan.GridIndex, plan.RangeTreeIndex, plan.NestedLoop} {
		for _, join := range []plan.JoinMode{plan.JoinBatched, plan.JoinScalar} {
			s, err := core.LoadScenario("count", srcCount)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorld(engine.Options{Strategy: strat, Join: join, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			spawn := func(x, y, team float64) value.ID {
				id, err := w.Spawn("P", map[string]value.Value{"x": value.Num(x), "y": value.Num(y), "team": value.Num(team)})
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			var finite []value.ID
			for i := 0; i < 20; i++ {
				finite = append(finite, spawn(float64(i%5), float64(i/5), []float64{math.NaN(), 1}[i%2]))
			}
			nans := []value.ID{spawn(math.NaN(), 1, math.NaN()), spawn(2, math.NaN(), 0)}
			if err := w.Run(2); err != nil {
				t.Fatal(err)
			}
			for i, id := range finite {
				if n, _ := w.Get("P", id, "n"); n.AsNumber() != float64(20-10*(i%2)) {
					t.Fatalf("%v/%v: object %d (team %v) counts %v neighbours, want %d", strat, join, id, []float64{math.NaN(), 1}[i%2], n, 20-10*(i%2))
				}
			}
			for _, id := range nans {
				if n, _ := w.Get("P", id, "n"); n.AsNumber() != 0 {
					t.Fatalf("%v/%v: NaN object %d counts %v neighbours, want 0", strat, join, id, n)
				}
			}
		}
	}
}
