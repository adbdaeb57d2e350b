package views_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// hostileArm is one way of maintaining the same subscriptions.
type hostileArm struct {
	name  string
	mode  plan.ViewMode
	costs plan.Costs
}

func hostileArms() []hostileArm {
	always := plan.DefaultCosts()
	always.ViewProbe = 0 // probing is free: every group takes the index on every tick
	return []hostileArm{
		{"rescan", plan.ViewRescan, plan.DefaultCosts()},
		{"delta", plan.ViewDelta, plan.DefaultCosts()},
		{"auto", plan.ViewAuto, plan.DefaultCosts()},
		{"auto-always-indexed", plan.ViewAuto, always},
	}
}

// hostileStream drives one arm through the cases an index probe can get
// wrong where a per-subscription kernel cannot: points exactly on box edges,
// NaN / ±0 / infinite coordinates, a kill whose row is reused before the
// next Apply, rows touched only in columns nobody watches, subscriptions
// joining and leaving mid-run, a checkpoint→restore resync and a
// Detach/Attach onto a rebuilt engine. It serializes every delta and the
// final memberships; all arms must produce the same string.
func hostileStream(t *testing.T, arm hostileArm) string {
	t.Helper()
	w := unitWorld(t, 0, engine.Options{})
	spawn := func(x, y, health float64) value.ID {
		t.Helper()
		id, err := w.Spawn("Unit", map[string]value.Value{
			"x": value.Num(x), "y": value.Num(y), "health": value.Num(health),
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	set := func(id value.ID, attr string, v float64) {
		t.Helper()
		if err := w.SetState("Unit", id, attr, value.Num(v)); err != nil {
			t.Fatal(err)
		}
	}
	kill := func(id value.ID) {
		t.Helper()
		if err := w.Kill("Unit", id); err != nil {
			t.Fatal(err)
		}
	}
	// A lattice of units on integer coordinates: box corners below land
	// exactly on them.
	var ids []value.ID
	for i := 0; i < 144; i++ {
		ids = append(ids, spawn(float64(i%12)*10, float64(i/12)*10, 60+float64(i%40)))
	}

	r := views.New(w, arm.costs)
	var subs []*views.Sub
	subscribe := func(def views.Def) *views.Sub {
		def.Mode = arm.mode
		s := mustSub(t, r, def)
		subs = append(subs, s)
		return s
	}
	box := func(cx, cy, radius float64) string { return boxPred(t, cx, cy, radius) }
	// 64 boxes whose edges sit on lattice coordinates (closed edges), mixed
	// radii, ascending so the grid's cell has to grow; plus strict-edged
	// and aggregate variants of the shape.
	for i := 0; i < 64; i++ {
		pred := box(float64(i%8)*15, float64(i/8)*15, float64(5*(1+i%5)))
		switch i % 8 {
		case 5:
			subscribe(views.Def{Class: "Unit", Pred: pred, Kind: views.Count})
		case 6:
			subscribe(views.Def{Class: "Unit", Pred: pred, Kind: views.Sum, Attr: "health"})
		case 7:
			subscribe(views.Def{Class: "Unit", Pred: pred, Kind: views.TopK, Attr: "health", K: 3})
		default:
			subscribe(views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y", "health"}})
		}
	}
	for i := 0; i < 16; i++ {
		lo, hi := float64(i*5), float64(i*5+30)
		subscribe(views.Def{Class: "Unit", Payload: []string{"x"},
			Pred: fmt.Sprintf("x > %v && x < %v && y > %v && y < %v", lo, hi, lo, hi)})
	}
	// Thresholds on integer health values the lattice holds exactly, both
	// strictnesses and both directions, and closed/open bands.
	for i := 0; i < 24; i++ {
		op := []string{"<", "<=", ">", ">="}[i%4]
		subscribe(views.Def{Class: "Unit", Pred: fmt.Sprintf("health %s %d", op, 60+i*2), Payload: []string{"health"}})
	}
	for i := 0; i < 8; i++ {
		subscribe(views.Def{Class: "Unit", Pred: fmt.Sprintf("health >= %d && health < %d", 60+i*4, 70+i*4), Kind: views.Count})
	}
	// Shapes the index must refuse and leave to the per-subscription path.
	offIndex := []*views.Sub{
		subscribe(views.Def{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 5}),
		subscribe(views.Def{Class: "Unit", Pred: "x + y < 60", Payload: []string{"x"}}),
		subscribe(views.Def{Class: "Unit", Pred: "x >= 10 && y <= 50", Payload: []string{"x"}}),
		subscribe(views.Def{Class: "Unit", Pred: "x >= 50 && x <= 20 && y >= 0 && y <= 9", Payload: []string{"x"}}),
	}
	if arm.mode == plan.ViewAuto {
		for _, s := range subs[:len(subs)-len(offIndex)] {
			if !s.Indexed() {
				t.Fatalf("sub %d (%s) not indexed: %s", s.ID(), s.Def().Pred, s.IndexReason())
			}
		}
	}
	for _, s := range offIndex {
		if s.Indexed() || s.IndexReason() == "" {
			t.Fatalf("sub %d (%s): Indexed=%v reason=%q", s.ID(), s.Def().Pred, s.Indexed(), s.IndexReason())
		}
	}

	var b strings.Builder
	step := 0
	apply := func(what string) {
		step++
		fmt.Fprintf(&b, "step %d (%s):\n", step, what)
		r.Apply(func(d *views.Delta) {
			fmt.Fprintf(&b, "  sub=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
				d.Sub, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols,
				d.RemIDs, d.AggChanged, d.Agg, d.Top)
		})
	}
	tick := func() {
		t.Helper()
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
	}

	apply("initial resync")
	tick()
	apply("first tick")

	// Onto, along and off box edges; across thresholds both ways.
	set(ids[0], "x", 5)
	set(ids[1], "x", 5.000000000000001)
	set(ids[2], "x", 4.999999999999999)
	set(ids[13], "y", 15)
	set(ids[14], "health", 62)
	set(ids[15], "health", 61.99999999999999)
	set(ids[16], "health", 100)
	apply("edges")

	// Non-finite and signed-zero coordinates.
	set(ids[20], "x", math.NaN())
	set(ids[21], "y", math.Inf(1))
	set(ids[22], "x", math.Inf(-1))
	set(ids[23], "x", math.Copysign(0, -1))
	set(ids[24], "health", math.NaN())
	set(ids[25], "x", 1e300)
	apply("nan inf -0")
	// Fresh boxes whose first scan meets those points: the grid drops the
	// NaN one, clamps the infinite ones to its edge cells and keeps -0.
	subscribe(views.Def{Class: "Unit", Pred: box(5, 10, 10), Payload: []string{"x", "y"}})
	subscribe(views.Def{Class: "Unit", Pred: box(95, 10, 10), Kind: views.Count})
	subscribe(views.Def{Class: "Unit", Payload: []string{"x"}, Pred: "x > -1 && x < 20 && y > 0 && y < 20"})
	apply("fresh boxes over nan inf -0")
	set(ids[20], "x", 10)
	set(ids[21], "y", 10)
	set(ids[22], "x", math.NaN())
	set(ids[23], "x", 0)
	set(ids[24], "health", 70)
	apply("back from nan")

	// Kill then spawn into the freed row before the next Apply; then a
	// spawn-kill-spawn chain through one row.
	kill(ids[30])
	reborn := spawn(20, 20, 65)
	apply("kill + same-row spawn")
	// A fresh box over the reused row, first scanned from the grid.
	subscribe(views.Def{Class: "Unit", Pred: box(20, 20, 5), Payload: []string{"x", "health"}})
	subscribe(views.Def{Class: "Unit", Pred: box(20, 20, 5), Kind: views.TopK, Attr: "health", K: 2})
	apply("fresh boxes over the reused row")
	kill(reborn)
	ghost := spawn(25, 25, 70)
	kill(ghost)
	spawn(30, 30, 75)
	kill(ids[31])
	apply("row reuse chain")

	// Only an unwatched column moves: nothing may be emitted. Then an
	// unwatched write on one member beside a watched write on another:
	// both rows are updates of every subscription watching health.
	set(ids[40], "range", 11)
	apply("unwatched only")
	set(ids[41], "range", 12)
	set(ids[42], "health", 71)
	apply("unwatched beside watched")

	// Spectators leave and join mid-run, including a larger radius than
	// any so far.
	for _, i := range []int{3, 17, 64, 81, 100} {
		if !r.Unsubscribe(subs[i].ID()) {
			t.Fatalf("unsubscribe %d", i)
		}
	}
	subscribe(views.Def{Class: "Unit", Pred: box(55, 55, 60), Payload: []string{"x", "y"}})
	subscribe(views.Def{Class: "Unit", Pred: box(5, 5, 2.5), Payload: []string{"x", "y"}})
	subscribe(views.Def{Class: "Unit", Pred: "health < 65", Payload: []string{"health"}})
	tick()
	set(ids[50], "x", 57)
	apply("subscribe/unsubscribe")

	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	set(ids[51], "x", 1)
	if err := w.Restore(cp); err != nil {
		t.Fatal(err)
	}
	apply("checkpoint restore")
	tick()
	set(ids[52], "y", 33)
	apply("after restore")

	// Hibernation: the registry outlives the engine.
	r.Detach()
	cp, err = w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	w = w2
	r.Attach(w)
	apply("attach")
	tick()
	set(ids[60], "x", 44)
	kill(ids[61])
	apply("after attach")

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			id := ids[62+rng.Intn(80)]
			set(id, []string{"x", "y", "health"}[rng.Intn(3)], float64(rng.Intn(24))*5)
		}
		apply("random walk")
	}

	for _, s := range subs {
		if _, live := r.Get(s.ID()); live {
			fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n", s.ID(), s.Members(), s.Agg(), s.Top())
		}
	}
	if probes := w.ExecStats().ViewIndexProbes; (probes > 0) != (arm.mode == plan.ViewAuto) {
		t.Errorf("arm %s: ViewIndexProbes = %d", arm.name, probes)
	}
	return b.String()
}

// TestIndexedHostileCases pins the indexed path to the forced-mode oracles
// on the inputs listed at hostileStream.
func TestIndexedHostileCases(t *testing.T) {
	arms := hostileArms()
	want := hostileStream(t, arms[0])
	if !strings.Contains(want, "rem=[") || !strings.Contains(want, "resync=true") {
		t.Fatal("scenario produced no removes or resyncs; the comparison is vacuous")
	}
	for _, arm := range arms[1:] {
		t.Run(arm.name, func(t *testing.T) {
			if got := hostileStream(t, arm); got != want {
				t.Errorf("stream diverged from the rescan arm\n%s", firstDiff(want, got))
			}
		})
	}
}

// firstDiff reports the first differing line of two streams with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			from := max(i-3, 0)
			return fmt.Sprintf("line %d\ncontext:\n%s\nwant: %s\ngot:  %s",
				i+1, strings.Join(wl[from:i], "\n"), wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}
