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
	"repro/internal/workload"
)

// fullChurnStream runs a Figure 2 world of 1000 units, spaced for about
// four neighbours each, in which every row moves and changes health every
// tick: the feed names the whole extent on every Apply. Forty interest
// boxes, five health thresholds and a Count, a Sum and a TopK watch it. It
// serializes the delta stream and the final state. Under ViewAuto it also
// fails unless, after the first Apply, every index group is probed and no
// subscription rescans.
func fullChurnStream(t *testing.T, workers int, mode plan.ViewMode) string {
	t.Helper()
	w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	side := math.Sqrt(1000 * 100)
	if _, err := core.PopulateUnits(w, workload.Uniform(1000, side, side, 5), 10); err != nil {
		t.Fatal(err)
	}
	r := views.New(w)
	rng := rand.New(rand.NewSource(13))
	var subs []*views.Sub
	for i := 0; i < 40; i++ {
		pred := boxPred(t, rng.Float64()*side, rng.Float64()*side, 40)
		subs = append(subs, mustSub(t, r, views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y", "health"}, Mode: mode}))
	}
	for i := 0; i < 5; i++ {
		subs = append(subs, mustSub(t, r, views.Def{Class: "Unit", Pred: fmt.Sprintf("health < %d", 60+8*i), Payload: []string{"health"}, Mode: mode}))
	}
	subs = append(subs,
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 70", Kind: views.Count, Mode: mode}),
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 100", Kind: views.Sum, Attr: "health", Mode: mode}),
		mustSub(t, r, views.Def{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 10, Mode: mode}))

	var b strings.Builder
	emit := func(d *views.Delta) {
		fmt.Fprintf(&b, "  sub=%d tick=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
			d.Sub, d.Tick, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols, d.RemIDs, d.AggChanged, d.Agg, d.Top)
	}
	r.Apply(emit)
	rescans := w.ExecStats().ViewRescans
	ids := w.IDs("Unit")
	for tick := 0; tick < 6; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			for attr, v := range [...]float64{
				math.Mod(w.MustGet("Unit", id, "x").AsNumber()+rng.Float64()*6-3+side, side),
				math.Mod(w.MustGet("Unit", id, "y").AsNumber()+rng.Float64()*6-3+side, side),
				50 + rng.Float64()*50,
			} {
				if err := w.SetState("Unit", id, [...]string{"x", "y", "health"}[attr], value.Num(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fmt.Fprintf(&b, "tick %d:\n", tick)
		r.Apply(emit)
		if mode != plan.ViewAuto {
			continue
		}
		if probed, groups := r.ProbedGroups(); groups < 2 || probed != groups {
			t.Fatalf("tick %d: %d of %d index groups probed, want all (and at least 2)", tick, probed, groups)
		}
		if got := w.ExecStats().ViewRescans; got != rescans {
			t.Fatalf("tick %d: %d subscriptions rescanned with every row touched, want 0", tick, got-rescans)
		}
	}
	for _, s := range subs {
		fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n", s.ID(), s.Members(), s.Agg(), s.Top())
	}
	return b.String()
}

// TestFullChurnDeltaAndProbe pins view maintenance's rules where the feed
// names every row: auto keeps every subscription on the delta path and
// probes every index group however many rows moved, and its stream equals
// the forced-rescan oracle's at Workers 1 and 2.
func TestFullChurnDeltaAndProbe(t *testing.T) {
	want := fullChurnStream(t, 1, plan.ViewRescan)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			if got := fullChurnStream(t, workers, plan.ViewAuto); got != want {
				t.Errorf("stream diverged from the forced-rescan oracle\n%s", firstDiff(want, got))
			}
		})
	}
}
