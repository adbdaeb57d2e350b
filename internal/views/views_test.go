package views_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

func unitWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc := core.MustLoad("fig2", core.SrcFig2)
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		if _, err := core.PopulateUnits(w, workload.Uniform(n, 120, 120, 7), 10); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func mustSub(t *testing.T, r *views.Registry, def views.Def) *views.Sub {
	t.Helper()
	s, err := r.Subscribe(def)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// boxPred is InterestPred over (x, y), fatal on error.
func boxPred(t *testing.T, cx, cy, radius float64) string {
	t.Helper()
	pred, err := views.InterestPred([]string{"x", "y"}, []float64{cx, cy}, radius)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// bruteMembers recomputes a predicate's matching ids from scratch through
// the engine's scalar read path, ascending by id — the registry's canonical
// membership (and Sum fold) order.
func bruteMembers(w *engine.World, class string, pass func(id value.ID) bool) []value.ID {
	var out []value.ID
	for _, id := range w.IDs(class) {
		if pass(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func idsEqual(a, b []value.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectLifecycle walks one Select subscription through its whole
// delta vocabulary: the initial resync snapshot, an update to a member, an
// add when a row crosses the predicate, and a remove on kill.
func TestSelectLifecycle(t *testing.T) {
	w := unitWorld(t, 0, engine.Options{})
	var ids []value.ID
	for i := 0; i < 4; i++ {
		id, err := w.Spawn("Unit", map[string]value.Value{
			"x": value.Num(float64(1000 * i)), "y": value.Num(float64(1000 * i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	r := views.New(w)
	if err := w.SetState("Unit", ids[0], "health", value.Num(50)); err != nil {
		t.Fatal(err)
	}
	s := mustSub(t, r, views.Def{
		Class: "Unit", Pred: "health < 90", Payload: []string{"health", "x"},
	})
	if !s.Stable() {
		t.Fatalf("own-row threshold predicate must be stable, reasons: %v", s.Reasons())
	}

	var deltas []string
	capture := func(d *views.Delta) {
		deltas = append(deltas, fmt.Sprintf("resync=%v add=%v addH=%v upd=%v updH=%v rem=%v",
			d.Resync, d.AddIDs, d.AddCols[0], d.UpdIDs, d.UpdCols[0], d.RemIDs))
	}

	// First Apply: resync snapshot with the one matching row.
	r.Apply(capture)
	want := fmt.Sprintf("resync=true add=[%d] addH=[50] upd=[] updH=[] rem=[]", ids[0])
	if len(deltas) != 1 || deltas[0] != want {
		t.Fatalf("initial resync: got %v, want [%s]", deltas, want)
	}
	if !idsEqual(s.Members(), []value.ID{ids[0]}) {
		t.Fatalf("members after resync: %v", s.Members())
	}

	// Member's payload changes → update; a second row crosses → add.
	deltas = nil
	if err := w.SetState("Unit", ids[0], "health", value.Num(40)); err != nil {
		t.Fatal(err)
	}
	if err := w.SetState("Unit", ids[2], "health", value.Num(10)); err != nil {
		t.Fatal(err)
	}
	r.Apply(capture)
	want = fmt.Sprintf("resync=false add=[%d] addH=[10] upd=[%d] updH=[40] rem=[]", ids[2], ids[0])
	if len(deltas) != 1 || deltas[0] != want {
		t.Fatalf("update+add: got %v, want [%s]", deltas, want)
	}

	// One member leaves by predicate, the other by death.
	deltas = nil
	if err := w.SetState("Unit", ids[2], "health", value.Num(95)); err != nil {
		t.Fatal(err)
	}
	if err := w.Kill("Unit", ids[0]); err != nil {
		t.Fatal(err)
	}
	r.Apply(capture)
	want = fmt.Sprintf("resync=false add=[] addH=[] upd=[] updH=[] rem=[%d %d]", ids[0], ids[2])
	if len(deltas) != 1 || deltas[0] != want {
		t.Fatalf("removes: got %v, want [%s]", deltas, want)
	}
	if len(s.Members()) != 0 {
		t.Fatalf("members after removes: %v", s.Members())
	}

	// Quiet tick: version skip, no delta.
	deltas = nil
	r.Apply(capture)
	if len(deltas) != 0 {
		t.Fatalf("quiet tick emitted %v", deltas)
	}
}

// TestAggregatesTrackBruteForce drives the crowding scenario with churn and
// checks Count/Sum/TopK after every tick against from-scratch recomputation.
func TestAggregatesTrackBruteForce(t *testing.T) {
	w := unitWorld(t, 200, engine.Options{})
	r := views.New(w)
	cnt := mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 100", Kind: views.Count})
	sum := mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 100", Kind: views.Sum, Attr: "health"})
	top := mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 100", Kind: views.TopK, Attr: "health", K: 5})

	health := func(id value.ID) float64 { return w.MustGet("Unit", id, "health").AsNumber() }
	hurt := func(id value.ID) bool { return health(id) < 100 }
	rng := rand.New(rand.NewSource(3))
	for tick := 0; tick < 10; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		if tick%3 == 1 {
			if _, err := w.Spawn("Unit", map[string]value.Value{
				"x": value.Num(rng.Float64() * 120), "y": value.Num(rng.Float64() * 120),
				"health": value.Num(30 + rng.Float64()*40),
			}); err != nil {
				t.Fatal(err)
			}
			ids := w.IDs("Unit")
			if err := w.Kill("Unit", ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		r.Apply(nil)

		members := bruteMembers(w, "Unit", hurt)
		if got := int(cnt.Agg()); got != len(members) {
			t.Fatalf("tick %d: count %d, brute %d", tick, got, len(members))
		}
		// Sum refolds ascending-id in the registry; fold the same way here.
		wantSum := 0.0
		for _, id := range members {
			wantSum += health(id)
		}
		if got := sum.Agg(); got != wantSum {
			t.Fatalf("tick %d: sum %v, brute %v", tick, got, wantSum)
		}
		wantTop := append([]value.ID(nil), members...)
		// Highest health first, id ascending on ties.
		for i := range wantTop {
			for j := i + 1; j < len(wantTop); j++ {
				hi, hj := health(wantTop[i]), health(wantTop[j])
				if hj > hi || (hj == hi && wantTop[j] < wantTop[i]) {
					wantTop[i], wantTop[j] = wantTop[j], wantTop[i]
				}
			}
		}
		if len(wantTop) > 5 {
			wantTop = wantTop[:5]
		}
		gotTop := top.Top()
		if len(gotTop) != len(wantTop) {
			t.Fatalf("tick %d: top len %d, brute %d", tick, len(gotTop), len(wantTop))
		}
		for i, e := range gotTop {
			if e.ID != wantTop[i] || e.Key != health(wantTop[i]) {
				t.Fatalf("tick %d: top[%d] = %+v, brute id %d key %v",
					tick, i, e, wantTop[i], health(wantTop[i]))
			}
		}
	}
}

// srcChase is a minimal ref-chasing script: every unit pours damage into
// its target, so a predicate reading target.hp is the canonical unstable
// subscription — the target's row changes without the subscriber's.
const srcChase = `
class Unit {
  state:
    number hp = 100;
    ref<Unit> target = null;
  effects:
    number dmg : sum;
  update:
    hp = hp - dmg;
  run {
    if (target != null) {
      target.dmg <- 1;
    }
  }
}
`

// TestUnstablePredicateRescans pins the stability gate: a predicate chasing
// a ref is unstable, explains itself, and takes the rescan path every tick
// while still producing brute-force-correct membership.
func TestUnstablePredicateRescans(t *testing.T) {
	sc := core.MustLoad("chase", srcChase)
	w, err := sc.NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []value.ID
	for i := 0; i < 12; i++ {
		id, err := w.Spawn("Unit", map[string]value.Value{
			"hp": value.Num(60 + 7*float64(i%5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Chase ring: i damages i+1, so relative hp order shifts over ticks.
	for i, id := range ids {
		if i%4 == 3 {
			continue // a few idle units keep some rows out of the feed
		}
		if err := w.SetState("Unit", id, "target", value.Ref(ids[(i+1)%len(ids)])); err != nil {
			t.Fatal(err)
		}
	}
	r := views.New(w)
	s := mustSub(t, r, views.Def{Class: "Unit", Pred: "target != null && target.hp < hp"})
	if s.Stable() || len(s.Reasons()) == 0 {
		t.Fatalf("ref-chasing predicate must be unstable with reasons, got stable=%v %v",
			s.Stable(), s.Reasons())
	}
	for tick := 0; tick < 4; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		r.Apply(nil)
		if r.Rescans() != 1 {
			t.Fatalf("tick %d: unstable sub must rescan, rescans=%d", tick, r.Rescans())
		}
		want := bruteMembers(w, "Unit", func(id value.ID) bool {
			tgt := w.MustGet("Unit", id, "target")
			if tgt.IsNullRef() {
				return false
			}
			thp, ok := w.Get("Unit", tgt.AsRef(), "hp")
			if !ok {
				return false
			}
			return thp.AsNumber() < w.MustGet("Unit", id, "hp").AsNumber()
		})
		if !idsEqual(s.Members(), want) {
			t.Fatalf("tick %d: members %v, brute %v", tick, s.Members(), want)
		}
	}
}

// TestScalarPredicatesOnPool maintains sixty ref-chasing (unstable, so
// scalar-closure, rescan-every-tick) subscriptions at Workers 1 and 4: the
// closures read other objects through the engine's read-only accessors from
// every worker at once, which the race detector checks, and the streams
// must be identical.
func TestScalarPredicatesOnPool(t *testing.T) {
	stream := func(workers int) (string, int) {
		sc := core.MustLoad("chase", srcChase)
		w, err := sc.NewWorld(engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var ids []value.ID
		for i := 0; i < 40; i++ {
			id, err := w.Spawn("Unit", map[string]value.Value{"hp": value.Num(60 + 7*float64(i%5))})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i, id := range ids {
			if err := w.SetState("Unit", id, "target", value.Ref(ids[(i*7+1)%len(ids)])); err != nil {
				t.Fatal(err)
			}
		}
		r := views.New(w)
		for i := 0; i < 60; i++ {
			mustSub(t, r, views.Def{Class: "Unit", Pred: fmt.Sprintf("target != null && target.hp < hp + %d", i%12-6),
				Payload: []string{"hp"}})
		}
		var b []byte
		for tick := 0; tick < 5; tick++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			r.Apply(func(d *views.Delta) {
				b = fmt.Appendf(b, "sub=%d add=%v/%v upd=%v/%v rem=%v\n", d.Sub, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols, d.RemIDs)
			})
			if r.Rescans() != 60 {
				t.Fatalf("tick %d: %d rescans, want all 60", tick, r.Rescans())
			}
		}
		return string(b), r.MaxChunks()
	}
	want, _ := stream(1)
	got, chunks := stream(4)
	if got != want {
		t.Errorf("Workers 4 stream diverged from Workers 1\n%s", firstDiff(want, got))
	}
	if chunks <= 1 {
		t.Errorf("Workers 4 maintained in %d chunk", chunks)
	}
}

// TestInterestPred checks the spatial interest helper builds a bounded box
// predicate that subscribes exactly the rows inside it.
func TestInterestPred(t *testing.T) {
	w := unitWorld(t, 0, engine.Options{})
	inside, err := w.Spawn("Unit", map[string]value.Value{"x": value.Num(10), "y": value.Num(12)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Spawn("Unit", map[string]value.Value{"x": value.Num(40), "y": value.Num(12)}); err != nil {
		t.Fatal(err)
	}
	pred, err := views.InterestPred([]string{"x", "y"}, []float64{8, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := views.New(w)
	s := mustSub(t, r, views.Def{Class: "Unit", Pred: pred})
	if !s.Stable() {
		t.Fatalf("interest box must be stable: %v", s.Reasons())
	}
	r.Apply(nil)
	if !idsEqual(s.Members(), []value.ID{inside}) {
		t.Fatalf("interest members %v, want [%d]", s.Members(), inside)
	}
	if _, err := views.InterestPred([]string{"x"}, []float64{0, 0}, 1); err == nil {
		t.Fatal("mismatched attrs/center must error")
	}
}

// TestSubscribeValidation covers the declarative surface's error paths.
func TestSubscribeValidation(t *testing.T) {
	w := unitWorld(t, 0, engine.Options{})
	r := views.New(w)
	bad := []views.Def{
		{Class: "Ghost"},
		{Class: "Unit", Pred: "health +"},
		{Class: "Unit", Pred: "health + 1"},
		{Class: "Unit", Payload: []string{"mana"}},
		{Class: "Unit", Kind: views.Count, Payload: []string{"health"}},
		{Class: "Unit", Kind: views.Sum, Attr: "nope"},
		{Class: "Unit", Kind: views.TopK, Attr: "health", K: 0},
	}
	for i, def := range bad {
		if _, err := r.Subscribe(def); err == nil {
			t.Errorf("def %d (%+v) must fail", i, def)
		}
	}
	s := mustSub(t, r, views.Def{Class: "Unit"})
	if !s.Stable() {
		t.Fatal("empty predicate must be stable")
	}
	if r.Subs() != 1 {
		t.Fatalf("subs = %d", r.Subs())
	}
	if !r.Unsubscribe(s.ID()) || r.Unsubscribe(s.ID()) {
		t.Fatal("unsubscribe must succeed once")
	}
}
