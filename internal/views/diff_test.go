package views_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// wallDefs is the subscription mix the differential wall maintains: row
// selects (threshold and spatial box), every aggregate kind, a
// match-everything select, and — so the auto arm's index groups are large
// — 72 interest boxes of mixed radii (selects and aggregates over the same
// shape) plus a band of 24 health thresholds and ranges. Mode is stamped
// per arm.
func wallDefs(t *testing.T, mode plan.ViewMode) []views.Def {
	t.Helper()
	box := func(cx, cy, radius float64) string { return boxPred(t, cx, cy, radius) }
	defs := []views.Def{
		{Class: "Unit", Pred: "health < 99", Payload: []string{"health", "x"}, Mode: mode},
		{Class: "Unit", Pred: box(60, 60, 25), Payload: []string{"x", "y"}, Mode: mode},
		{Class: "Unit", Pred: "health < 99 && x >= 30", Kind: views.Count, Mode: mode},
		{Class: "Unit", Pred: "health < 99", Kind: views.Sum, Attr: "health", Mode: mode},
		{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 7, Mode: mode},
		{Class: "Unit", Payload: []string{"health"}, Mode: mode},
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 72; i++ {
		// Centres reach past the map so some lower bounds go negative.
		pred := box(rng.Float64()*140-10, rng.Float64()*140-10, []float64{3, 8, 15, 30}[i%4])
		switch i % 9 {
		case 6:
			defs = append(defs, views.Def{Class: "Unit", Pred: pred, Kind: views.Count, Mode: mode})
		case 7:
			defs = append(defs, views.Def{Class: "Unit", Pred: pred, Kind: views.Sum, Attr: "health", Mode: mode})
		case 8:
			defs = append(defs, views.Def{Class: "Unit", Pred: pred, Kind: views.TopK, Attr: "health", K: 3, Mode: mode})
		default:
			defs = append(defs, views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "health"}, Mode: mode})
		}
	}
	for i := 0; i < 24; i++ {
		pred := fmt.Sprintf("health < %d", 76+i)
		if i%4 == 3 {
			pred = fmt.Sprintf("health >= %d && health <= %d", 60+i, 90+i/2)
		}
		defs = append(defs, views.Def{Class: "Unit", Pred: pred, Payload: []string{"health"}, Mode: mode})
	}
	return defs
}

// wallStream runs the crowding scenario under one engine configuration and
// maintenance mode — T ticks with spawn/kill churn and a mid-run
// checkpoint→restore — and serializes every emitted delta plus the final
// per-subscription state.
func wallStream(t *testing.T, opts engine.Options, mode plan.ViewMode) string {
	t.Helper()
	w := unitWorld(t, 400, opts)
	r := views.New(w)
	var subs []*views.Sub
	for _, def := range wallDefs(t, mode) {
		subs = append(subs, mustSub(t, r, def))
	}
	var b strings.Builder
	emit := func(d *views.Delta) {
		fmt.Fprintf(&b, "  sub=%d tick=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
			d.Sub, d.Tick, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols,
			d.RemIDs, d.AggChanged, d.Agg, d.Top)
	}
	rng := rand.New(rand.NewSource(23))
	for tick := 0; tick < 12; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		// Churn: spawns land inside and outside the interest box, kills hit
		// arbitrary live rows (freeing physical rows for id-reuse hazards).
		for i := 0; i < 4; i++ {
			if _, err := w.Spawn("Unit", map[string]value.Value{
				"x":      value.Num(rng.Float64() * 120),
				"y":      value.Num(rng.Float64() * 120),
				"health": value.Num(40 + rng.Float64()*60),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			ids := w.IDs("Unit")
			if err := w.Kill("Unit", ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		// Movers and healers: rows cross box edges and thresholds in both
		// directions, so memberships shrink as well as grow.
		for i := 0; i < 8; i++ {
			ids := w.IDs("Unit")
			id := ids[rng.Intn(len(ids))]
			for _, attr := range []string{"x", "y", "health"} {
				v := rng.Float64() * 120
				if attr == "health" {
					v = 55 + rng.Float64()*45
				}
				if err := w.SetState("Unit", id, attr, value.Num(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tick == 6 {
			// Mid-run snapshot round-trip: the feed cannot express the
			// compaction, so every subscription must resync identically.
			cp, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Restore(cp); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "tick %d:\n", tick)
		r.Apply(emit)
	}
	for _, s := range subs {
		fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n",
			s.ID(), s.Members(), s.Agg(), s.Top())
	}
	// The arms must differ in how they maintain, not only agree on what:
	// auto probes the subscription index, forced modes never touch it.
	if probes := w.ExecStats().ViewIndexProbes; (probes > 0) != (mode == plan.ViewAuto) {
		t.Errorf("mode %v: ViewIndexProbes = %d", mode, probes)
	}
	return b.String()
}

// TestViewDifferentialWall is the acceptance guard for incremental
// maintenance: across {Workers 1,2,4} × {Partitions 1,4} × {Exec scalar,
// vectorized}, and across maintenance modes (auto's index probe and delta
// path, forced per-subscription delta, forced every-tick rescan), the
// emitted delta stream and final subscription state are bit-identical —
// under spawn/kill churn, physical row reuse and a mid-run
// checkpoint→restore resync. Workers also sets how
// many ways view maintenance itself fans out; the many-subscriptions arm
// makes that fan-out cut its worklist into many chunks.
func TestViewDifferentialWall(t *testing.T) {
	type cfg struct {
		name string
		opts engine.Options
	}
	var cfgs []cfg
	for _, wk := range []int{1, 2, 4} {
		for _, parts := range []int{1, 4} {
			for _, ex := range []struct {
				name string
				mode plan.ExecMode
			}{{"scalar", plan.ExecScalar}, {"vec", plan.ExecVectorized}} {
				cfgs = append(cfgs, cfg{
					name: fmt.Sprintf("w%d-p%d-%s", wk, parts, ex.name),
					opts: engine.Options{Workers: wk, Partitions: parts, Exec: ex.mode},
				})
			}
		}
	}
	t.Run("row-reuse", testRowReuseWall)
	t.Run("many-subscriptions", testManySubsWall)
	want := wallStream(t, cfgs[0].opts, plan.ViewRescan)
	for _, c := range cfgs {
		for _, m := range []struct {
			name string
			mode plan.ViewMode
		}{{"auto", plan.ViewAuto}, {"delta", plan.ViewDelta}, {"rescan", plan.ViewRescan}} {
			if c.name == cfgs[0].name && m.mode == plan.ViewRescan {
				continue // the baseline itself
			}
			t.Run(c.name+"-"+m.name, func(t *testing.T) {
				if got := wallStream(t, c.opts, m.mode); got != want {
					t.Errorf("delta stream diverged from %s-rescan baseline\nbaseline:\n%s\ngot:\n%s",
						cfgs[0].name, want, got)
				}
			})
		}
	}
}

// reuseStream drives interest boxes (selects and aggregates) and a
// threshold band through churn in which kills come before spawns, so every
// spawn takes a freed row below older rows with a higher id, and movers
// touch older rows above it: the feed's rows in row order are not in id
// order. Each step also replaces two boxes, whose first Apply reads the
// data grid over those rows. It returns the serialized stream and how many
// steps had such an inversion among their touched rows.
func reuseStream(t *testing.T, mode plan.ViewMode) (string, int) {
	t.Helper()
	w := unitWorld(t, 300, engine.Options{})
	r := views.New(w)
	rng := rand.New(rand.NewSource(17))
	boxDef := func(i int) views.Def {
		def := views.Def{Class: "Unit", Pred: boxPred(t, rng.Float64()*120, rng.Float64()*120, []float64{10, 20, 35}[i%3]),
			Payload: []string{"x", "health"}, Mode: mode}
		switch i % 8 {
		case 6:
			def = views.Def{Class: "Unit", Pred: def.Pred, Kind: views.Count, Mode: mode}
		case 7:
			def = views.Def{Class: "Unit", Pred: def.Pred, Kind: views.TopK, Attr: "health", K: 3, Mode: mode}
		}
		return def
	}
	var subs []*views.Sub
	for i := 0; i < 40; i++ {
		subs = append(subs, mustSub(t, r, boxDef(i)))
	}
	for i := 0; i < 8; i++ {
		subs = append(subs, mustSub(t, r, views.Def{Class: "Unit", Pred: fmt.Sprintf("health < %d", 60+5*i), Payload: []string{"health"}, Mode: mode}))
	}
	var b strings.Builder
	emit := func(d *views.Delta) {
		fmt.Fprintf(&b, "  sub=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
			d.Sub, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols, d.RemIDs, d.AggChanged, d.Agg, d.Top)
	}
	r.Apply(emit)
	tab := w.ClassTable("Unit")
	inverted := 0
	for step := 0; step < 16; step++ {
		ids := w.IDs("Unit")
		for _, k := range rng.Perm(len(ids))[:6] {
			if err := w.Kill("Unit", ids[k]); err != nil {
				t.Fatal(err)
			}
		}
		var spawned []value.ID
		for i := 0; i < 6; i++ {
			id, err := w.Spawn("Unit", map[string]value.Value{
				"x": value.Num(rng.Float64() * 120), "y": value.Num(rng.Float64() * 120), "health": value.Num(40 + rng.Float64()*60),
			})
			if err != nil {
				t.Fatal(err)
			}
			spawned = append(spawned, id)
		}
		ids = w.IDs("Unit")
		highest := -1
		for i := 0; i < 24; i++ {
			id := ids[rng.Intn(len(ids))]
			for _, attr := range []string{"x", "y", "health"} {
				v := rng.Float64() * 120
				if attr == "health" {
					v = 40 + rng.Float64()*60
				}
				if err := w.SetState("Unit", id, attr, value.Num(v)); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Contains(spawned, id) {
				highest = max(highest, tab.Row(id))
			}
		}
		if slices.ContainsFunc(spawned, func(id value.ID) bool { return tab.Row(id) < highest }) {
			inverted++
		}
		for _, k := range []int{step % 40, (step*7 + 3) % 40} {
			if !r.Unsubscribe(subs[k].ID()) {
				t.Fatal("unsubscribe failed")
			}
			subs[k] = mustSub(t, r, boxDef(k))
		}
		fmt.Fprintf(&b, "step %d:\n", step)
		r.Apply(emit)
	}
	for _, s := range subs {
		fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n", s.ID(), s.Members(), s.Agg(), s.Top())
	}
	return b.String(), inverted
}

// testRowReuseWall pins the id-ordered paths — the delta path's merge over
// an id-sorted permutation of the feed, the index probe's id-ordered
// events, the rescan diff's candidate stamps and the box groups' grid scans
// — to the forced-rescan oracle on a feed whose row order is not its id
// order: auto probes the index and resyncs fresh boxes from the data grid,
// forced delta keeps every subscription on its own delta path.
func testRowReuseWall(t *testing.T) {
	want, inverted := reuseStream(t, plan.ViewRescan)
	if inverted < 8 {
		t.Fatalf("only %d of 16 steps touched a spawned row below an older touched row", inverted)
	}
	for _, arm := range []struct {
		name string
		mode plan.ViewMode
	}{{"auto", plan.ViewAuto}, {"forced-delta", plan.ViewDelta}} {
		t.Run(arm.name, func(t *testing.T) {
			if got, _ := reuseStream(t, arm.mode); got != want {
				t.Errorf("stream diverged from the forced-rescan arm\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestViewStatsCounters checks the ExecCounters plumbing and that the
// counters stay silent under DisableStats while maintenance itself is
// unaffected (the stream above already proves value-identity; this pins the
// counter side). Each Apply's probe, maintain and emit times, with the
// serial steps around them, re-sum to its ViewMaintNanos.
func TestViewStatsCounters(t *testing.T) {
	for _, disable := range []bool{false, true} {
		w := unitWorld(t, 200, engine.Options{DisableStats: disable, Workers: 2})
		r := views.New(w)
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 99", Kind: views.Count})
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 99", Mode: plan.ViewRescan})
		// A threshold band: one index group, probed every Apply.
		for i := 0; i < 100; i++ {
			mustSub(t, r, views.Def{Class: "Unit", Pred: fmt.Sprintf("health < %d", 70+i%30), Payload: []string{"health"}})
		}
		for i := 0; i < 3; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			before := w.ExecStats()
			r.Apply(func(*views.Delta) {})
			if disable {
				continue
			}
			st, split := w.ExecStats(), r.LastSplit()
			probe, maintain, emit := st.ViewProbeNanos-before.ViewProbeNanos,
				st.ViewMaintainNanos-before.ViewMaintainNanos, st.ViewEmitNanos-before.ViewEmitNanos
			total := st.ViewMaintNanos - before.ViewMaintNanos
			if probe != split[1].Nanoseconds() || maintain != split[2].Nanoseconds() || emit != split[3].Nanoseconds() {
				t.Errorf("Apply %d: counters probe %d maintain %d emit %d, split %v", i, probe, maintain, emit, split)
			}
			if probe < 0 || maintain <= 0 || emit < 0 {
				t.Errorf("Apply %d: probe %d, maintain %d, emit %d ns: a step went unmeasured", i, probe, maintain, emit)
			}
			sum := split[0].Nanoseconds() + probe + maintain + emit
			if d := sum - total; d > total/100 || -d > total/100 {
				t.Errorf("Apply %d: prepare %v + probe %d + maintain %d + emit %d = %d ns, ViewMaintNanos grew %d ns",
					i, split[0], probe, maintain, emit, sum, total)
			}
		}
		st := w.ExecStats()
		if disable {
			if st.ViewSubs != 0 || st.ViewIndexedSubs != 0 || st.ViewDeltaRows != 0 ||
				st.ViewRescans != 0 || st.ViewIndexProbes != 0 || st.ViewMaintNanos != 0 ||
				st.ViewProbeNanos != 0 || st.ViewMaintainNanos != 0 || st.ViewEmitNanos != 0 {
				t.Fatalf("DisableStats: view counters must stay zero, got %+v", st)
			}
			continue
		}
		if st.ViewSubs != 102 {
			t.Errorf("ViewSubs = %d, want 102", st.ViewSubs)
		}
		if st.ViewIndexedSubs != 101 {
			t.Errorf("ViewIndexedSubs = %d, want 101 (all but the forced-rescan one)", st.ViewIndexedSubs)
		}
		if st.ViewRescans < 3 {
			t.Errorf("ViewRescans = %d, want >= 3 (one forced rescan per tick plus resyncs)", st.ViewRescans)
		}
		if st.ViewDeltaRows == 0 {
			t.Error("ViewDeltaRows stayed zero across crowding damage ticks")
		}
		if st.ViewIndexProbes == 0 {
			t.Error("ViewIndexProbes stayed zero with a 101-subscription threshold group")
		}
		if st.ViewMaintNanos <= 0 {
			t.Error("ViewMaintNanos not accumulated")
		}
	}
}

// manySubsStream maintains 480 subscriptions — interest boxes of mixed
// radii and upper and lower health thresholds, as Selects, Counts, Sums and
// TopKs, so every index group shape forms — through movement, spawn/kill
// churn and eight unsubscribe/subscribe swaps every tick, and serializes
// the delta stream and the final state. It also reports the most maintain
// chunks any Apply cut.
func manySubsStream(t *testing.T, workers int, mode plan.ViewMode) (string, int) {
	t.Helper()
	w := unitWorld(t, 600, engine.Options{Workers: workers})
	r := views.New(w)
	rng := rand.New(rand.NewSource(59))
	def := func(i int) views.Def {
		pred := boxPred(t, rng.Float64()*130-5, rng.Float64()*130-5, []float64{4, 9, 16, 28}[i%4])
		switch i % 5 {
		case 3:
			pred = fmt.Sprintf("health >= %d", 55+rng.Intn(45))
		case 4:
			pred = fmt.Sprintf("health < %d", 55+rng.Intn(45))
		}
		switch i % 7 {
		case 4:
			return views.Def{Class: "Unit", Pred: pred, Kind: views.Count, Mode: mode}
		case 5:
			return views.Def{Class: "Unit", Pred: pred, Kind: views.Sum, Attr: "health", Mode: mode}
		case 6:
			return views.Def{Class: "Unit", Pred: pred, Kind: views.TopK, Attr: "health", K: 4, Mode: mode}
		}
		return views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y", "health"}, Mode: mode}
	}
	var subs []*views.Sub
	for i := 0; i < 480; i++ {
		subs = append(subs, mustSub(t, r, def(i)))
	}
	var b strings.Builder
	emit := func(d *views.Delta) {
		fmt.Fprintf(&b, "  sub=%d tick=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
			d.Sub, d.Tick, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols, d.RemIDs, d.AggChanged, d.Agg, d.Top)
	}
	for tick := 0; tick < 10; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.Spawn("Unit", map[string]value.Value{
				"x": value.Num(rng.Float64() * 120), "y": value.Num(rng.Float64() * 120), "health": value.Num(50 + rng.Float64()*50),
			}); err != nil {
				t.Fatal(err)
			}
			ids := w.IDs("Unit")
			if err := w.Kill("Unit", ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		ids := w.IDs("Unit")
		for i := 0; i < 40; i++ {
			id := ids[rng.Intn(len(ids))]
			for attr, v := range [...]float64{rng.Float64() * 120, rng.Float64() * 120, 50 + rng.Float64()*50} {
				if err := w.SetState("Unit", id, [...]string{"x", "y", "health"}[attr], value.Num(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 8; i++ {
			k := rng.Intn(len(subs))
			if !r.Unsubscribe(subs[k].ID()) {
				t.Fatal("unsubscribe failed")
			}
			subs[k] = mustSub(t, r, def(k))
		}
		fmt.Fprintf(&b, "tick %d:\n", tick)
		r.Apply(emit)
	}
	for _, s := range subs {
		fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n", s.ID(), s.Members(), s.Agg(), s.Top())
	}
	return b.String(), r.MaxChunks()
}

// testManySubsWall pins the pool split of view maintenance — probe tasks
// over ranges of the touched rows, SubID chunks maintained by whichever
// worker is free, deltas replayed in SubID order — to the one-worker
// forced-rescan oracle, at Workers 1, 2 and 4 and in every maintenance
// mode, and fails if the fan-out never cut the worklist into more than one
// chunk.
func testManySubsWall(t *testing.T) {
	want, _ := manySubsStream(t, 1, plan.ViewRescan)
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []plan.ViewMode{plan.ViewAuto, plan.ViewDelta, plan.ViewRescan} {
			if workers == 1 && mode == plan.ViewRescan {
				continue // the oracle itself
			}
			t.Run(fmt.Sprintf("w%d-%v", workers, mode), func(t *testing.T) {
				got, chunks := manySubsStream(t, workers, mode)
				if got != want {
					t.Errorf("stream diverged from the one-worker rescan oracle\n%s", firstDiff(want, got))
				}
				if workers > 1 && chunks <= 1 {
					t.Errorf("Workers %d: maintenance never cut more than %d chunk", workers, chunks)
				}
			})
		}
	}
}
