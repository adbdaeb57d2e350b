package views_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// TestApplySteadyStateZeroAlloc is the regression guard for the package's
// headline economy: once a subscription set is warmed (kernels compiled,
// lanes and delta buffers grown), maintaining it performs zero heap
// allocations per Apply — the property that lets one registry serve many
// thousands of spectators without the GC joining the tick loop. The mix
// covers every kind plus a spread of Select thresholds that canonicalize to
// one shared kernel, and the churn driver dirties rows through SetState so
// the measurement isolates view maintenance from engine tick costs.
//
// It runs twice: under ViewAuto the threshold band sits in a subscription
// index and is probed; forced ViewDelta keeps every subscription on the
// per-subscription path, which must stay allocation-free too.
func TestApplySteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []plan.ViewMode{plan.ViewAuto, plan.ViewDelta} {
		t.Run(mode.String(), func(t *testing.T) { applySteadyStateZeroAlloc(t, mode) })
	}
}

func applySteadyStateZeroAlloc(t *testing.T, mode plan.ViewMode) {
	w := unitWorld(t, 256, engine.Options{})
	ids := w.IDs("Unit")
	r := views.New(w, plan.DefaultCosts())
	for i := 0; i < 40; i++ {
		mustSub(t, r, views.Def{
			Class:   "Unit",
			Pred:    fmt.Sprintf("health < %d", 55+i),
			Payload: []string{"health"},
			Mode:    mode,
		})
	}
	mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 75", Kind: views.Count, Mode: mode})
	mustSub(t, r, views.Def{Class: "Unit", Pred: "true", Kind: views.Sum, Attr: "health", Mode: mode})
	mustSub(t, r, views.Def{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 8, Mode: mode})

	var sunk int
	sink := func(d *views.Delta) { sunk += len(d.AddIDs) + len(d.UpdIDs) + len(d.RemIDs) }
	step := 0
	round := func() {
		// Dirty a sliding window of rows with values that cross the Select
		// thresholds back and forth, so every Apply does real delta work:
		// kernel evaluation, membership merges, aggregate refolds.
		step++
		for i := 0; i < 8; i++ {
			id := ids[(step*5+i*31)%len(ids)]
			hp := float64(50 + (step*7+i*13)%50)
			if err := w.SetState("Unit", id, "health", value.Num(hp)); err != nil {
				t.Fatal(err)
			}
		}
		r.Apply(sink)
	}
	// Warm: the first Apply resyncs every subscription from a full rescan,
	// then enough churn rounds for every retained buffer — membership sets,
	// delta lists, payload columns — to reach its steady-state capacity
	// (the churn pattern's period is 50 rounds).
	r.Apply(sink)
	for i := 0; i < 60; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state Apply allocates %.1f times per round, want 0", allocs)
	}
	if sunk == 0 {
		t.Fatal("churn driver produced no deltas; the measurement is vacuous")
	}
}

// TestIndexedApplyShiftingMembershipZeroAlloc is the guard the fixed-churn
// test above cannot give: memberships that keep changing. Movers walk a
// closed circuit across 96 interest boxes of mixed radii while healths swing
// across a band of 40 thresholds in both directions. Every delta is emitted
// through the registry's one shared buffer and memberships merge in place
// with headroom, so once each subscription has seen its fullest moment a
// round allocates nothing. It runs three ways: through the subscription
// index (groups large enough to clear the cost rule), and with every group
// pinned to the per-subscription delta path (the merge over the id-ordered
// feed) or to the rescan path (box groups query the data grid, rebuilt every
// round because the movers move). Ranked boxes lose ranked members in all
// three, so TopK retracts — the bounded selection — run in the measured
// rounds too.
func TestIndexedApplyShiftingMembershipZeroAlloc(t *testing.T) {
	for _, arm := range []struct {
		name  string
		costs plan.Costs
	}{
		{"indexed", plan.DefaultCosts()},
		{"per-sub-delta", perSubCosts(true)},
		{"per-sub-rescan", perSubCosts(false)},
	} {
		t.Run(arm.name, func(t *testing.T) { shiftingMembershipZeroAlloc(t, arm.costs, arm.name == "indexed") })
	}
}

func shiftingMembershipZeroAlloc(t *testing.T, costs plan.Costs, indexed bool) {
	w := unitWorld(t, 400, engine.Options{})
	ids := w.IDs("Unit")
	r := views.New(w, costs)
	for i := 0; i < 96; i++ {
		pred := boxPred(t, float64(i%12)*10, float64(i/12)*15, float64(6+4*(i%4)))
		def := views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y", "health"}}
		switch i % 12 {
		case 10:
			def = views.Def{Class: "Unit", Pred: pred, Kind: views.Sum, Attr: "health"}
		case 11:
			def = views.Def{Class: "Unit", Pred: pred, Kind: views.TopK, Attr: "health", K: 4}
		}
		if s := mustSub(t, r, def); !s.Indexed() {
			t.Fatalf("box %d not indexed: %s", i, s.IndexReason())
		}
	}
	for i := 0; i < 40; i++ {
		mustSub(t, r, views.Def{Class: "Unit", Pred: fmt.Sprintf("health < %d", 50+i), Payload: []string{"health"}})
	}

	const period = 48
	var sunk, retracts int
	// A TopK ranking whose kth entry gets worse, or that shrinks, was
	// recomputed: an incremental merge only ever improves it.
	var last [256]struct {
		n   int
		kth views.TopEntry
	}
	sink := func(d *views.Delta) {
		sunk += len(d.AddIDs) + len(d.RemIDs)
		n := len(d.Top)
		if n == 0 || int(d.Sub) >= len(last) {
			return
		}
		l, kth := &last[d.Sub], d.Top[n-1]
		if n < l.n || n == l.n && (kth.Key < l.kth.Key || kth.Key == l.kth.Key && kth.ID > l.kth.ID) {
			retracts++
		}
		l.n, l.kth = n, kth
	}
	step := 0
	round := func() {
		// Forty movers on a closed circuit of the map, each a phase apart,
		// and forty healths on a triangle wave through the threshold band.
		step++
		for i := 0; i < 40; i++ {
			phase := 2 * math.Pi * float64((step+i*7)%period) / period
			id := ids[i*9]
			for attr, v := range [...]float64{55 + 50*math.Cos(phase), 55 + 50*math.Sin(phase)} {
				if err := w.SetState("Unit", id, [...]string{"x", "y"}[attr], value.Num(v)); err != nil {
					t.Fatal(err)
				}
			}
			hp := 45 + math.Abs(float64((step*3+i*5)%100-50))
			if err := w.SetState("Unit", ids[i*9+1], "health", value.Num(hp)); err != nil {
				t.Fatal(err)
			}
		}
		r.Apply(sink)
	}
	r.Apply(sink)
	for i := 0; i < 3*100; i++ { // the health wave's period is 100 rounds
		round()
	}
	before := w.ExecStats()
	sunk, retracts = 0, 0
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("Apply under shifting membership allocates %.1f times per round, want 0", allocs)
	}
	if sunk == 0 || retracts == 0 {
		t.Fatalf("%d rows entered or left, %d TopK retracts; the measurement is vacuous", sunk, retracts)
	}
	after := w.ExecStats()
	if probed := after.ViewIndexProbes > before.ViewIndexProbes; probed != indexed {
		t.Fatalf("index probed = %v, want %v", probed, indexed)
	}
	if rescans := after.ViewRescans > before.ViewRescans; rescans != (costs.ViewScanRow == 0) {
		t.Fatalf("rescans ran = %v in the measured rounds", rescans)
	}
}

// TestApplyFanOutAllocsIndependentOfSubs is the pool's allocation guard: at
// Workers 4 an Apply pays for its fan-outs' goroutines and nothing else, so
// it allocates the same with 200 subscriptions as with 2000 — nothing per
// subscription, per chunk, per probe task or per delta. Each size is
// measured three times and judged by its fewest: a worker that drew a larger
// share of the work than ever before grows its buffers once, and that is
// not a per-Apply cost.
func TestApplyFanOutAllocsIndependentOfSubs(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{200, 2000} {
		w := unitWorld(t, 400, engine.Options{Workers: 4})
		ids := w.IDs("Unit")
		r := views.New(w, plan.DefaultCosts())
		rng := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < n; k++ {
			pred := boxPred(t, rng.Float64()*120, rng.Float64()*120, float64(6+4*(k%4)))
			if k%5 == 4 {
				pred = fmt.Sprintf("health < %d", 50+k%40)
			}
			def := views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y", "health"}}
			switch k % 10 {
			case 3:
				def = views.Def{Class: "Unit", Pred: pred, Kind: views.Sum, Attr: "health"}
			case 7:
				def = views.Def{Class: "Unit", Pred: pred, Kind: views.TopK, Attr: "health", K: 4}
			}
			mustSub(t, r, def)
		}
		var sunk int
		sink := func(d *views.Delta) { sunk += len(d.AddIDs) + len(d.UpdIDs) + len(d.RemIDs) }
		step := 0
		round := func() {
			step++
			for i := 0; i < 40; i++ {
				phase := 2 * math.Pi * float64((step+i*7)%48) / 48
				id := ids[i*9]
				for attr, v := range [...]float64{55 + 50*math.Cos(phase), 55 + 50*math.Sin(phase)} {
					if err := w.SetState("Unit", id, [...]string{"x", "y"}[attr], value.Num(v)); err != nil {
						t.Fatal(err)
					}
				}
				hp := 45 + math.Abs(float64((step*3+i*5)%100-50))
				if err := w.SetState("Unit", ids[i*9+1], "health", value.Num(hp)); err != nil {
					t.Fatal(err)
				}
			}
			r.Apply(sink)
		}
		r.Apply(sink)
		for k := 0; k < 200; k++ {
			round()
		}
		allocs[i] = math.Inf(1)
		for k := 0; k < 3; k++ {
			allocs[i] = min(allocs[i], testing.AllocsPerRun(50, round))
		}
		if sunk == 0 {
			t.Fatalf("%d subscriptions: no deltas; the measurement is vacuous", n)
		}
		if probes := w.ExecStats().ViewIndexProbes; probes == 0 {
			t.Fatalf("%d subscriptions: the index never probed", n)
		}
		if c := r.MaxChunks(); c <= 1 {
			t.Fatalf("%d subscriptions: maintenance never fanned out (%d chunk)", n, c)
		}
	}
	t.Logf("Workers=4: %.1f allocs/Apply", allocs[0])
	if allocs[0] != allocs[1] {
		t.Errorf("Workers=4 Apply allocates %.1f objects with 200 subscriptions but %.1f with 2000", allocs[0], allocs[1])
	}
}

// TestSubscribeCostIndependentOfRegistrySize pins Subscribe/Unsubscribe to
// O(log subs): replacing one spectator costs about the same in a registry
// of ten thousand as in one of a thousand (it was 36 µs against 418 µs when
// every call walked the registry). The two registries are measured in
// alternating batches and compared on their fastest batch, so neither a
// scheduling stall nor a slow spell of the host can fail it.
func TestSubscribeCostIndependentOfRegistrySize(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratio; the race detector's overhead scales with the working set")
	}
	w := unitWorld(t, 50, engine.Options{})
	rng := rand.New(rand.NewSource(5))
	def := func(i int) views.Def {
		if i%10 == 9 {
			return views.Def{Class: "Unit", Pred: fmt.Sprintf("health < %d", 20+rng.Intn(60)), Payload: []string{"health"}}
		}
		return views.Def{Class: "Unit", Pred: boxPred(t, rng.Float64()*1000, rng.Float64()*1000, 40),
			Payload: []string{"x", "y", "health"}}
	}
	type sized struct {
		r    *views.Registry
		ids  []views.SubID
		best time.Duration
	}
	build := func(n int) *sized {
		z := &sized{r: views.New(w, plan.DefaultCosts()), best: time.Duration(math.MaxInt64)}
		for i := 0; i < n; i++ {
			z.ids = append(z.ids, mustSub(t, z.r, def(i)).ID())
		}
		return z
	}
	small, large := build(1000), build(10000)
	for batch := 0; batch < 9; batch++ {
		for _, z := range []*sized{small, large} {
			start := time.Now()
			for k := 0; k < 200; k++ {
				i := rng.Intn(len(z.ids))
				z.r.Unsubscribe(z.ids[i])
				z.ids[i] = mustSub(t, z.r, def(i)).ID()
			}
			z.best = min(z.best, time.Since(start))
		}
	}
	t.Logf("200 swaps: %v at 1k subscriptions, %v at 10k", small.best, large.best)
	if large.best > 2*small.best {
		t.Errorf("swapping a subscription costs %v at 10k subscriptions against %v at 1k: more than 2x", large.best, small.best)
	}
}
