package server_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

var vehicleAttrs = []string{"x", "y", "dx", "dy", "speed", "fuel", "odo", "stress"}

type worldSpec struct {
	n     int
	seed  int64
	every int
}

// fleetSpecs mixes population sizes, seeds and tick-rate divisors so the
// scheduler interleaves worlds at different phases.
var fleetSpecs = []worldSpec{
	{40, 1, 1}, {55, 2, 2}, {70, 3, 1}, {35, 4, 3},
	{60, 5, 1}, {45, 6, 2}, {80, 7, 1}, {50, 8, 2},
}

func addFleet(t *testing.T, srv *server.Server, specs []worldSpec) []*server.World {
	t.Helper()
	handles := make([]*server.World, len(specs))
	for i, sp := range specs {
		h, err := srv.AddWorld(fmt.Sprintf("w%02d", i), core.SrcVehicles, sp.every)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := h.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateVehicles(eng, workload.Uniform(sp.n, 4000, 4000, sp.seed)); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	return handles
}

// standaloneAt builds a fresh standalone world with spec's population and
// runs it exactly `ticks` ticks — the reference trajectory.
func standaloneAt(t *testing.T, sp worldSpec, ticks int64) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateVehicles(w, workload.Uniform(sp.n, 4000, 4000, sp.seed)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(int(ticks)); err != nil {
		t.Fatal(err)
	}
	return w
}

// diffVehicles compares every vehicle attribute bit-for-bit.
func diffVehicles(got, want *engine.World) string {
	gids, wids := got.IDs("Vehicle"), want.IDs("Vehicle")
	if len(gids) != len(wids) {
		return fmt.Sprintf("population %d vs %d", len(gids), len(wids))
	}
	for _, id := range wids {
		for _, attr := range vehicleAttrs {
			gv, gok := got.Get("Vehicle", id, attr)
			wv, wok := want.Get("Vehicle", id, attr)
			if gok != wok {
				return fmt.Sprintf("vehicle %d %s: presence %v vs %v", id, attr, gok, wok)
			}
			if !gv.Equal(wv) {
				return fmt.Sprintf("vehicle %d %s: %v vs %v", id, attr, gv, wv)
			}
		}
	}
	return ""
}

// TestManyWorldDifferential is the server's core guarantee: a world ticked
// by the shared-pool scheduler — any pool size, interleaved with sibling
// worlds at mixed tick rates, hibernated and restored mid-sequence — ends
// bit-identical to the same world ticked standalone. Plan sharing, arena
// pooling and checkpoint round-trips must all be invisible to world state.
func TestManyWorldDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := server.New(server.Config{Workers: workers})
			handles := addFleet(t, srv, fleetSpecs)

			if err := srv.RunRounds(5); err != nil {
				t.Fatal(err)
			}
			// Force two worlds out mid-sequence; they freeze while the
			// rest keep ticking.
			for _, i := range []int{1, 3} {
				if err := handles[i].Hibernate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.RunRounds(4); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{1, 3} {
				if !handles[i].Hibernated() {
					t.Fatalf("world %d not hibernated", i)
				}
				if err := handles[i].Touch(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.RunRounds(6); err != nil {
				t.Fatal(err)
			}

			for i, sp := range fleetSpecs {
				eng, err := handles[i].Engine()
				if err != nil {
					t.Fatal(err)
				}
				ref := standaloneAt(t, sp, eng.Tick())
				if d := diffVehicles(eng, ref); d != "" {
					t.Fatalf("world %d (every=%d) diverged from standalone after %d ticks: %s",
						i, sp.every, eng.Tick(), d)
				}
			}
		})
	}
}

// TestTickRateDivisors pins the batch scheduler's SLA arithmetic: over R
// rounds a never-hibernated world with divisor k runs ceil(R/k) ticks.
func TestTickRateDivisors(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	handles := addFleet(t, srv, fleetSpecs)
	const rounds = 12
	if err := srv.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	for i, sp := range fleetSpecs {
		eng, err := handles[i].Engine()
		if err != nil {
			t.Fatal(err)
		}
		want := int64((rounds + sp.every - 1) / sp.every)
		if eng.Tick() != want {
			t.Errorf("world %d every=%d: %d ticks after %d rounds, want %d",
				i, sp.every, eng.Tick(), rounds, want)
		}
	}
	if c := srv.Counters(); c.TicksRun == 0 {
		t.Error("TicksRun counter never advanced")
	}
}

// failingComponent is an update component that owns nothing and fails
// every tick.
type failingComponent struct{}

var errBoom = errors.New("boom")

func (failingComponent) Name() string                   { return "boom" }
func (failingComponent) Update(*engine.UpdateCtx) error { return errBoom }

// TestRunRoundsFailingWorld pins RunRounds under a failing world: every
// other due world still ticks exactly once, and the error returned is the
// failing world's, for any pool size.
func TestRunRoundsFailingWorld(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 4} {
		srv := server.New(server.Config{Workers: workers})
		handles := addFleet(t, srv, fleetSpecs[:3])
		bad, err := handles[1].Engine()
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.Register(failingComponent{}); err != nil {
			t.Fatal(err)
		}
		err = srv.RunRounds(1)
		if !errors.Is(err, errBoom) {
			t.Fatalf("Workers=%d: RunRounds error %v, want the failing world's", workers, err)
		}
		msgs = append(msgs, err.Error())
		for _, i := range []int{0, 2} {
			eng, err := handles[i].Engine()
			if err != nil {
				t.Fatal(err)
			}
			if eng.Tick() != 1 {
				t.Errorf("Workers=%d: healthy world %d ran %d ticks, want 1", workers, i, eng.Tick())
			}
		}
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error depends on the pool size: %q vs %q", msgs[0], msgs[1])
	}
}

// TestPlanCache pins the compiled-plan cache contract: N worlds of one
// script compile once ((N-1)/N hit rate); a different script is a miss.
func TestPlanCache(t *testing.T) {
	srv := server.New(server.Config{})
	for i := 0; i < 6; i++ {
		if _, err := srv.AddWorld(fmt.Sprintf("v%d", i), core.SrcVehicles, 1); err != nil {
			t.Fatal(err)
		}
	}
	if c := srv.Counters(); c.PlanCacheHits != 5 || c.PlanCacheMisses != 1 {
		t.Fatalf("vehicle fleet: hits=%d misses=%d, want 5/1", c.PlanCacheHits, c.PlanCacheMisses)
	}
	if _, err := srv.AddWorld("traffic", core.SrcTraffic, 1); err != nil {
		t.Fatal(err)
	}
	if c := srv.Counters(); c.PlanCacheHits != 5 || c.PlanCacheMisses != 2 {
		t.Fatalf("after new script: hits=%d misses=%d, want 5/2", c.PlanCacheHits, c.PlanCacheMisses)
	}
	if _, err := srv.AddWorld("v0", core.SrcVehicles, 1); err == nil {
		t.Fatal("duplicate world id accepted")
	}
}

// TestHibernationLifecycle drives the idle policy end to end: untouched
// worlds hibernate after the idle horizon, drop their engine, and any
// Engine access transparently restores them with state intact.
func TestHibernationLifecycle(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, HibernateAfter: 3})
	specs := fleetSpecs[:4]
	handles := addFleet(t, srv, specs)
	if err := srv.RunRounds(14); err != nil {
		t.Fatal(err)
	}
	c := srv.Counters()
	if c.WorldsHibernated != int64(len(specs)) || c.WorldsActive != 0 {
		t.Fatalf("after idle run: active=%d hibernated=%d, want 0/%d",
			c.WorldsActive, c.WorldsHibernated, len(specs))
	}
	if c.Hibernations != int64(len(specs)) {
		t.Fatalf("Hibernations=%d, want %d", c.Hibernations, len(specs))
	}
	for i, h := range handles {
		if !h.Hibernated() {
			t.Fatalf("world %d still resident", i)
		}
		eng, err := h.Engine() // transparent wake
		if err != nil {
			t.Fatal(err)
		}
		if h.Hibernated() {
			t.Fatalf("world %d still hibernated after Engine access", i)
		}
		ref := standaloneAt(t, specs[i], eng.Tick())
		if d := diffVehicles(eng, ref); d != "" {
			t.Fatalf("world %d state lost across hibernation: %s", i, d)
		}
	}
	c = srv.Counters()
	if c.Restores != int64(len(specs)) || c.WorldsActive != int64(len(specs)) {
		t.Fatalf("after wakes: restores=%d active=%d, want %d/%d",
			c.Restores, c.WorldsActive, len(specs), len(specs))
	}
}

// TestHibernationHorizon pins when a world parks: after HibernateAfter idle
// ticks, or one idle tick per 32 rows when that is longer. With
// HibernateAfter 8, a 500-row world parks on its 16th idle tick and a
// 100-row world on its 8th.
func TestHibernationHorizon(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, HibernateAfter: 8})
	handles := addFleet(t, srv, []worldSpec{{500, 1, 1}, {100, 2, 1}})
	for round := 1; round <= 17; round++ {
		if err := srv.RunRounds(1); err != nil {
			t.Fatal(err)
		}
		for i, parkAt := range []int{16, 8} {
			if got := handles[i].Hibernated(); got != (round >= parkAt) {
				t.Fatalf("world %d after %d idle ticks: hibernated = %v, want it parked from tick %d", i, round, got, parkAt)
			}
		}
	}
}

// TestServeRealtime smoke-tests the EDF scheduler: worlds tick under a
// real-time period, the context deadline stops serving cleanly, and every
// world advanced.
func TestServeRealtime(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, TickPeriod: 2 * time.Millisecond})
	handles := addFleet(t, srv, fleetSpecs[:3])
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Serve(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Serve returned %v, want context.DeadlineExceeded", err)
	}
	if c := srv.Counters(); c.TicksRun < int64(len(handles)) {
		t.Fatalf("TicksRun=%d after 200ms of 2ms-period serving", c.TicksRun)
	}
	for i, h := range handles {
		eng, err := h.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if eng.Tick() == 0 {
			t.Errorf("world %d never ticked under Serve", i)
		}
		ref := standaloneAt(t, fleetSpecs[i], eng.Tick())
		if d := diffVehicles(eng, ref); d != "" {
			t.Fatalf("world %d diverged under real-time serving: %s", i, d)
		}
	}
}

// TestViewsSurviveHibernation is the hibernate→restore leg of the
// subscription-view differential wall: a world with live Select/Count/TopK
// subscriptions hibernates, wakes, resyncs every client from the restored
// state, and keeps maintaining deltas that match brute-force recomputation.
func TestViewsSurviveHibernation(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	h, err := srv.AddWorld("royale", core.SrcFig2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := h.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateUnits(eng, workload.Uniform(200, 120, 120, 9), 10); err != nil {
		t.Fatal(err)
	}
	vr, err := h.Views()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := vr.Subscribe(views.Def{Class: "Unit", Pred: "health < 99", Payload: []string{"health"}})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := vr.Subscribe(views.Def{Class: "Unit", Pred: "health < 99", Kind: views.Count})
	if err != nil {
		t.Fatal(err)
	}
	var deltas, resyncs int
	h.SetViewSink(func(d *views.Delta) {
		deltas++
		if d.Resync {
			resyncs++
		}
	})

	check := func(when string) {
		t.Helper()
		e, err := h.Engine()
		if err != nil {
			t.Fatal(err)
		}
		var want []value.ID
		for _, id := range e.IDs("Unit") {
			if e.MustGet("Unit", id, "health").AsNumber() < 99 {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		got := sel.Members()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: select members %v, brute %v", when, got, want)
		}
		if int(cnt.Agg()) != len(want) {
			t.Fatalf("%s: count %v, brute %d", when, cnt.Agg(), len(want))
		}
	}

	if err := srv.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	check("before hibernation")
	if deltas == 0 || resyncs != 2 {
		t.Fatalf("before hibernation: deltas=%d resyncs=%d, want >0 and 2 initial resyncs", deltas, resyncs)
	}

	if err := h.Hibernate(); err != nil {
		t.Fatal(err)
	}
	if !h.Hibernated() || vr.Attached() {
		t.Fatalf("hibernated=%v attached=%v, want true/false", h.Hibernated(), vr.Attached())
	}
	// Frozen worlds are skipped entirely: no ticks, no deltas.
	before := deltas
	if err := srv.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	if deltas != before {
		t.Fatalf("hibernated world delivered %d deltas", deltas-before)
	}

	// Transparent wake: the next ticks must resync both subscriptions once
	// and then resume incremental maintenance.
	if _, err := h.Engine(); err != nil {
		t.Fatal(err)
	}
	if !vr.Attached() {
		t.Fatal("registry not re-attached on wake")
	}
	resyncs = 0
	if err := srv.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	check("after restore")
	if resyncs != 2 {
		t.Fatalf("after restore: resyncs=%d, want exactly 2 (one per subscription)", resyncs)
	}
}
