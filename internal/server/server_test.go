package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
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
	checkFailingWorld(t, server.Config{}, func(srv *server.Server) error { return srv.RunRounds(1) })
}

// checkFailingWorld runs three worlds, the second failing every tick,
// through run at Workers 1 and 4: run must return the failing world's
// error, the same at both pool sizes, after the other two ticked once.
func checkFailingWorld(t *testing.T, cfg server.Config, run func(*server.Server) error) {
	t.Helper()
	var msgs []string
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		srv := server.New(cfg)
		handles := addFleet(t, srv, fleetSpecs[:3])
		bad, err := handles[1].Engine()
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.Register(failingComponent{}); err != nil {
			t.Fatal(err)
		}
		err = run(srv)
		if !errors.Is(err, errBoom) {
			t.Fatalf("Workers=%d: error %v, want the failing world's", workers, err)
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

// TestServeTicksWorldAddedWhileRunning pins that Serve re-reads the
// registrations: a world added 20 ms into a 2 ms-period Serve ticks before
// Serve returns, whether Serve started with a world or with none.
func TestServeTicksWorldAddedWhileRunning(t *testing.T) {
	for _, initial := range []int{0, 1} {
		t.Run(fmt.Sprintf("initial=%d", initial), func(t *testing.T) {
			srv := server.New(server.Config{Workers: 2, TickPeriod: 2 * time.Millisecond})
			handles := addFleet(t, srv, fleetSpecs[:initial])
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ctx) }()
			time.Sleep(20 * time.Millisecond)
			late, err := srv.AddWorld("late", core.SrcVehicles, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != context.DeadlineExceeded {
				t.Fatalf("Serve returned %v, want context.DeadlineExceeded", err)
			}
			for _, h := range append(handles, late) {
				eng, err := h.Engine()
				if err != nil {
					t.Fatal(err)
				}
				if eng.Tick() == 0 {
					t.Errorf("world %s never ticked under Serve", h.ID)
				}
			}
		})
	}
}

// mixedSpec is one world of a fleet that mixes the fleet benchmark's three
// scripts: spectated Figure-2 battles, markets and vehicles.
type mixedSpec struct {
	script   string
	every    int
	populate func(*engine.World) error
	// subs are the world's spectator subscriptions, registered in order.
	subs []views.Def
}

var fig2Subs = []views.Def{
	{Class: "Unit", Pred: "health < 99", Payload: []string{"x", "health"}},
	{Class: "Unit", Pred: "x < 30 && health < 100", Kind: views.Count},
	{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 5},
}

func mixedSpecs() []mixedSpec {
	fig2 := func(n int, seed int64) func(*engine.World) error {
		return func(w *engine.World) error {
			_, err := core.PopulateUnits(w, workload.Uniform(n, 60, 60, seed), 10)
			return err
		}
	}
	market := func(sellers, stock int) func(*engine.World) error {
		return func(w *engine.World) error {
			_, _, err := core.PopulateMarket(w, workload.Market{
				Sellers: sellers, BuyersPerItem: 2, Stock: stock, Price: 25, Gold: 1000,
			})
			return err
		}
	}
	vehicles := func(n int, seed int64) func(*engine.World) error {
		return func(w *engine.World) error {
			_, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, seed))
			return err
		}
	}
	return []mixedSpec{
		{core.SrcFig2, 1, fig2(120, 1), fig2Subs},
		{core.SrcMarket, 1, market(20, 3), nil},
		{core.SrcVehicles, 2, vehicles(60, 3), nil},
		{core.SrcFig2, 2, fig2(90, 4), fig2Subs},
		{core.SrcMarket, 2, market(15, 1<<20), nil},
		{core.SrcVehicles, 1, vehicles(45, 6), nil},
	}
}

// mixedWorld is a hosted world of the mixed fleet with its delta stream
// folded into a running hash.
type mixedWorld struct {
	h      *server.World
	deltas hash.Hash
}

func addMixedFleet(t *testing.T, srv *server.Server) []*mixedWorld {
	t.Helper()
	var ws []*mixedWorld
	for i, sp := range mixedSpecs() {
		h, err := srv.AddWorld(fmt.Sprintf("m%02d", i), sp.script, sp.every)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := h.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.populate(eng); err != nil {
			t.Fatal(err)
		}
		mw := &mixedWorld{h: h, deltas: sha256.New()}
		if len(sp.subs) > 0 {
			vr, err := h.Views()
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range sp.subs {
				if _, err := vr.Subscribe(def); err != nil {
					t.Fatal(err)
				}
			}
			h.SetViewSink(func(d *views.Delta) {
				fmt.Fprintln(mw.deltas, d.Sub, d.Class, d.Tick, d.Resync, d.AddIDs, d.AddCols,
					d.UpdIDs, d.UpdCols, d.RemIDs, d.AggChanged, d.Agg, d.Top)
			})
		}
		ws = append(ws, mw)
	}
	return ws
}

// state renders a world's checkpoint: tick, next id and every table's ids
// and columns, floats in their shortest exact form.
func state(t *testing.T, h *server.World) (int64, string) {
	t.Helper()
	eng, err := h.Engine()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp.Tick, fmt.Sprint(*cp)
}

// TestServeMatchesRunRounds pins the one dispatcher: a mixed fleet served
// in real time, at any pool size, leaves every world with exactly the table
// state and delta stream a RunRounds twin reaches at the same tick count.
func TestServeMatchesRunRounds(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := server.New(server.Config{Workers: workers, TickPeriod: 2 * time.Millisecond})
			served := addMixedFleet(t, srv)
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			if err := srv.Serve(ctx); err != context.DeadlineExceeded {
				t.Fatalf("Serve returned %v, want context.DeadlineExceeded", err)
			}

			type want struct {
				tick   int64
				state  string
				deltas []byte
			}
			wants := make([]*want, len(served))
			for i, mw := range served {
				tick, st := state(t, mw.h)
				if tick == 0 {
					t.Fatalf("world %d never ticked under Serve", i)
				}
				wants[i] = &want{tick, st, mw.deltas.Sum(nil)}
			}

			// Each twin world is compared at the round its tick count
			// reaches the served world's.
			twin := server.New(server.Config{Workers: workers})
			twins := addMixedFleet(t, twin)
			for left := len(wants); left > 0; {
				if err := twin.RunRounds(1); err != nil {
					t.Fatal(err)
				}
				for i, w := range wants {
					if w == nil {
						continue
					}
					tick, st := state(t, twins[i].h)
					if tick < w.tick {
						continue
					}
					if st != w.state {
						t.Errorf("world %d: served state differs from the RunRounds twin at tick %d", i, w.tick)
					}
					if !bytes.Equal(w.deltas, twins[i].deltas.Sum(nil)) {
						t.Errorf("world %d: served delta stream differs from the RunRounds twin at tick %d", i, w.tick)
					}
					wants[i] = nil
					left--
				}
			}
		})
	}
}

// slowInspector stalls every tick of the world it inspects.
type slowInspector struct{ d time.Duration }

func (s slowInspector) TickStart(*engine.World, int64) { time.Sleep(s.d) }
func (slowInspector) TickEnd(*engine.World, int64)     {}

// TestServeDeadlineMisses pins Serve's miss accounting on one worker: a
// world whose ticks overrun the period makes the world behind it in each
// batch start late, that world counts misses and lag, a hibernated world
// counts none, and the server counters are the sums of the per-world ones.
func TestServeDeadlineMisses(t *testing.T) {
	const period = 2 * time.Millisecond
	srv := server.New(server.Config{Workers: 1, TickPeriod: period})
	handles := addFleet(t, srv, []worldSpec{{40, 1, 1}, {40, 2, 1}, {40, 3, 1}})
	slow, victim, parked := handles[0], handles[1], handles[2]
	eng, err := slow.Engine()
	if err != nil {
		t.Fatal(err)
	}
	eng.AddInspector(slowInspector{3 * period})
	if err := parked.Hibernate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := srv.Serve(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Serve returned %v, want context.DeadlineExceeded", err)
	}

	if misses, lag := victim.Stats(); misses == 0 || lag <= 0 {
		t.Errorf("world behind the slow one: misses=%d lag=%v, want both positive", misses, lag)
	}
	if misses, lag := parked.Stats(); misses != 0 || lag != 0 {
		t.Errorf("hibernated world: misses=%d lag=%v, want none", misses, lag)
	}
	var misses int64
	var lag time.Duration
	for _, h := range handles {
		m, l := h.Stats()
		misses += m
		lag += l
	}
	c := srv.Counters()
	if c.TickDeadlineMisses != misses || c.TickLagNanos != int64(lag) {
		t.Errorf("counters misses=%d lag=%d, per-world sums %d and %d",
			c.TickDeadlineMisses, c.TickLagNanos, misses, int64(lag))
	}
}

// TestServeFailingWorld pins Serve under a failing world, the rule
// RunRounds keeps: the first batch still ticks every other world once, and
// Serve returns the failing world's error, for any pool size.
func TestServeFailingWorld(t *testing.T) {
	checkFailingWorld(t, server.Config{TickPeriod: time.Millisecond}, func(srv *server.Server) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Serve(ctx)
	})
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
