package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/views"
)

// tickRec is one world-tick as seen from outside the engine: when the
// Inspector saw it start and end and when its last delta reached the sink.
// Times are on the tracer's clock.
type tickRec struct {
	frame            int64 // round, or under Serve the world's tick ordinal = period
	due              int64 // when the server released the tick
	start, end, sink int64
}

func (t tickRec) done() int64 { return max(t.end, t.sink) }

// worldRec is the pass-through Inspector and view sink of one hosted world.
// It only stores timestamps. The server runs a world's ticks one at a time
// and the harness reads the records between rounds or after Serve returns,
// so no lock is needed.
type worldRec struct {
	f      *fleet
	h      *server.World
	ticks  []tickRec
	deltas hash.Hash // hashes the world's delta stream during verification
	bytes  int64     // Σ Delta.Bytes the world's spectators were sent
	txns   *txn.CountingPolicy
}

func (r *worldRec) TickStart(*engine.World, int64) {
	frame := r.f.round
	if r.f.realtime {
		frame = int64(len(r.ticks))
	}
	r.ticks = append(r.ticks, tickRec{frame: frame, start: now()})
}

func (r *worldRec) TickEnd(*engine.World, int64) { r.ticks[len(r.ticks)-1].end = now() }

func (r *worldRec) onDelta(d *views.Delta) {
	r.ticks[len(r.ticks)-1].sink = now()
	r.bytes += d.Bytes()
	if r.deltas != nil {
		hashDelta(r.deltas, d)
	}
}

// attach installs the record as the world's inspector. A wake rebuilds the
// engine and drops its inspectors, so the harness re-attaches after every
// timed wake.
func (r *worldRec) attach() error {
	eng, err := r.h.Engine()
	if err != nil {
		return err
	}
	eng.AddInspector(r)
	return nil
}

// fleet is the many-world workload: 8 spectated Figure-2 worlds and 16
// market worlds with players present every round, and 256 vehicle worlds of
// which a sliding window has players. Under RunRounds it is a closed loop
// with hibernation on; under Serve it is open loop at a fixed period with
// hibernation off.
type fleet struct {
	c        config
	srv      *server.Server
	realtime bool
	round    int64

	played   []*worldRec // Figure-2 and market worlds: never idle
	vehicles []*worldRec
	all      []*worldRec
}

// worldSpec describes one world of the fleet. The hosted fleet and its
// standalone reference replay are both built from the same list.
type worldSpec struct {
	id, script string
	populate   func(*engine.World) error
	// subscribe registers the world's spectators; nil when it has none.
	subscribe func(*views.Registry) error
	// played worlds have a player present every round and never hibernate.
	played bool
}

func fleetSpecs(c config) []worldSpec {
	var specs []worldSpec
	for i := 0; i < c.size.Fig2Worlds; i++ {
		seed := c.seed*1000 + int64(i)
		specs = append(specs, worldSpec{
			id: fmt.Sprintf("fig2-%02d", i), script: core.SrcFig2, played: true,
			populate:  func(w *engine.World) error { return populateFig2(w, c.size.Fig2Units, seed) },
			subscribe: func(reg *views.Registry) error { return subscribeFig2(reg, c, seed) },
		})
	}
	for i := 0; i < c.size.MarketWorlds; i++ {
		specs = append(specs, worldSpec{
			id: fmt.Sprintf("market-%02d", i), script: core.SrcMarket, played: true,
			populate: func(w *engine.World) error { return populateMarket(w, c.size.MarketWorldPairs) },
		})
	}
	for i := 0; i < c.size.VehicleWorlds; i++ {
		seed := c.seed*1000 + 500 + int64(i)
		specs = append(specs, worldSpec{
			id: fmt.Sprintf("vehicles-%03d", i), script: core.SrcVehicles,
			populate: func(w *engine.World) error { return populateVehicles(w, c.size.VehicleWorldUnits, seed) },
		})
	}
	return specs
}

func buildFleet(c config, realtime bool) (instance, error) {
	cfg := server.Config{
		Workers:    workers(),
		TickPeriod: time.Duration(c.size.PeriodMs) * time.Millisecond,
		Engine:     c.engineOptions(),
	}
	if !realtime {
		cfg.HibernateAfter = c.size.HibernateAfter
	}
	f := &fleet{c: c, srv: server.New(cfg), realtime: realtime}
	for _, spec := range fleetSpecs(c) {
		h, err := f.srv.AddWorld(spec.id, spec.script, 1)
		if err != nil {
			return nil, err
		}
		eng, err := h.Engine()
		if err != nil {
			return nil, err
		}
		if err := spec.populate(eng); err != nil {
			return nil, err
		}
		r := &worldRec{f: f, h: h}
		eng.AddInspector(r)
		if spec.subscribe != nil {
			reg, err := h.Views()
			if err != nil {
				return nil, err
			}
			if err := spec.subscribe(reg); err != nil {
				return nil, err
			}
			r.deltas = newHash()
			h.SetViewSink(r.onDelta)
		}
		f.all = append(f.all, r)
		if !spec.played {
			f.vehicles = append(f.vehicles, r)
			continue
		}
		// Played worlds stay resident, so a policy set here stays set.
		r.txns = &txn.CountingPolicy{}
		eng.SetTxnPolicy(r.txns)
		f.played = append(f.played, r)
	}
	return f, nil
}

func subscribeFig2(reg *views.Registry, c config, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < c.size.Fig2Subs; i++ {
		def, err := spectatorDef("Unit", i, fig2Side(c.size.Fig2Units), rng, c.viewMode())
		if err != nil {
			return err
		}
		if _, err := reg.Subscribe(def); err != nil {
			return err
		}
	}
	return nil
}

// touch is the clients' side of one round: every played world is touched,
// and so is the window of vehicle worlds, which slides each round. Touching
// a parked world is the wake a joining player waits for; it is timed when
// win is non-nil and recorded as a span when tr is too.
func (f *fleet) touch(win *window, tr *tracer, root int) error {
	for _, r := range f.played {
		if err := r.h.Touch(); err != nil {
			return err
		}
	}
	n := len(f.vehicles)
	lo := int(f.round) * f.c.size.Slide % n
	for i := 0; i < f.c.size.Window; i++ {
		r := f.vehicles[(lo+i)%n]
		if !r.h.Hibernated() {
			if err := r.h.Touch(); err != nil {
				return err
			}
			continue
		}
		sp := tr.begin("server.wake", root, f.round)
		t0 := time.Now()
		err := r.h.Touch()
		d := time.Since(t0)
		tr.end(sp)
		if win != nil {
			win.attempted++
			win.wake = append(win.wake, ms(d))
		}
		if err != nil {
			return err
		}
		if err := r.attach(); err != nil {
			return err
		}
	}
	return nil
}

// roundStep runs one closed-loop round: the clients touch their worlds,
// then every resident world ticks once. It returns the round's server.round
// span, the parent of its world-tick spans (-1 untraced).
func (f *fleet) roundStep(win *window, tr *tracer) (roundSpan int, err error) {
	roundSpan = -1
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("round %d panicked: %v", f.round, r)
		}
		f.round++
	}()
	root := tr.begin("frame", -1, f.round)
	if !f.realtime {
		if err := f.touch(win, tr, root); err != nil {
			return roundSpan, err
		}
	}
	roundSpan = tr.begin("server.round", root, f.round)
	err = f.srv.RunRounds(1)
	tr.end(roundSpan)
	tr.end(root)
	return roundSpan, err
}

func (f *fleet) advance(n int) error {
	for i := 0; i < n; i++ {
		if _, err := f.roundStep(nil, nil); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) counters() counters {
	c := counters{srv: f.srv.Counters(), mallocs: mallocs()}
	// Engine counters are read from the played worlds only: they are always
	// resident, so reading them neither wakes a world nor resets an idle
	// count the hibernation policy is watching.
	for _, r := range f.played {
		eng, err := r.h.Engine()
		if err != nil {
			continue
		}
		addExec(&c.exec, eng.ExecStats())
		c.planSwitches += eng.PlanSwitches()
		c.deltaBytes += r.bytes
		c.txnSubmitted += r.txns.Stats.Submitted
		c.txnAborted += r.txns.Stats.Aborted
	}
	return c
}

func (f *fleet) resetRecs(capacity int) {
	for _, r := range f.all {
		r.deltas = nil
		r.ticks = make([]tickRec, 0, capacity)
	}
}

func (f *fleet) measure(d time.Duration, tr *tracer) *window {
	if f.realtime {
		return f.serve(d, tr)
	}
	f.resetRecs(1 << 10)
	win := &window{frames: make([]float64, 0, 1<<12), before: f.counters()}
	firstRound := f.round
	var roundSpans []int // each round's server.round span
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		sp, err := f.roundStep(win, tr)
		win.frames = append(win.frames, ms(time.Since(t0)))
		roundSpans = append(roundSpans, sp)
		win.attempted++
		if err != nil {
			win.fail(err)
		}
	}
	win.wall = time.Since(start)
	win.after = f.counters()
	win.worldTicks = win.after.srv.TicksRun - win.before.srv.TicksRun
	win.attempted += win.worldTicks
	if tr != nil {
		// A round's ticks are all due when RunRounds is called.
		for _, r := range f.all {
			for k := range r.ticks {
				sp := roundSpans[r.ticks[k].frame-firstRound]
				r.ticks[k].due = tr.spans[sp].Start
			}
		}
	}
	f.worldTickStats(win, tr, func(t tickRec) int { return roundSpans[t.frame-firstRound] })
	return win
}

// worldTickStats folds every recorded world-tick into the window: length
// from start to completion and pool busy share — and, when tracing, wait
// from due to start and the spans, each under the span parentOf names.
func (f *fleet) worldTickStats(win *window, tr *tracer, parentOf func(tickRec) int) {
	var busy int64
	for _, r := range f.all {
		for _, t := range r.ticks {
			if t.end == 0 {
				continue // cut off by the end of the window
			}
			busy += t.done() - t.start
			win.worldTick = append(win.worldTick, float64(t.done()-t.start)/1e6)
			if tr == nil {
				continue
			}
			parent := parentOf(t)
			win.schedWait = append(win.schedWait, float64(t.start-t.due)/1e6)
			if f.realtime {
				tr.add("server.sched_wait", parent, t.frame, t.due, t.start)
			}
			wt := tr.add("server.world_tick", parent, t.frame, t.start, t.done())
			tr.add("engine.tick", wt, t.frame, t.start, t.end)
			if t.sink > t.end {
				tr.add("views.apply", wt, t.frame, t.end, t.sink)
			}
		}
	}
	if win.wall > 0 {
		win.poolBusy = float64(busy) / (float64(workers()) * float64(win.wall))
	}
}

// serve runs the fleet open loop for d. The client does nothing while the
// server runs: every number comes from the timestamps the world records
// stored. Period k is due at start + k·period and done when the last world
// finishes its k-th tick, so a stall is charged to every period it delays.
func (f *fleet) serve(d time.Duration, tr *tracer) *window {
	period := time.Duration(f.c.size.PeriodMs) * time.Millisecond
	f.resetRecs(2*int(d/period) + 64)
	win := &window{before: f.counters()}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	start := time.Now()
	serveStart := now()
	err := f.srv.Serve(ctx)
	win.wall = time.Since(start)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		win.fail(err)
	}
	win.after = f.counters()
	win.worldTicks = win.after.srv.TicksRun - win.before.srv.TicksRun
	win.attempted = win.worldTicks
	win.released = win.worldTicks

	// Every tick is timed from its release. Serve releases a world's first
	// tick when it starts and each next one a period after the last; when a
	// tick finishes after its successor was due, Serve releases the successor
	// at once and the skipped time is never made up (it counts the tick as a
	// deadline miss instead). The harness replays that rule over the
	// recorded completions, so a stall is charged in full to the ticks that
	// were waiting through it and not again to every tick after them.
	periods := len(f.all[0].ticks)
	for _, r := range f.all {
		n := len(r.ticks)
		if n > 0 && r.ticks[n-1].end == 0 {
			n-- // cut off by the end of the window
		}
		periods = min(periods, n)
		r.ticks = r.ticks[:n]
		due := serveStart
		for k := range r.ticks {
			r.ticks[k].due = due
			due = max(due+int64(period), r.ticks[k].done())
		}
	}
	// Period k is the k-th tick of every world, done when the last of them
	// is; the ragged tail, where some world has no k-th tick, is dropped.
	roots := make([]int, periods)
	for k := 0; k < periods; k++ {
		var late, due, done int64
		for _, r := range f.all {
			if t := r.ticks[k]; t.done()-t.due > late {
				late, due, done = t.done()-t.due, t.due, t.done()
			}
		}
		win.frames = append(win.frames, float64(late)/1e6)
		if tr != nil {
			roots[k] = tr.add("frame", -1, int64(k), due, done)
		}
	}
	for _, r := range f.all {
		r.ticks = r.ticks[:periods]
	}
	f.worldTickStats(win, tr, func(t tickRec) int { return roots[t.frame] })
	return win
}

// digest combines every world's table digest, and for spectated worlds the
// digest of its delta stream, in registration order.
func (f *fleet) digest() (string, error) {
	h := newHash()
	for _, r := range f.all {
		eng, err := r.h.Engine()
		if err != nil {
			return "", err
		}
		if err := hashTables(h, eng); err != nil {
			return "", err
		}
		if r.deltas != nil {
			h.Write(r.deltas.Sum(nil))
		}
	}
	return hexSum(h), nil
}

// park times server.World.Hibernate on every resident vehicle world. It
// runs after the traced window: inside a round the server hibernates worlds
// itself, where no outside call can be timed.
func (f *fleet) park() []float64 {
	if f.realtime {
		return nil
	}
	var out []float64
	for _, r := range f.vehicles {
		if r.h.Hibernated() {
			continue
		}
		t0 := time.Now()
		if err := r.h.Hibernate(); err != nil {
			continue
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

// fleetReference replays the fleet's first rounds as standalone worlds
// under the reference configuration and returns the digest the hosted
// fleet must match: hosting, the shared pool and the plan cache may not
// change what any world computes.
func fleetReference(c config) (string, error) {
	h := newHash()
	for _, spec := range fleetSpecs(c) {
		w, err := newWorld(spec.id, spec.script, c)
		if err != nil {
			return "", err
		}
		if err := spec.populate(w); err != nil {
			return "", err
		}
		var reg *views.Registry
		deltas := newHash()
		if spec.subscribe != nil {
			reg = views.New(w, plan.DefaultCosts())
			if err := spec.subscribe(reg); err != nil {
				return "", err
			}
		}
		for i := 0; i < verifyFrames; i++ {
			if err := w.RunTick(); err != nil {
				return "", err
			}
			if reg != nil {
				reg.Apply(func(d *views.Delta) { hashDelta(deltas, d) })
			}
		}
		if err := hashTables(h, w); err != nil {
			return "", err
		}
		if reg != nil {
			h.Write(deltas.Sum(nil))
		}
	}
	return hexSum(h), nil
}
