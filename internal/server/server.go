// Package server hosts many SGL worlds over one shared execution
// substrate (DESIGN.md §4.12). The paper's target deployment is not one
// huge simulation but thousands of small concurrent game instances; the
// server makes that shape cheap with four mechanisms:
//
//   - a compiled-plan cache keyed on the script hash, so 2000 worlds of one
//     game compile its kernels, analysis and site batches exactly once;
//   - a shared arena pool: vexpr machines and index-build arenas are
//     checked out per tick and returned at tick end, so scratch memory
//     scales with concurrency (pool workers), not world count;
//   - a deadline-aware tick scheduler: batch rounds over a shared worker
//     pool, or real-time EDF serving with per-world tick periods and
//     deadline-miss/lag accounting;
//   - hibernation: a world idle past the cost model's break-even horizon
//     is checkpointed out and its engine freed; any access transparently
//     restores it.
package server

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/views"
)

// Config tunes the server. The zero value serves with NumCPU workers, no
// hibernation and a 50ms base tick period.
type Config struct {
	// Workers caps the shared pool of tick executors. 0 = NumCPU.
	Workers int
	// HibernateAfter is the idle-tick threshold before a world becomes a
	// hibernation candidate; 0 disables hibernation. The effective horizon
	// per world is max(HibernateAfter, Costs.HibernateHorizon(rows)) so
	// large worlds — whose checkpoint/restore round-trip costs more than
	// idling — hibernate later than small ones.
	HibernateAfter int
	// Costs supplies the hibernation break-even model (plan.DefaultCosts
	// when zero-valued).
	Costs plan.Costs
	// TickPeriod is the real-time base period for Serve: a world with
	// Every=k ticks every k*TickPeriod. 0 = 50ms. RunRounds ignores it.
	TickPeriod time.Duration
	// Engine is the per-world engine option template (Workers is forced
	// to 1: parallelism comes from ticking many worlds, not sharding one).
	Engine engine.Options
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

func (c Config) costs() plan.Costs {
	if c.Costs == (plan.Costs{}) {
		return plan.DefaultCosts()
	}
	return c.Costs
}

func (c Config) tickPeriod() time.Duration {
	if c.TickPeriod > 0 {
		return c.TickPeriod
	}
	return 50 * time.Millisecond
}

// World is a hosted world handle. All methods are safe for concurrent use
// with the scheduler: the handle lock serializes ticks, hibernation and
// client access.
type World struct {
	ID string
	// Every is the tick-rate divisor: the world ticks every Every-th
	// round (RunRounds) or every Every*TickPeriod (Serve).
	Every int

	srv *Server
	sc  *core.Scenario

	mu   sync.Mutex
	eng  *engine.World      // nil while hibernated
	hib  *engine.Checkpoint // non-nil while hibernated
	idle int                // ticks since last client Touch/Engine access

	// views is the world's subscription registry (lazily created), and
	// sink the per-delta spectator callback invoked after every tick.
	// Subscriptions survive hibernation: the registry detaches with the
	// engine and resyncs every client after the restore.
	views *views.Registry
	sink  func(*views.Delta)

	// Real-time serving state (owned by Serve's scheduler loop). A tick
	// is released at `release` (becomes eligible to run) and must start
	// by `deadline` = release + the world's period.
	release  time.Time
	deadline time.Time
	misses   int64
	lag      time.Duration
}

// Server hosts many worlds over one shared worker pool, plan cache and
// arena pool.
type Server struct {
	cfg    Config
	arenas *engine.ArenaPool

	mu        sync.Mutex
	scenarios map[string]*core.Scenario // script-hash → compiled scenario
	worlds    map[string]*World
	order     []*World // registration order (deterministic round sweep)
	round     int64
	counters  stats.ServerCounters
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg.Engine.Workers = 1
	return &Server{
		cfg:       cfg,
		arenas:    &engine.ArenaPool{},
		scenarios: make(map[string]*core.Scenario),
		worlds:    make(map[string]*World),
	}
}

// AddWorld registers a world running script, ticking every `every`-th
// round (minimum 1). Compilation is cached on the script's SHA-256: the
// first world of a script compiles, every sibling reuses the plan.
func (s *Server) AddWorld(id, script string, every int) (*World, error) {
	if every < 1 {
		every = 1
	}
	sum := sha256.Sum256([]byte(script))
	key := hex.EncodeToString(sum[:])

	s.mu.Lock()
	if _, dup := s.worlds[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: duplicate world id %q", id)
	}
	sc, ok := s.scenarios[key]
	s.mu.Unlock()

	if !ok {
		// Compile outside the server lock; a racing AddWorld of the same
		// script may compile too, but exactly one wins the cache slot.
		fresh, err := core.LoadScenario(id, script)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if cached, again := s.scenarios[key]; again {
			sc, ok = cached, true
		} else {
			s.scenarios[key] = fresh
			sc = fresh
		}
		s.mu.Unlock()
	}

	eng, err := sc.NewWorld(s.cfg.Engine)
	if err != nil {
		return nil, err
	}
	eng.SetArenaPool(s.arenas)

	h := &World{ID: id, Every: every, srv: s, sc: sc, eng: eng}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.worlds[id]; dup {
		return nil, fmt.Errorf("server: duplicate world id %q", id)
	}
	s.worlds[id] = h
	s.order = append(s.order, h)
	s.counters.WorldsActive++
	if ok {
		s.counters.PlanCacheHits++
	} else {
		s.counters.PlanCacheMisses++
	}
	return h, nil
}

// World looks up a hosted world by id.
func (s *Server) World(id string) (*World, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.worlds[id]
	return h, ok
}

// Counters snapshots the server counters.
func (s *Server) Counters() stats.ServerCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Engine returns the world's engine for direct access (spawn, query,
// manual ticks), transparently restoring it if hibernated and marking the
// world touched. The engine must not be used concurrently with a running
// scheduler tick of the same world; between rounds (or before Serve) is
// always safe.
func (h *World) Engine() (*engine.World, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.idle = 0
	if err := h.wakeLocked(); err != nil {
		return nil, err
	}
	return h.eng, nil
}

// Touch marks client interest: the idle counter resets and a hibernated
// world is restored.
func (h *World) Touch() error {
	_, err := h.Engine()
	return err
}

// Hibernated reports whether the world is currently checkpointed out.
func (h *World) Hibernated() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hib != nil
}

// Stats returns the world's deadline-miss count and accumulated lag from
// real-time serving.
func (h *World) Stats() (misses int64, lag time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.misses, h.lag
}

// Views returns the world's subscription registry, creating it on first
// use (waking a hibernated world: subscribing needs the schema and
// tables). Subscribe/Unsubscribe between ticks only — the registry shares
// the engine's single-driver discipline.
func (h *World) Views() (*views.Registry, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.idle = 0
	if err := h.wakeLocked(); err != nil {
		return nil, err
	}
	if h.views == nil {
		h.views = views.New(h.eng, h.srv.cfg.costs())
	}
	return h.views, nil
}

// SetViewSink installs the callback that receives every subscription delta
// after each tick (nil silences delivery; subscription state is maintained
// regardless). Deltas alias registry buffers — copy to retain.
func (h *World) SetViewSink(fn func(*views.Delta)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink = fn
}

// Hibernate forces the world out now (no-op when already hibernated).
func (h *World) Hibernate() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hibernateLocked()
}

func (h *World) hibernateLocked() error {
	if h.hib != nil {
		return nil
	}
	c, err := h.eng.Checkpoint()
	if err != nil {
		return fmt.Errorf("server: hibernate %s: %w", h.ID, err)
	}
	h.hib = c
	if h.views != nil {
		h.views.Detach()
	}
	h.eng = nil
	s := h.srv
	s.mu.Lock()
	s.counters.Hibernations++
	s.counters.WorldsActive--
	s.counters.WorldsHibernated++
	s.mu.Unlock()
	return nil
}

func (h *World) wakeLocked() error {
	if h.hib == nil {
		return nil
	}
	eng, err := h.sc.NewWorld(h.srv.cfg.Engine)
	if err != nil {
		return fmt.Errorf("server: wake %s: %w", h.ID, err)
	}
	eng.SetArenaPool(h.srv.arenas)
	if err := eng.Restore(h.hib); err != nil {
		return fmt.Errorf("server: wake %s: %w", h.ID, err)
	}
	h.eng = eng
	h.hib = nil
	if h.views != nil {
		// The restored world's tables (and dictionary codes) are fresh
		// objects: rebind, recompile kernels, resync every subscription.
		h.views.Attach(eng)
	}
	s := h.srv
	s.mu.Lock()
	s.counters.Restores++
	s.counters.WorldsActive++
	s.counters.WorldsHibernated--
	s.mu.Unlock()
	return nil
}

// rowsLocked counts live objects across classes (the hibernation
// break-even input).
func (h *World) rowsLocked() int {
	n := 0
	for _, cls := range h.sc.Info.Schema.Classes() {
		n += h.eng.Count(cls.Name)
	}
	return n
}

// tick runs one scheduled world tick and applies the hibernation policy.
// Hibernated worlds are frozen: the scheduler skips them entirely, so a
// woken world resumes exactly where its checkpoint left it.
func (h *World) tick() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hib != nil {
		return nil
	}
	if err := h.eng.RunTick(); err != nil {
		return fmt.Errorf("server: tick %s: %w", h.ID, err)
	}
	if h.views != nil {
		h.views.Apply(h.sink)
	}
	s := h.srv
	s.mu.Lock()
	s.counters.TicksRun++
	s.mu.Unlock()
	h.idle++
	if after := s.cfg.HibernateAfter; after > 0 {
		horizon := s.cfg.costs().HibernateHorizon(h.rowsLocked())
		if horizon < after {
			horizon = after
		}
		if h.idle >= horizon {
			return h.hibernateLocked()
		}
	}
	return nil
}

// RunRounds advances the server n scheduling rounds. Each round ticks
// every due world (active, round divisible by Every) once, fanned out over
// the shared worker pool with a barrier between rounds, so relative world
// progress is deterministic for any pool size. A failing world does not
// stop the round: every due world still ticks, and RunRounds then returns
// the error of the failing world that comes first in server order.
func (s *Server) RunRounds(n int) error {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		round := s.round
		s.round++
		due := make([]*World, 0, len(s.order))
		for _, h := range s.order {
			if round%int64(h.Every) == 0 {
				due = append(due, h)
			}
		}
		s.mu.Unlock()
		if err := s.tickAll(due); err != nil {
			return err
		}
	}
	return nil
}

// tickAll ticks every world of due once and returns the error of the first
// failing world in due's order.
func (s *Server) tickAll(due []*World) error {
	workers := min(s.cfg.workers(), len(due))
	if workers <= 1 {
		var first error
		for _, h := range due {
			if err := h.tick(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// Workers claim increasing indexes, so each worker's first failure is
	// its earliest; the earliest across workers is the first in order.
	type failure struct {
		at  int
		err error
	}
	var next int64
	var wg sync.WaitGroup
	fails := make([]failure, workers)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			for {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= len(due) {
					return
				}
				if err := due[j].tick(); err != nil && fails[wk].err == nil {
					fails[wk] = failure{at: j, err: err}
				}
			}
		}(wk)
	}
	wg.Wait()
	first := failure{at: len(due)}
	for _, f := range fails {
		if f.err != nil && f.at < first.at {
			first = f
		}
	}
	return first.err
}

// worldHeap is a min-heap of worlds under a caller-chosen time key.
type worldHeap struct {
	ws []*World
	by func(h *World) time.Time
}

func (q worldHeap) Len() int            { return len(q.ws) }
func (q worldHeap) Less(i, j int) bool  { return q.by(q.ws[i]).Before(q.by(q.ws[j])) }
func (q worldHeap) Swap(i, j int)       { q.ws[i], q.ws[j] = q.ws[j], q.ws[i] }
func (q *worldHeap) Push(x interface{}) { q.ws = append(q.ws, x.(*World)) }
func (q *worldHeap) Pop() interface{} {
	old := q.ws
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	q.ws = old[:n-1]
	return h
}

// Serve runs the real-time earliest-deadline-first scheduler until ctx is
// done. A world with divisor Every releases a tick every Every*TickPeriod;
// a released tick must start by its deadline (release + period). Released
// ticks dispatch to the shared pool in EDF order; a tick that starts past
// its deadline counts a miss and accumulates the lag, and its next release
// is clamped forward so one stall does not cascade into a spiral of
// misses.
func (s *Server) Serve(ctx context.Context) error {
	period := s.cfg.tickPeriod()

	// pending orders unreleased worlds by release time; ready orders
	// released worlds by deadline (the EDF dispatch queue). Both are only
	// touched by this scheduler goroutine.
	pending := &worldHeap{by: func(h *World) time.Time { return h.release }}
	ready := &worldHeap{by: func(h *World) time.Time { return h.deadline }}
	s.mu.Lock()
	now := time.Now()
	for _, h := range s.order {
		h.release = now
		h.deadline = now.Add(time.Duration(h.Every) * period)
		pending.ws = append(pending.ws, h)
	}
	s.mu.Unlock()
	heap.Init(pending)

	var errMu sync.Mutex
	var serveErr error
	setErr := func(err error) {
		errMu.Lock()
		if serveErr == nil {
			serveErr = err
		}
		errMu.Unlock()
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return serveErr
	}

	jobs := make(chan *World)
	done := make(chan *World)
	var wg sync.WaitGroup
	workers := s.cfg.workers()
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for h := range jobs {
				start := time.Now()
				if start.After(h.deadline) && !h.Hibernated() {
					late := start.Sub(h.deadline)
					h.mu.Lock()
					h.misses++
					h.lag += late
					h.mu.Unlock()
					s.mu.Lock()
					s.counters.TickDeadlineMisses++
					s.counters.TickLagNanos += int64(late)
					s.mu.Unlock()
				}
				if err := h.tick(); err != nil {
					setErr(err)
				}
				done <- h
			}
		}()
	}

	// reschedule computes a finished world's next release, clamped
	// forward when the schedule has slipped by a full period: an
	// overloaded world releases again immediately (ticks back-to-back,
	// one miss per tick), while a hibernated one idles a full period so
	// its no-op scheduling checks never spin.
	reschedule := func(h *World) {
		step := time.Duration(h.Every) * period
		r := h.release.Add(step)
		if now := time.Now(); r.Before(now) {
			if h.Hibernated() {
				r = now.Add(step)
			} else {
				r = now
			}
		}
		h.release = r
		h.deadline = r.Add(step)
		heap.Push(pending, h)
	}

	timer := time.NewTimer(0)
	defer timer.Stop()
	inFlight := 0
	for getErr() == nil {
		// Promote every released world into the EDF ready queue.
		now := time.Now()
		for len(pending.ws) > 0 && !pending.ws[0].release.After(now) {
			heap.Push(ready, heap.Pop(pending))
		}

		switch {
		case len(ready.ws) > 0:
			h := heap.Pop(ready).(*World)
			inFlight++
			select {
			case jobs <- h:
			case fin := <-done:
				inFlight--
				reschedule(fin)
				jobs <- h
			case <-ctx.Done():
				inFlight--
				goto shutdown
			}
		case len(pending.ws) > 0:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(pending.ws[0].release))
			select {
			case <-timer.C:
			case fin := <-done:
				inFlight--
				reschedule(fin)
			case <-ctx.Done():
				goto shutdown
			}
		default:
			select {
			case fin := <-done:
				inFlight--
				reschedule(fin)
			case <-ctx.Done():
				goto shutdown
			}
		}
	}
shutdown:
	for inFlight > 0 {
		<-done
		inFlight--
	}
	close(jobs)
	wg.Wait()
	if err := getErr(); err != nil {
		return err
	}
	return ctx.Err()
}
