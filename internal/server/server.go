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
//   - one deadline-aware dispatcher: batch rounds and real-time serving
//     both hand a list of due worlds to the shared worker pool, which
//     claims them in list order; Serve releases each period's worlds as
//     one batch ordered by deadline (ties in registration order) and
//     counts per-world deadline misses and lag;
//   - hibernation: a world idle past its horizon — HibernateAfter ticks,
//     longer for large worlds — is checkpointed out and its engine freed;
//     any access transparently restores it.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
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
	// per world is max(HibernateAfter, ⌈rows/rowsPerIdleTick⌉), so large
	// worlds — whose checkpoint/restore round trip costs more — hibernate
	// later than small ones.
	HibernateAfter int
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

	// Real-time serving state. Serve's loop sets release and deadline
	// between batches: a tick is released at `release` (joins the next
	// batch) and must start by `deadline` = release + the world's period.
	// A timed tick sets done when it finishes; misses and lag are guarded
	// by mu.
	release  time.Time
	deadline time.Time
	done     time.Time
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

	counters counters
}

// counters are stats.ServerCounters as atomics, so a world tick, a miss or
// a hibernation bumps them without taking the server lock.
type counters struct {
	worldsActive, worldsHibernated atomic.Int64
	ticksRun, misses, lagNanos     atomic.Int64
	planHits, planMisses           atomic.Int64
	hibernations, restores         atomic.Int64
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
	s.counters.worldsActive.Add(1)
	if ok {
		s.counters.planHits.Add(1)
	} else {
		s.counters.planMisses.Add(1)
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

// Counters snapshots the server counters. Each field is read atomically on
// its own, so a snapshot taken while worlds tick or hibernate may see one
// field of a pair (a hibernation's gauges, a miss and its lag) move before
// the other.
func (s *Server) Counters() stats.ServerCounters {
	c := &s.counters
	return stats.ServerCounters{
		WorldsActive:       c.worldsActive.Load(),
		WorldsHibernated:   c.worldsHibernated.Load(),
		TicksRun:           c.ticksRun.Load(),
		TickDeadlineMisses: c.misses.Load(),
		TickLagNanos:       c.lagNanos.Load(),
		PlanCacheHits:      c.planHits.Load(),
		PlanCacheMisses:    c.planMisses.Load(),
		Hibernations:       c.hibernations.Load(),
		Restores:           c.restores.Load(),
	}
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
		h.views = views.New(h.eng)
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
	n := &h.srv.counters
	n.hibernations.Add(1)
	n.worldsActive.Add(-1)
	n.worldsHibernated.Add(1)
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
	n := &h.srv.counters
	n.restores.Add(1)
	n.worldsActive.Add(1)
	n.worldsHibernated.Add(-1)
	return nil
}

// rowsLocked counts live objects across classes (the hibernation horizon's
// input).
func (h *World) rowsLocked() int {
	n := 0
	for _, cls := range h.sc.Info.Schema.Classes() {
		n += h.eng.Count(cls.Name)
	}
	return n
}

// tick runs one scheduled world tick and applies the hibernation policy.
// Hibernated worlds are frozen: the scheduler skips them entirely, so a
// woken world resumes exactly where its checkpoint left it. A timed tick
// (Serve) that starts past the world's deadline counts a miss and its lag,
// and every timed tick records when it finished.
func (h *World) tick(timed bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hib != nil {
		return nil
	}
	s := h.srv
	if timed {
		if late := time.Since(h.deadline); late > 0 {
			h.misses++
			h.lag += late
			s.counters.misses.Add(1)
			s.counters.lagNanos.Add(int64(late))
		}
	}
	if err := h.eng.RunTick(); err != nil {
		return fmt.Errorf("server: tick %s: %w", h.ID, err)
	}
	if h.views != nil {
		h.views.Apply(h.sink)
	}
	if timed {
		h.done = time.Now()
	}
	s.counters.ticksRun.Add(1)
	h.idle++
	if after := s.cfg.HibernateAfter; after > 0 {
		rows := h.rowsLocked()
		if h.idle >= max(after, (rows+rowsPerIdleTick-1)/rowsPerIdleTick) {
			return h.hibernateLocked()
		}
	}
	return nil
}

// rowsPerIdleTick sets a large world's hibernation horizon: one idle tick
// per this many rows, where that exceeds HibernateAfter, because its
// checkpoint and restore round trip grows with the rows it copies.
const rowsPerIdleTick = 32

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
		if err := s.tickAll(context.Background(), due, false); err != nil {
			return err
		}
	}
	return nil
}

// tickAll ticks every world of due once and returns the error of the first
// failing world in due's order. The calling goroutine is worker slot 0 and
// up to Workers-1 more join it; each claims the next world by an atomic
// index, so the worlds start in due's order. Workers stop claiming once
// ctx is done, which leaves the rest of due unticked.
func (s *Server) tickAll(ctx context.Context, due []*World, timed bool) error {
	if len(due) == 0 {
		return nil
	}
	workers := min(s.cfg.workers(), len(due))
	// Workers claim increasing indexes, so each worker's first failure is
	// its earliest; the earliest across workers is the first in order.
	type failure struct {
		at  int
		err error
	}
	var next atomic.Int64
	fails := make([]failure, workers)
	work := func(wk int) {
		for ctx.Err() == nil {
			j := int(next.Add(1)) - 1
			if j >= len(due) {
				return
			}
			if err := due[j].tick(timed); err != nil && fails[wk].err == nil {
				fails[wk] = failure{at: j, err: err}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for wk := 1; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			work(wk)
		}()
	}
	work(0)
	wg.Wait()
	first := failure{at: len(due)}
	for _, f := range fails {
		if f.err != nil && f.at < first.at {
			first = f
		}
	}
	return first.err
}

// Serve runs the real-time earliest-deadline-first scheduler until ctx is
// done. A world with divisor Every releases a tick every Every*TickPeriod;
// a released tick must start by its deadline (release + period), and one
// that starts later counts a miss and accumulates the lag. Serve sleeps
// until the earliest release, then ticks every released world as one batch
// through tickAll, ordered by deadline with ties in registration order. A
// world released while a batch runs waits for the next batch. After the
// batch each world's next release is a period after its last one, clamped
// forward to the world's own completion when that was later, so one stall
// does not cascade into a spiral of misses; a hibernated world whose next
// release has passed idles a full period from the batch's end instead, so
// its no-op ticks never spin. Serve wakes at least once a period and
// re-reads the registrations, so a world added while it runs is released
// at the first wake that sees it. On a failure the batch still finishes,
// and Serve returns the error of the first failing world in batch order.
func (s *Server) Serve(ctx context.Context) error {
	period := s.cfg.tickPeriod()
	var worlds []*World // registration order: AddWorld only appends
	timer := time.NewTimer(0)
	defer timer.Stop()
	var batch []*World
	for {
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}

		now := time.Now()
		s.mu.Lock()
		for _, h := range s.order[len(worlds):] {
			h.release = now
			h.deadline = now.Add(time.Duration(h.Every) * period)
			worlds = append(worlds, h)
		}
		s.mu.Unlock()
		batch = batch[:0]
		for _, h := range worlds {
			if !h.release.After(now) {
				batch = append(batch, h)
			}
		}
		slices.SortStableFunc(batch, func(a, b *World) int { return a.deadline.Compare(b.deadline) })
		if err := s.tickAll(ctx, batch, true); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		end := time.Now()
		for _, h := range batch {
			step := time.Duration(h.Every) * period
			r := h.release.Add(step)
			if r.Before(end) && h.Hibernated() {
				r = end.Add(step)
			} else if r.Before(h.done) {
				r = h.done
			}
			h.release = r
			h.deadline = r.Add(step)
		}
		// Wake at the earliest release, and at least once a period to pick
		// up worlds added meanwhile.
		next := now.Add(period)
		for _, h := range worlds {
			if h.release.Before(next) {
				next = h.release
			}
		}
		timer.Reset(time.Until(next))
	}
}
