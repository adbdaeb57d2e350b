package main

import (
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

// single is a one-world workload: a closed loop of frames, each applying
// the frame's client commands, ticking the world and maintaining its
// subscriptions, timed from the first command to the last delta.
type single struct {
	eng *engine.World
	reg *views.Registry // nil without subscriptions

	// commands applies frame k's client commands to the world; nil when the
	// workload has none.
	commands func() error
	// swap replaces a share of the subscriptions before each frame; nil
	// outside arena_spectators.
	swap func(win *window) error

	tr       *tracer // nil when untraced
	frameNo  int64
	tickSpan int // the running engine.tick span, parent of the hook spans

	txns       txn.CountingPolicy // greedy admission plus the commit/abort tally
	deltaBytes int64
	// deltas hashes the delta stream while it is non-nil (the verification
	// frames); afterwards the sink only counts.
	deltas hash.Hash
}

func newSingle(eng *engine.World) *single {
	s := &single{eng: eng, deltas: newHash()}
	eng.SetTxnPolicy(admitHook{s})
	return s
}

// admitHook is the pass-through TxnPolicy: the default greedy admission,
// counted, inside a span.
type admitHook struct{ s *single }

func (h admitHook) Admit(ctx *engine.UpdateCtx, txns []*engine.Txn) error {
	s := h.s
	sp := s.tr.begin("txn.admit", s.tickSpan, s.frameNo)
	err := s.txns.Admit(ctx, txns)
	s.tr.end(sp)
	return err
}

// timedComponent is the pass-through UpdateComponent around physics.
type timedComponent struct {
	engine.UpdateComponent
	s *single
}

func (c timedComponent) Update(ctx *engine.UpdateCtx) error {
	sp := c.s.tr.begin("physics.update", c.s.tickSpan, c.s.frameNo)
	err := c.UpdateComponent.Update(ctx)
	c.s.tr.end(sp)
	return err
}

func (s *single) registerPhysics(class string) error {
	return s.eng.Register(timedComponent{physics.New2D(physics.Config{
		Class: class, XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy", MaxSpeed: 4,
	}), s})
}

func (s *single) sink(d *views.Delta) {
	if s.deltas != nil {
		hashDelta(s.deltas, d)
	}
}

// frame runs one frame. A panic below is recovered and reported as the
// frame's failure: one bad frame must not take the measurement down.
func (s *single) frame() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("frame %d panicked: %v", s.frameNo, r)
		}
	}()
	s.frameNo++
	root := s.tr.begin("frame", -1, s.frameNo)
	if s.commands != nil {
		sp := s.tr.begin("engine.commands", root, s.frameNo)
		err = s.commands()
		s.tr.end(sp)
		if err != nil {
			return err
		}
	}
	s.tickSpan = s.tr.begin("engine.tick", root, s.frameNo)
	var indexBefore int64
	if s.tr != nil {
		indexBefore = s.eng.ExecStats().IndexBuildNanos
	}
	err = s.eng.RunTick()
	s.tr.end(s.tickSpan)
	if s.tr != nil {
		// The engine reports index preparation as a counter, not a span;
		// it runs first in the tick, so the span is placed at the tick's
		// start with the counted length.
		start := s.tr.spans[s.tickSpan].Start
		s.tr.add("index.build", s.tickSpan, s.frameNo, start, start+s.eng.ExecStats().IndexBuildNanos-indexBefore)
	}
	if err != nil {
		return err
	}
	if s.reg != nil {
		sp := s.tr.begin("views.apply", root, s.frameNo)
		s.reg.Apply(s.sink)
		s.tr.end(sp)
		s.deltaBytes += s.reg.DeltaBytes()
	}
	s.tr.end(root)
	return nil
}

func (s *single) step(win *window) error {
	if s.swap != nil {
		if err := s.swap(win); err != nil {
			return err
		}
	}
	return s.frame()
}

func (s *single) advance(n int) error {
	var scratch window
	for i := 0; i < n; i++ {
		if err := s.step(&scratch); err != nil {
			return err
		}
	}
	return nil
}

func (s *single) counters() counters {
	return counters{
		exec:         s.eng.ExecStats(),
		planSwitches: s.eng.PlanSwitches(),
		txnSubmitted: s.txns.Stats.Submitted,
		txnAborted:   s.txns.Stats.Aborted,
		deltaBytes:   s.deltaBytes,
		mallocs:      mallocs(),
	}
}

func (s *single) measure(d time.Duration, tr *tracer) *window {
	s.deltas = nil
	s.tr = tr
	defer func() { s.tr = nil }()
	win := &window{frames: make([]float64, 0, 1<<14), before: s.counters()}
	start := time.Now()
	for time.Since(start) < d {
		if s.swap != nil {
			if err := s.swap(win); err != nil {
				win.fail(err)
			}
		}
		t0 := time.Now()
		err := s.frame()
		win.frames = append(win.frames, ms(time.Since(t0)))
		win.attempted++
		if err != nil {
			win.fail(err)
		}
	}
	win.wall = time.Since(start)
	win.worldTicks = int64(len(win.frames))
	win.after = s.counters()
	return win
}

func (s *single) digest() (string, error) {
	h := newHash()
	if err := hashTables(h, s.eng); err != nil {
		return "", err
	}
	if s.deltas != nil {
		h.Write(s.deltas.Sum(nil))
	}
	return hexSum(h), nil
}

func (s *single) park() []float64 { return nil }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func newWorld(name, src string, c config) (*engine.World, error) {
	sc, err := core.LoadScenario(name, src)
	if err != nil {
		return nil, err
	}
	return sc.NewWorld(c.engineOptions())
}

func buildTraffic(c config) (instance, error) {
	w, err := newWorld("vehicles", core.SrcVehicles, c)
	if err != nil {
		return nil, err
	}
	if err := populateVehicles(w, c.size.Vehicles, c.seed); err != nil {
		return nil, err
	}
	return newSingle(w), nil
}

func buildMarket(c config) (instance, error) {
	w, err := newWorld("market", core.SrcMarket, c)
	if err != nil {
		return nil, err
	}
	if err := populateMarket(w, c.size.MarketPairs); err != nil {
		return nil, err
	}
	return newSingle(w), nil
}

// buildRTS spawns soldiers uniformly at ~12 index candidates per probe (a
// 30×30 box over 75 area units per soldier) with each soldier's waypoint at
// its own position; every frame the command stream sends a share of them to
// a new waypoint within ±100 of home, so the population keeps moving and
// stays uniform.
func buildRTS(c config) (instance, error) {
	w, err := newWorld("rts_skirmish", rtsSkirmish, c)
	if err != nil {
		return nil, err
	}
	s := newSingle(w)
	if err := s.registerPhysics("Soldier"); err != nil {
		return nil, err
	}
	n := c.size.Soldiers
	side := math.Sqrt(float64(n) * 75)
	home := workload.Uniform(n, side, side, c.seed)
	ids, err := core.PopulateSoldiers(w, home)
	if err != nil {
		return nil, err
	}
	waypoint := func(i int, x, y float64) error {
		if err := w.SetState("Soldier", ids[i], "tx", value.Num(x)); err != nil {
			return err
		}
		return w.SetState("Soldier", ids[i], "ty", value.Num(y))
	}
	for i, p := range home {
		if err := waypoint(i, p.X, p.Y); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(c.seed + 1))
	perFrame := max(int(float64(n)*c.size.RetargetShare), 1)
	s.commands = func() error {
		for k := 0; k < perFrame; k++ {
			i := rng.Intn(n)
			x := home[i].X + (rng.Float64()*2-1)*100
			y := home[i].Y + (rng.Float64()*2-1)*100
			if err := waypoint(i, x, y); err != nil {
				return err
			}
		}
		return nil
	}
	return s, nil
}

// buildArena is E21's battle royale plus churn: before every frame a share
// of the spectators leave and as many join with fresh interest boxes, each
// leave+join pair timed apart from the frame.
func buildArena(c config) (instance, error) {
	w, err := newWorld("arena", core.SrcArena, c)
	if err != nil {
		return nil, err
	}
	s := newSingle(w)
	if err := s.registerPhysics("Fighter"); err != nil {
		return nil, err
	}
	if _, err := core.PopulateArena(w, c.size.Fighters, 0.02, 0.05, c.seed); err != nil {
		return nil, err
	}
	s.reg = views.New(w, plan.DefaultCosts())
	side := core.ArenaSide(c.size.Fighters)
	rng := rand.New(rand.NewSource(c.seed + 1))
	ids := make([]views.SubID, c.size.Subs)
	for i := range ids {
		def, err := spectatorDef("Fighter", i, side, rng, c.viewMode())
		if err != nil {
			return nil, err
		}
		sub, err := s.reg.Subscribe(def)
		if err != nil {
			return nil, err
		}
		ids[i] = sub.ID()
	}
	perFrame := max(int(float64(len(ids))*c.size.SwapShare), 1)
	s.swap = func(win *window) error {
		for k := 0; k < perFrame; k++ {
			i := rng.Intn(len(ids))
			def, err := spectatorDef("Fighter", i, side, rng, c.viewMode())
			if err != nil {
				return err
			}
			root := s.tr.begin("swap", -1, s.frameNo)
			sp := s.tr.begin("views.unsubscribe", root, s.frameNo)
			t0 := time.Now()
			s.reg.Unsubscribe(ids[i])
			t1 := time.Now()
			s.tr.end(sp)
			sp = s.tr.begin("views.subscribe", root, s.frameNo)
			sub, err := s.reg.Subscribe(def)
			t2 := time.Now()
			s.tr.end(sp)
			s.tr.end(root)
			win.attempted++
			if err != nil {
				return err
			}
			ids[i] = sub.ID()
			win.unsubUs = append(win.unsubUs, us(t1.Sub(t0)))
			win.subUs = append(win.subUs, us(t2.Sub(t1)))
			win.subPairUs = append(win.subPairUs, us(t2.Sub(t0)))
		}
		return nil
	}
	return s, nil
}
