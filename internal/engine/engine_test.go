package engine

import (
	"errors"
	"testing"

	"repro/internal/compile"
	"repro/internal/plan"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

func loadProg(t *testing.T, src string) *compile.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func newWorld(t *testing.T, src string, opts Options) *World {
	t.Helper()
	w, err := New(loadProg(t, src), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return w
}

const counterSrc = `
class C {
  state:
    number n = 0;
    number k = 2;
  effects:
    number dn : sum;
  update:
    n = n + dn;
  run {
    dn <- k;
  }
}
`

func TestBasicTickCycle(t *testing.T) {
	w := newWorld(t, counterSrc, Options{})
	id, err := w.Spawn("C", map[string]value.Value{"k": value.Num(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("C", id, "n").AsNumber(); got != 15 {
		t.Fatalf("n = %v, want 15", got)
	}
	if w.Tick() != 5 {
		t.Errorf("Tick = %d", w.Tick())
	}
}

func TestSpawnValidation(t *testing.T) {
	w := newWorld(t, counterSrc, Options{})
	if _, err := w.Spawn("Nope", nil); err == nil {
		t.Error("unknown class must error")
	}
	if _, err := w.Spawn("C", map[string]value.Value{"bogus": value.Num(1)}); err == nil {
		t.Error("unknown attribute must error")
	}
}

func TestKillAndMidTickDefer(t *testing.T) {
	w := newWorld(t, counterSrc, Options{})
	a, _ := w.Spawn("C", nil)
	b, _ := w.Spawn("C", nil)
	if err := w.Kill("C", a); err != nil {
		t.Fatal(err)
	}
	if w.Count("C") != 1 {
		t.Fatalf("Count = %d", w.Count("C"))
	}
	// Spawn during a tick (via inspector) must defer to the boundary.
	var midCount int
	w.AddInspector(inspectFn{start: func(w *World, tick int64) {
		if tick == 0 {
			w.Spawn("C", nil)
			midCount = w.Count("C")
		}
	}})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if midCount != 1 {
		t.Errorf("mid-tick spawn applied immediately (count %d)", midCount)
	}
	if w.Count("C") != 2 {
		t.Errorf("after tick: count = %d", w.Count("C"))
	}
	_ = b
}

type inspectFn struct {
	start func(*World, int64)
	end   func(*World, int64)
}

func (f inspectFn) TickStart(w *World, tick int64) {
	if f.start != nil {
		f.start(w, tick)
	}
}
func (f inspectFn) TickEnd(w *World, tick int64) {
	if f.end != nil {
		f.end(w, tick)
	}
}

func TestSetStateOutsideTickOnly(t *testing.T) {
	w := newWorld(t, counterSrc, Options{})
	id, _ := w.Spawn("C", nil)
	if err := w.SetState("C", id, "n", value.Num(42)); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("C", id, "n").AsNumber(); got != 42 {
		t.Fatal("SetState did not apply")
	}
	w.AddInspector(inspectFn{start: func(w *World, tick int64) {
		if err := w.SetState("C", id, "n", value.Num(0)); err == nil {
			t.Error("SetState during a tick must error")
		}
	}})
	w.RunTick()
}

const ownedSrc = `
class P {
  state:
    number x = 0 by mover;
    number hp = 10;
  effects:
    number dx : sum;
}
`

type mover struct{ name string }

func (m mover) Name() string { return m.name }
func (m mover) Update(ctx *UpdateCtx) error {
	for _, id := range ctx.IDs("P") {
		x, _ := ctx.State("P", id, "x")
		dx := 0.0
		if v, ok := ctx.Effect("P", id, "dx"); ok {
			dx = v.AsNumber()
		}
		if err := ctx.Stage("P", id, "x", value.Num(x.AsNumber()+dx+1)); err != nil {
			return err
		}
	}
	return nil
}

func TestOwnerComponent(t *testing.T) {
	w := newWorld(t, ownedSrc, Options{})
	if err := w.RunTick(); err == nil {
		t.Fatal("ticking with a missing owner component must error")
	}
	if err := w.Register(mover{name: "mover"}); err != nil {
		t.Fatal(err)
	}
	id, _ := w.Spawn("P", nil)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("P", id, "x").AsNumber(); got != 3 {
		t.Fatalf("x = %v, want 3", got)
	}
}

type rogue struct{}

func (rogue) Name() string { return "rogue" }
func (rogue) Update(ctx *UpdateCtx) error {
	id := ctx.IDs("P")[0]
	return ctx.Stage("P", id, "hp", value.Num(0)) // hp is not owned by rogue
}

func TestOwnershipPartitionEnforced(t *testing.T) {
	w := newWorld(t, ownedSrc, Options{})
	if err := w.Register(mover{name: "mover"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(rogue{}); err != nil {
		t.Fatal(err)
	}
	w.Spawn("P", nil)
	err := w.RunTick()
	if err == nil {
		t.Fatal("staging an unowned attribute must fail the tick")
	}
}

const twoOwnerSrc = `
class P {
  state:
    number a = 0 by first;
    number b = 0 by second;
}
`

// scripted is a component whose behavior the test switches between ticks.
type scripted struct {
	name   string
	update func(ctx *UpdateCtx) error
}

func (s *scripted) Name() string                { return s.name }
func (s *scripted) Update(ctx *UpdateCtx) error { return s.update(ctx) }

// TestFailedUpdateStepLeavesNoStaging pins the staging lifetime: values a
// component staged in a tick whose update step then failed must not apply in
// a later tick in which nobody staged them.
func TestFailedUpdateStepLeavesNoStaging(t *testing.T) {
	w := newWorld(t, twoOwnerSrc, Options{})
	id, _ := w.Spawn("P", nil)
	first := &scripted{name: "first", update: func(ctx *UpdateCtx) error {
		return ctx.Stage("P", id, "a", value.Num(5))
	}}
	second := &scripted{name: "second", update: func(*UpdateCtx) error {
		return errors.New("boom")
	}}
	for _, c := range []UpdateComponent{first, second} {
		if err := w.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RunTick(); err == nil {
		t.Fatal("a failing component must fail the tick")
	}
	idle := func(*UpdateCtx) error { return nil }
	first.update, second.update = idle, idle
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("P", id, "a").AsNumber(); got != 0 {
		t.Fatalf("a = %v: the failed tick's staged write applied a tick later", got)
	}
}

func TestDuplicateComponentRejected(t *testing.T) {
	w := newWorld(t, ownedSrc, Options{})
	if err := w.Register(mover{name: "mover"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(mover{name: "mover"}); err == nil {
		t.Fatal("duplicate component must be rejected")
	}
}

const multiPhaseSrc = `
class B {
  state:
    number a = 0;
  effects:
    number da : sum;
  update:
    a = a + da;
  run {
    da <- 1;
    waitNextTick;
    da <- 10;
  }
}
`

func TestInterruptsResetPC(t *testing.T) {
	w := newWorld(t, multiPhaseSrc, Options{})
	id, _ := w.Spawn("B", nil)
	// Interrupt back to phase 0 whenever a >= 11 (i.e. after one full cycle).
	err := w.RegisterInterrupt("B", func(w *World, id value.ID) bool {
		return w.MustGet("B", id, "a").AsNumber() >= 11
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterInterrupt("Nope", nil, 0); err == nil {
		t.Error("unknown class must error")
	}
	if err := w.RegisterInterrupt("B", nil, 5); err == nil {
		t.Error("out-of-range phase must error")
	}
	// tick1: phase0 (+1, a=1, pc->1); tick2: phase1 (+10, a=11, pc->0,
	// interrupt also targets 0); tick3: phase0 again (+1, a=12), and the
	// interrupt pins pc back to 0 since a stays >= 11.
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("B", id, "a").AsNumber(); got != 12 {
		t.Fatalf("a = %v, want 12", got)
	}
	if w.PC("B", id) != 0 {
		t.Fatalf("pc = %d, want 0 (interrupt keeps firing)", w.PC("B", id))
	}
}

func TestSetPC(t *testing.T) {
	w := newWorld(t, multiPhaseSrc, Options{})
	id, _ := w.Spawn("B", nil)
	if err := w.SetPC("B", id, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.RunTick(); err != nil { // runs phase 1: +10
		t.Fatal(err)
	}
	if got := w.MustGet("B", id, "a").AsNumber(); got != 10 {
		t.Fatalf("a = %v, want 10", got)
	}
	if err := w.SetPC("B", id, 9); err == nil {
		t.Error("phase out of range must error")
	}
}

func TestCheckpointRestore(t *testing.T) {
	w := newWorld(t, counterSrc, Options{})
	id, _ := w.Spawn("C", nil)
	w.Run(3)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4)
	after := w.MustGet("C", id, "n").AsNumber()
	if err := w.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := w.MustGet("C", id, "n").AsNumber(); got != 6 {
		t.Fatalf("restored n = %v, want 6", got)
	}
	if w.Tick() != 3 {
		t.Fatalf("restored tick = %d", w.Tick())
	}
	// Replay after restore reproduces the original trajectory.
	w.Run(4)
	if got := w.MustGet("C", id, "n").AsNumber(); got != after {
		t.Fatalf("replay diverged: %v vs %v", got, after)
	}
}

const traceSrc = `
class T {
  state:
    ref<T> other = null;
  effects:
    number hit : sum;
  run {
    if (other != null) {
      other.hit <- 1;
    }
  }
}
`

func TestTracer(t *testing.T) {
	w := newWorld(t, traceSrc, Options{})
	a, _ := w.Spawn("T", nil)
	b, _ := w.Spawn("T", map[string]value.Value{"other": value.Ref(a)})
	var events int
	var lastDst value.ID
	w.SetTracer(func(tick int64, srcClass string, src value.ID, dstClass string, dst value.ID, attr string, v value.Value) {
		events++
		lastDst = dst
		if attr != "hit" {
			t.Errorf("attr = %q", attr)
		}
	})
	w.RunTick()
	if events != 1 || lastDst != a {
		t.Fatalf("events=%d dst=%d", events, lastDst)
	}
	_ = b
}

func TestEmissionToDeadTargetDropped(t *testing.T) {
	w := newWorld(t, traceSrc, Options{})
	a, _ := w.Spawn("T", nil)
	b, _ := w.Spawn("T", map[string]value.Value{"other": value.Ref(a)})
	w.Kill("T", a)
	if err := w.RunTick(); err != nil {
		t.Fatalf("dangling emission must not fail the tick: %v", err)
	}
	_ = b
}

func TestForcedStrategiesAgree(t *testing.T) {
	src := `
class U {
  state:
    number x = 0;
    number seen = 0;
  effects:
    number s : sum;
  update:
    seen = s;
  run {
    accum number cnt with sum over U u from U {
      if (u.x >= x - 3 && u.x <= x + 3) {
        cnt <- 1;
      }
    } in {
      s <- cnt;
    }
  }
}
`
	var results []float64
	for _, strat := range []plan.Strategy{plan.NestedLoop, plan.RangeTreeIndex, plan.Auto} {
		w := newWorld(t, src, Options{Strategy: strat})
		var ids []value.ID
		for i := 0; i < 30; i++ {
			id, _ := w.Spawn("U", map[string]value.Value{"x": value.Num(float64(i % 10))})
			ids = append(ids, id)
		}
		if err := w.Run(2); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, id := range ids {
			sum += w.MustGet("U", id, "seen").AsNumber()
		}
		results = append(results, sum)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("strategies disagree: %v", results)
	}
	if results[0] == 0 {
		t.Fatal("no matches counted")
	}
}
