package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/value"
	"repro/internal/workload"
)

// E3 exercises the update-component model (§2.2): k units converge on one
// point; the physics component integrates conflicting intentions and
// separates collisions. We report tick cost and residual overlap.
func E3(colliders []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "physics update component under contention (ms/tick)",
		Header: []string{"colliders", "ms/tick", "separations/tick", "min pair dist"},
		Notes:  "all units target the same point; physics owns x,y and resolves overlap (§2.2)",
	}
	sc, err := core.LoadScenario("rts", core.SrcRTS)
	if err != nil {
		return t, err
	}
	for _, k := range colliders {
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		ph := physics.New2D(physics.Config{
			Class: "Soldier", XAttr: "x", YAttr: "y",
			VXEffect: "vx", VYEffect: "vy",
			Radius: 1, MaxSpeed: 3,
		})
		if err := w.Register(ph); err != nil {
			return t, err
		}
		// Ring of same-player units all heading for the center: nobody
		// fights (same player), everybody collides.
		ps := workload.Clustered(k, 1, 40, 200, 200, int64(k))
		ids := make([]value.ID, 0, k)
		for _, p := range ps {
			id, err := w.Spawn("Soldier", map[string]value.Value{
				"player": value.Str("red"),
				"x":      value.Num(p.X), "y": value.Num(p.Y),
				"tx": value.Num(100), "ty": value.Num(100),
			})
			if err != nil {
				return t, err
			}
			ids = append(ids, id)
		}
		d, err := tickTime(w.RunTick, ticks)
		if err != nil {
			return t, err
		}
		minD := minPairDist(w, ids)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), ms(d),
			fmt.Sprintf("%.0f", float64(ph.Collisions)/float64(ticks)),
			fmt.Sprintf("%.2f", minD),
		})
	}
	return t, nil
}

func minPairDist(w *engine.World, ids []value.ID) float64 {
	min := 1e18
	type pt struct{ x, y float64 }
	pts := make([]pt, len(ids))
	for i, id := range ids {
		pts[i] = pt{
			w.MustGet("Soldier", id, "x").AsNumber(),
			w.MustGet("Soldier", id, "y").AsNumber(),
		}
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			if d := dx*dx + dy*dy; d < min {
				min = d
			}
		}
	}
	if len(pts) < 2 {
		return 0
	}
	return math.Sqrt(min)
}

// srcHandMachine is the Guard script with the waitNextTick sugar manually
// lowered to an explicit step state machine — the "direct translation" of
// §3.2. E5 checks the compiler's lowering costs nothing against it.
const srcHandMachine = `
class Guard {
  state:
    number x = 0;
    number y = 0;
    number px = 0;
    number py = 0;
    number health = 100;
    number fleeing = 0;
    number items = 0;
    number step = 0;
    ref<Guard> foe = null;
  effects:
    number dx : avg;
    number dy : avg;
    number damage : sum;
    number pickup : sum;
    number flee : max;
    number dstep : max;
  update:
    x = x + dx;
    y = y + dy;
    health = health - damage;
    items = items + pickup;
    fleeing = flee;
    step = dstep;
  handlers:
    when (health < 30) {
      flee <- 1;
    }
  run {
    if (step == 0) {
      dx <- (px - x) * 0.5;
      dy <- (py - y) * 0.5;
      dstep <- 1;
    }
    if (step == 1) {
      pickup <- 1;
      dstep <- 2;
    }
    if (step == 2) {
      if (foe != null) {
        foe.damage <- 5;
      }
      dstep <- 0;
    }
  }
}
`

// E5 compares the waitNextTick sugar (§3.2) against the hand-written state
// machine it lowers to: same behaviour, comparable cost.
func E5(n, ticks int) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  fmt.Sprintf("multi-tick lowering vs hand-written state machine (n=%d, ms/tick)", n),
		Header: []string{"variant", "ms/tick", "items after 3 cycles"},
		Notes:  "waitNextTick stores the program counter in a hidden pc column; the hand version burns a visible state attribute and an extra effect",
	}
	for _, variant := range []struct{ name, src string }{
		{"waitNextTick sugar", core.SrcGuard},
		{"hand state machine", srcHandMachine},
	} {
		sc, err := core.LoadScenario(variant.name, variant.src)
		if err != nil {
			return t, err
		}
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		ids := make([]value.ID, 0, n)
		for i := 0; i < n; i++ {
			id, err := w.Spawn("Guard", map[string]value.Value{
				"px": value.Num(float64(i % 50)), "py": value.Num(float64(i % 31)),
			})
			if err != nil {
				return t, err
			}
			ids = append(ids, id)
		}
		d, err := tickTime(w.RunTick, ticks)
		if err != nil {
			return t, err
		}
		items := w.MustGet("Guard", ids[0], "items").AsNumber()
		t.Rows = append(t.Rows, []string{variant.name, ms(d), fmt.Sprintf("%.0f", items)})
	}
	return t, nil
}

// srcInlineGuard replaces the reactive handler with an inline conditional
// prologue in every phase — the rewrite §3.2 says handlers are sugar for.
const srcInlineGuard = `
class Guard {
  state:
    number health = 100;
    number fleeing = 0;
  effects:
    number damage : sum;
    number flee : max;
  update:
    health = health - damage;
    fleeing = flee;
  run {
    if (health < 30) {
      flee <- 1;
    }
    damage <- 0.5;
  }
}
`

// srcHandlerGuard uses the reactive handler form.
const srcHandlerGuard = `
class Guard {
  state:
    number health = 100;
    number fleeing = 0;
  effects:
    number damage : sum;
    number flee : max;
  update:
    health = health - damage;
    fleeing = flee;
  handlers:
    when (health < 30) {
      flee <- 1;
    }
  run {
    damage <- 0.5;
  }
}
`

// E6 compares reactive handlers against the inline-conditional rewrite
// (§3.2: the simplest handler model "would simply be syntactic sugar").
// The two differ by one tick of latency by design (handlers observe
// post-update state); the cost must be comparable. The handler-rows column
// counts condition evaluations per tick (warmup included): one linear pass
// over the guards, the same work the inline prologue does.
func E6(n, ticks int) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("reactive handlers vs inline conditional prologue (n=%d, ms/tick)", n),
		Header: []string{"variant", "ms/tick", "fleeing count", "handler rows/tick"},
	}
	for _, variant := range []struct{ name, src string }{
		{"inline conditionals", srcInlineGuard},
		{"reactive handlers", srcHandlerGuard},
	} {
		sc, err := core.LoadScenario(variant.name, variant.src)
		if err != nil {
			return t, err
		}
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		for i := 0; i < n; i++ {
			if _, err := w.Spawn("Guard", nil); err != nil {
				return t, err
			}
		}
		d, err := tickTime(w.RunTick, ticks)
		if err != nil {
			return t, err
		}
		fleeing := 0
		for _, id := range w.IDs("Guard") {
			if w.MustGet("Guard", id, "fleeing").AsNumber() > 0 {
				fleeing++
			}
		}
		perTick := w.ExecStats().HandlerRows / int64(ticks+1)
		t.Rows = append(t.Rows, []string{variant.name, ms(d), fmt.Sprint(fleeing), fmt.Sprint(perTick)})
	}
	return t, nil
}

// ElapsedString formats a duration for reports.
func ElapsedString(d time.Duration) string { return d.Round(time.Millisecond).String() }
