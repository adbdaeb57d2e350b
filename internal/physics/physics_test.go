package physics_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

const src = `
class Ball {
  state:
    number x = 0 by physics;
    number y = 0 by physics;
    number gx = 0;
    number gy = 0;
  effects:
    number vx : avg;
    number vy : avg;
  run {
    vx <- (gx - x) * 0.5;
    vy <- (gy - y) * 0.5;
  }
}
`

func world(t *testing.T, cfg physics.Config) (*engine.World, *physics.Physics) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatal(err)
	}
	w, err := engine.New(prog, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class == "" {
		cfg = physics.Config{Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy"}
	}
	ph := physics.New2D(cfg)
	if err := w.Register(ph); err != nil {
		t.Fatal(err)
	}
	return w, ph
}

func TestIntegration(t *testing.T) {
	w, _ := world(t, physics.Config{})
	id, _ := w.Spawn("Ball", map[string]value.Value{"gx": value.Num(10), "gy": value.Num(0)})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	// vx = (10-0)*0.5 = 5 → x = 5.
	if got := w.MustGet("Ball", id, "x").AsNumber(); got != 5 {
		t.Fatalf("x = %v, want 5", got)
	}
	// Converges to the goal over ticks.
	w.Run(20)
	if got := w.MustGet("Ball", id, "x").AsNumber(); math.Abs(got-10) > 0.1 {
		t.Fatalf("x = %v, want ~10", got)
	}
}

func TestNoIntentionNoMovement(t *testing.T) {
	w, _ := world(t, physics.Config{})
	id, _ := w.Spawn("Ball", map[string]value.Value{"gx": value.Num(0), "gy": value.Num(0)})
	w.SetState("Ball", id, "x", value.Num(0))
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	// Intention is (0-0)*0.5 = 0: stays put.
	if got := w.MustGet("Ball", id, "x").AsNumber(); got != 0 {
		t.Fatalf("x = %v, want 0", got)
	}
}

func TestConflictingIntentionsSeparate(t *testing.T) {
	// Two balls aiming at the same spot: the physics engine must place
	// them at adjacent positions (§2.2's motivating example).
	w, ph := world(t, physics.Config{
		Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
		Radius: 1, Iterations: 8,
	})
	a, _ := w.Spawn("Ball", map[string]value.Value{
		"x": value.Num(0), "gx": value.Num(5), "gy": value.Num(0),
	})
	b, _ := w.Spawn("Ball", map[string]value.Value{
		"x": value.Num(10), "gx": value.Num(5), "gy": value.Num(0),
	})
	if err := w.Run(12); err != nil {
		t.Fatal(err)
	}
	ax := w.MustGet("Ball", a, "x").AsNumber()
	bx := w.MustGet("Ball", b, "x").AsNumber()
	ay := w.MustGet("Ball", a, "y").AsNumber()
	by := w.MustGet("Ball", b, "y").AsNumber()
	d := math.Hypot(ax-bx, ay-by)
	if d < 1.9 { // 2*radius with small tolerance
		t.Fatalf("balls overlap: dist = %v (a=%v,%v b=%v,%v)", d, ax, ay, bx, by)
	}
	if ph.Collisions == 0 {
		t.Error("no collisions recorded despite contention")
	}
}

func TestBoundsClamp(t *testing.T) {
	w, _ := world(t, physics.Config{
		Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8},
	})
	id, _ := w.Spawn("Ball", map[string]value.Value{"gx": value.Num(100), "gy": value.Num(100)})
	w.Run(10)
	x := w.MustGet("Ball", id, "x").AsNumber()
	y := w.MustGet("Ball", id, "y").AsNumber()
	if x > 8 || y > 8 {
		t.Fatalf("escaped bounds: %v,%v", x, y)
	}
}

func TestMaxSpeed(t *testing.T) {
	w, _ := world(t, physics.Config{
		Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
		MaxSpeed: 1,
	})
	id, _ := w.Spawn("Ball", map[string]value.Value{"gx": value.Num(1000)})
	w.RunTick()
	if got := w.MustGet("Ball", id, "x").AsNumber(); got > 1.0001 {
		t.Fatalf("x = %v, speed not clamped", got)
	}
}

func TestSamePointDeterministicSeparation(t *testing.T) {
	w, _ := world(t, physics.Config{
		Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
		Radius: 1,
	})
	// Both at the exact same point with no movement intention.
	a, _ := w.Spawn("Ball", map[string]value.Value{"x": value.Num(5), "y": value.Num(5), "gx": value.Num(5), "gy": value.Num(5)})
	b, _ := w.Spawn("Ball", map[string]value.Value{"x": value.Num(5), "y": value.Num(5), "gx": value.Num(5), "gy": value.Num(5)})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	ax := w.MustGet("Ball", a, "x").AsNumber()
	bx := w.MustGet("Ball", b, "x").AsNumber()
	if ax == bx {
		t.Fatal("coincident balls not separated")
	}
	if ax >= bx {
		t.Fatalf("separation not deterministic by id: a=%v b=%v", ax, bx)
	}
}

// cellPhysics is the per-cell physics component the column loop replaced,
// kept as the differential oracle: it reads and stages every cell by class
// and attribute name and sorts with sort.SliceStable.
type cellPhysics struct {
	cfg        physics.Config
	Collisions int64
}

func (p *cellPhysics) Name() string { return "physics" }

type cellBody struct {
	id   value.ID
	x, y float64
}

func (p *cellPhysics) Update(ctx *engine.UpdateCtx) error {
	cfg := p.cfg
	ids := ctx.IDs(cfg.Class)
	bodies := make([]cellBody, 0, len(ids))
	for _, id := range ids {
		xv, ok := ctx.State(cfg.Class, id, cfg.XAttr)
		if !ok {
			return fmt.Errorf("physics: missing %s.%s", cfg.Class, cfg.XAttr)
		}
		yv, _ := ctx.State(cfg.Class, id, cfg.YAttr)
		x, y := xv.AsNumber(), yv.AsNumber()
		var vx, vy float64
		if v, ok := ctx.Effect(cfg.Class, id, cfg.VXEffect); ok {
			vx = v.AsNumber()
		}
		if v, ok := ctx.Effect(cfg.Class, id, cfg.VYEffect); ok {
			vy = v.AsNumber()
		}
		if cfg.MaxSpeed > 0 {
			if sp := math.Hypot(vx, vy); sp > cfg.MaxSpeed {
				s := cfg.MaxSpeed / sp
				vx, vy = vx*s, vy*s
			}
		}
		bodies = append(bodies, cellBody{id: id, x: x + vx*cfg.Dt, y: y + vy*cfg.Dt})
	}
	if cfg.Radius > 0 {
		p.resolve(bodies)
	}
	if cfg.Bounds != nil {
		for i := range bodies {
			bodies[i].x = math.Min(math.Max(bodies[i].x, cfg.Bounds.MinX), cfg.Bounds.MaxX)
			bodies[i].y = math.Min(math.Max(bodies[i].y, cfg.Bounds.MinY), cfg.Bounds.MaxY)
		}
	}
	for _, b := range bodies {
		if err := ctx.Stage(cfg.Class, b.id, cfg.XAttr, value.Num(b.x)); err != nil {
			return err
		}
		if err := ctx.Stage(cfg.Class, b.id, cfg.YAttr, value.Num(b.y)); err != nil {
			return err
		}
	}
	return nil
}

func (p *cellPhysics) resolve(bodies []cellBody) {
	r2 := 2 * p.cfg.Radius
	idx := make([]int, len(bodies))
	for it := 0; it < p.cfg.Iterations; it++ {
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return bodies[idx[a]].x < bodies[idx[b]].x })
		moved := false
		for ii := 0; ii < len(idx); ii++ {
			i := idx[ii]
			for jj := ii + 1; jj < len(idx); jj++ {
				j := idx[jj]
				if bodies[j].x-bodies[i].x > r2 {
					break
				}
				dx := bodies[j].x - bodies[i].x
				dy := bodies[j].y - bodies[i].y
				d := math.Hypot(dx, dy)
				if d >= r2 {
					continue
				}
				p.Collisions++
				moved = true
				var nx, ny float64
				if d > 1e-9 {
					nx, ny = dx/d, dy/d
				} else {
					if bodies[i].id < bodies[j].id {
						nx, ny = 1, 0
					} else {
						nx, ny = -1, 0
					}
					d = 0
				}
				push := (r2 - d) / 2
				bodies[i].x -= nx * push
				bodies[i].y -= ny * push
				bodies[j].x += nx * push
				bodies[j].y += ny * push
			}
		}
		if !moved {
			break
		}
	}
}

// diffSrc leaves idle balls without any velocity contribution and combines
// vx with avg (a filled payload vector) and vy with sum (the fold column
// itself), so both of ClassCols.Effect's sources are exercised.
const diffSrc = `
class Ball {
  state:
    number x = 0 by physics;
    number y = 0 by physics;
    number gx = 0;
    number gy = 0;
    number idle = 0;
  effects:
    number vx : avg;
    number vy : sum;
  run {
    if (idle == 0) {
      vx <- (gx - x) * 0.5;
      vy <- (gy - y) * 0.5;
    }
  }
}
`

func diffWorld(t *testing.T, opts engine.Options, c engine.UpdateComponent) *engine.World {
	t.Helper()
	p, err := parser.Parse(diffSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatal(err)
	}
	w, err := engine.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Register(c); err != nil {
		t.Fatal(err)
	}
	w.EnableChangeFeed()
	return w
}

// feed drains a world's changefeed into one comparable string.
func feed(w *engine.World) string {
	var b strings.Builder
	w.DrainChangeFeed(func(d engine.ClassDelta) {
		fmt.Fprintf(&b, "%s rows=%v killed=%v resync=%v;", d.Class, d.Rows, d.Killed, d.Resync)
	})
	return b.String()
}

// TestColumnLoopMatchesCellOracle runs the column-loop component and the
// per-cell oracle side by side on random worlds — killed rows, spawns into
// freed rows, coincident spawns, idle balls, collisions, bounds and a speed
// clamp — and requires bit-identical positions, equal collision counts and
// identical changefeeds after every tick.
func TestColumnLoopMatchesCellOracle(t *testing.T) {
	configs := []physics.Config{
		{Radius: 1.5, Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, MaxSpeed: 3},
		{Radius: 0.75, Iterations: 8},
		{Bounds: &physics.Rect{MinX: 5, MinY: 5, MaxX: 30, MaxY: 30}, MaxSpeed: 2, Dt: 0.5},
	}
	for ci, cfg := range configs {
		cfg.Class, cfg.XAttr, cfg.YAttr, cfg.VXEffect, cfg.VYEffect = "Ball", "x", "y", "vx", "vy"
		for _, workers := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cfg%d/workers=%d/seed=%d", ci, workers, seed), func(t *testing.T) {
					col := physics.New2D(cfg)
					oracle := &cellPhysics{cfg: cfg}
					if oracle.cfg.Dt == 0 {
						oracle.cfg.Dt = 1
					}
					if oracle.cfg.Iterations == 0 {
						oracle.cfg.Iterations = 4
					}
					opts := engine.Options{Workers: workers}
					worlds := []*engine.World{diffWorld(t, opts, col), diffWorld(t, opts, oracle)}
					rng := rand.New(rand.NewSource(seed))
					var live []value.ID
					spawn := func(x, y float64) {
						init := map[string]value.Value{
							"x": value.Num(x), "y": value.Num(y),
							"gx": value.Num(rng.Float64() * 40), "gy": value.Num(rng.Float64() * 40),
							"idle": value.Num(float64(rng.Intn(4) / 3)),
						}
						var id value.ID
						for i, w := range worlds {
							got, err := w.Spawn("Ball", init)
							if err != nil {
								t.Fatal(err)
							}
							if i > 0 && got != id {
								t.Fatalf("spawn ids diverged: %d vs %d", id, got)
							}
							id = got
						}
						live = append(live, id)
					}
					for i := 0; i < 150; i++ {
						spawn(rng.Float64()*40, rng.Float64()*40)
					}
					for tick := 0; tick < 12; tick++ {
						// Kill a few, then spawn into the freed rows — two of
						// them onto one point.
						for k := 0; k < 3; k++ {
							j := rng.Intn(len(live))
							for _, w := range worlds {
								if err := w.Kill("Ball", live[j]); err != nil {
									t.Fatal(err)
								}
							}
							live = append(live[:j], live[j+1:]...)
						}
						px, py := rng.Float64()*40, rng.Float64()*40
						spawn(px, py)
						spawn(px, py)
						spawn(rng.Float64()*40, rng.Float64()*40)
						for _, w := range worlds {
							if err := w.RunTick(); err != nil {
								t.Fatal(err)
							}
						}
						for _, id := range live {
							for _, attr := range []string{"x", "y"} {
								a := worlds[0].MustGet("Ball", id, attr).AsNumber()
								b := worlds[1].MustGet("Ball", id, attr).AsNumber()
								if math.Float64bits(a) != math.Float64bits(b) {
									t.Fatalf("tick %d ball %d %s: column %v, oracle %v", tick, id, attr, a, b)
								}
							}
						}
						if col.Collisions != oracle.Collisions {
							t.Fatalf("tick %d: collisions column %d, oracle %d", tick, col.Collisions, oracle.Collisions)
						}
						if a, b := feed(worlds[0]), feed(worlds[1]); a != b {
							t.Fatalf("tick %d changefeed:\ncolumn %s\noracle %s", tick, a, b)
						}
					}
					if cfg.Radius > 0 && col.Collisions == 0 {
						t.Fatal("no collisions: the resolve path went untested")
					}
				})
			}
		}
	}
}
