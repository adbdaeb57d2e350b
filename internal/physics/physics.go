// Package physics is the dedicated physics update component of §2.2: a
// non-scripted subsystem that owns position attributes, integrates the
// velocity intentions scripts emit as effects, detects collisions and
// separates overlapping objects. Its output deliberately need not match any
// single script's intention — when two characters move to the same spot it
// places them at adjacent positions, exactly the behaviour the paper uses
// to motivate broadened update rules.
package physics

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/value"
)

// Rect is an axis-aligned world boundary.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Config configures a 2-D physics component for one class.
type Config struct {
	// Class is the class whose position this component owns.
	Class string
	// XAttr, YAttr are the owned state attributes (declare them
	// `by physics` in the class).
	XAttr, YAttr string
	// VXEffect, VYEffect are the effect attributes carrying intended
	// velocity (typically declared with the avg combinator). Objects with
	// no contribution this tick do not move.
	VXEffect, VYEffect string
	// Dt is the integration step per tick (default 1).
	Dt float64
	// Radius is the collision radius; 0 disables collision resolution.
	Radius float64
	// Bounds, when non-nil, clamps positions.
	Bounds *Rect
	// Iterations is the number of separation passes (default 4).
	Iterations int
	// MaxSpeed, when positive, clamps intended velocity magnitude.
	MaxSpeed float64
}

// Physics implements engine.UpdateComponent.
type Physics struct {
	cfg Config
	// Collisions counts separations performed on the last tick (observable
	// for tests and the contention experiment E3).
	Collisions int64

	bodies []body // collision scratch, reused across ticks
	idx    []int32
}

// New2D builds the component. Register it on a world whose class declares
// XAttr/YAttr `by physics`.
func New2D(cfg Config) *Physics {
	if cfg.Dt == 0 {
		cfg.Dt = 1
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 4
	}
	return &Physics{cfg: cfg}
}

// Name implements engine.UpdateComponent.
func (p *Physics) Name() string { return "physics" }

type body struct {
	id   value.ID
	row  int32
	x, y float64
}

// Update implements engine.UpdateComponent as one loop over the class's live
// rows: integrate intentions, clamp to bounds and write the owned columns.
// With a collision radius the integrated positions go through resolve
// first, in storage order.
func (p *Physics) Update(ctx *engine.UpdateCtx) error {
	cfg := p.cfg
	c, err := ctx.Class(cfg.Class)
	if err != nil {
		return fmt.Errorf("physics: %w", err)
	}
	x, err1 := c.State(cfg.XAttr)
	y, err2 := c.State(cfg.YAttr)
	vxs, err3 := c.Effect(cfg.VXEffect)
	vys, err4 := c.Effect(cfg.VYEffect)
	nx, err5 := c.Stage(cfg.XAttr)
	ny, err6 := c.Stage(cfg.YAttr)
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		return fmt.Errorf("physics: %w", err)
	}
	collide := cfg.Radius > 0
	p.bodies = p.bodies[:0]
	ids := c.IDs()
	for r, ok := range c.Alive() {
		if !ok {
			continue
		}
		vx, vy := vxs[r], vys[r]
		if cfg.MaxSpeed > 0 {
			if sp := math.Hypot(vx, vy); sp > cfg.MaxSpeed {
				s := cfg.MaxSpeed / sp
				vx, vy = vx*s, vy*s
			}
		}
		b := body{id: ids[r], row: int32(r), x: x[r] + float64(vx*cfg.Dt), y: y[r] + float64(vy*cfg.Dt)} // rounded: no FMA
		if collide {
			p.bodies = append(p.bodies, b)
			continue
		}
		nx[r], ny[r] = p.clamp(b)
	}
	if collide {
		p.resolve(p.bodies)
		for _, b := range p.bodies {
			nx[b.row], ny[b.row] = p.clamp(b)
		}
	}
	return nil
}

// clamp returns b's position clamped to the bounds, if any.
func (p *Physics) clamp(b body) (x, y float64) {
	if bd := p.cfg.Bounds; bd != nil {
		return value.Min(value.Max(b.x, bd.MinX), bd.MaxX), value.Min(value.Max(b.y, bd.MinY), bd.MaxY)
	}
	return b.x, b.y
}

// resolve separates overlapping bodies with a sweep-and-prune pass over x,
// iterated a fixed number of times. Deterministic: bodies are processed in
// sorted order and pushed apart symmetrically.
func (p *Physics) resolve(bodies []body) {
	r2 := 2 * p.cfg.Radius
	p.idx = slices.Grow(p.idx[:0], len(bodies))[:len(bodies)]
	idx := p.idx
	byX := func(a, b int32) int {
		if bodies[a].x < bodies[b].x {
			return -1
		}
		return 0 // the sort tests only cmp < 0: exactly sort.SliceStable's less
	}
	for it := 0; it < p.cfg.Iterations; it++ {
		for i := range idx {
			idx[i] = int32(i)
		}
		slices.SortStableFunc(idx, byX)
		moved := false
		for ii := 0; ii < len(idx); ii++ {
			i := idx[ii]
			for jj := ii + 1; jj < len(idx); jj++ {
				j := idx[jj]
				if bodies[j].x-bodies[i].x > r2 {
					break // sweep: no further overlap possible on x
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
					// Same point: separate deterministically along id order.
					if bodies[i].id < bodies[j].id {
						nx, ny = 1, 0
					} else {
						nx, ny = -1, 0
					}
					d = 0
				}
				push := (r2 - d) / 2
				bodies[i].x -= float64(nx * push) // rounded: no FMA
				bodies[i].y -= float64(ny * push)
				bodies[j].x += float64(nx * push)
				bodies[j].y += float64(ny * push)
			}
		}
		if !moved {
			break
		}
	}
}
