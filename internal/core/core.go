// Package core is the heart of the reproduction: it assembles the paper's
// primary contribution — imperative SGL scripts compiled to relational tick
// plans and executed set-at-a-time — into ready-to-run scenarios shared by
// the tests, the benchmark harness and the examples. Each scenario pairs a
// canonical SGL source (mirroring the paper's figures and motivating
// examples) with spawn helpers, so every consumer measures exactly the same
// workload.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
	"repro/internal/workload"
)

// SrcFig2 is the paper's Figure 2 accum-loop, embedded in a complete class:
// each unit counts neighbors in a square range and suffers crowding damage.
const SrcFig2 = `
class Unit {
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number range = 10;
    number health = 100;
  effects:
    number damage : sum;
  update:
    health = health - damage;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (u.x >= x - range && u.x <= x + range &&
          u.y >= y - range && u.y <= y + range) {
        cnt <- 1;
      }
    } in {
      if (cnt > 3) {
        damage <- (cnt - 3) * 0.125;
      }
    }
  }
}
`

// SrcRTS is a two-player combat script: units seek the weakest enemy in
// range (maxby selection), deal damage, and regenerate; movement intentions
// go to the physics component via avg-combined velocity effects (the
// paper's Figure 1 effect declarations).
const SrcRTS = `
class Soldier {
  state:
    string player = "";
    number x = 0 by physics;
    number y = 0 by physics;
    number tx = 0;
    number ty = 0;
    number range = 15;
    number health = 100;
    number attack = 2;
  effects:
    number vx : avg;
    number vy : avg;
    number damage : sum;
  update:
    health = health - damage + 0.1;
  run {
    accum ref<Soldier> foe with maxby over Soldier u from Soldier {
      if (u.player != player &&
          u.x >= x - range && u.x <= x + range &&
          u.y >= y - range && u.y <= y + range) {
        foe <- u by (0 - u.health);
      }
    } in {
      if (foe != null) {
        foe.damage <- attack;
      } else {
        vx <- (tx - x) * 0.1;
        vy <- (ty - y) * 0.1;
      }
    }
  }
}
`

// SrcMarket is the §3.1 marketplace: buyers purchase from a seller inside
// an atomic block constrained against negative balances and stock — the
// scenario whose race is the classic duping bug.
const SrcMarket = `
class Trader {
  state:
    number gold = 0;
    number stock = 0;
    number wants = 0;
    number price = 25;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    number dstock : sum;
  update:
    gold = gold + dgold;
    stock = stock + dstock;
  run {
    if (wants > 0 && seller != null && gold >= price) {
      atomic (gold >= 0, seller.stock >= 0) {
        dgold <- 0 - price;
        seller.dgold <- price;
        dstock <- 1;
        seller.dstock <- 0 - 1;
      }
    }
  }
}
`

// SrcMarketUnsafe is SrcMarket without the atomic block: the same writes
// flow as plain effects, reproducing the duping behaviour transactions
// exist to prevent (experiment E4's control arm).
const SrcMarketUnsafe = `
class Trader {
  state:
    number gold = 0;
    number stock = 0;
    number wants = 0;
    number price = 25;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    number dstock : sum;
  update:
    gold = gold + dgold;
    stock = stock + dstock;
  run {
    if (wants > 0 && seller != null && gold >= price) {
      dgold <- 0 - price;
      seller.dgold <- price;
      dstock <- 1;
      seller.dstock <- 0 - 1;
    }
  }
}
`

// SrcVehicles is a §4.2-scale traffic workload shaped for per-object
// expression work rather than joins: every vehicle advances along its
// heading, burns fuel, bounces off the network boundary and flags
// congestion stress — all lets, conditionals and self-targeted effects
// over numeric columns, the exact shape the vectorized batch evaluator
// executes whole-extent. With hundreds of thousands of vehicles this is
// the hot path where object-at-a-time interpretation overhead dominates.
const SrcVehicles = `
class Vehicle {
  state:
    number x = 0;
    number y = 0;
    number dx = 1;
    number dy = 0;
    number speed = 3;
    number fuel = 1000;
    number odo = 0;
    number stress = 0;
  effects:
    number mx : sum;
    number my : sum;
    number burn : sum;
    number flip : max;
  update:
    x = clamp(x + mx, 0, 4000);
    y = clamp(y + my, 0, 4000);
    dx = flip > 0 ? 0 - dx : dx;
    dy = flip > 0 ? 0 - dy : dy;
    fuel = fuel - burn;
    odo = odo + abs(mx) + abs(my);
    stress = clamp(stress * 0.95 + flip, 0, 100);
  run {
    let v = fuel > 0 ? speed : 0;
    mx <- dx * v;
    my <- dy * v;
    burn <- 0.01 + v * 0.002 + stress * 0.0001;
    if (x + dx * v > 4000 || x + dx * v < 0 || y + dy * v > 4000 || y + dy * v < 0) {
      flip <- 1;
    }
  }
}
`

// SrcTraffic is the partition-friendly §4.2 traffic workload: vehicles
// advance along axis-aligned roads and run one neighborhood accum per tick
// (congestion: count cars inside a ±12 headway box and slow down). Unlike
// SrcVehicles it carries a spatial join, so shared-nothing partitioned
// execution (Options.Partitions) has real ghost replication, cross-partition
// effects and boundary migrations to measure — the quantities E11/E12/E16
// report. The headway box is bounded and self-only, so the engine derives a
// finite interaction radius and keeps the join partition-local.
const SrcTraffic = `
class Car {
  state:
    number x = 0;
    number y = 0;
    number dx = 1;
    number dy = 0;
    number speed = 3;
    number slow = 0;
  effects:
    number mx : sum;
    number my : sum;
    number near : sum;
  update:
    x = clamp(x + mx, 0, 4000);
    y = clamp(y + my, 0, 4000);
    dx = (x <= 0 || x >= 4000) ? 0 - dx : dx;
    dy = (y <= 0 || y >= 4000) ? 0 - dy : dy;
    slow = clamp(near * 0.25, 0, 4);
  run {
    accum number cnt with sum over Car u from Car {
      if (u.x >= x - 12 && u.x <= x + 12 && u.y >= y - 12 && u.y <= y + 12) {
        cnt <- 1;
      }
    } in {
      near <- cnt;
      let v = speed / (1 + slow);
      mx <- dx * v;
      my <- dy * v;
    }
  }
}
`

// SrcFlock is a join-dominated flocking workload: every boid runs three
// range-joins per tick over its neighborhood (count, centroid-x, centroid-y)
// and steers toward the local centroid. Per-object expression work is
// trivial; essentially the whole tick is accum-join probing, matching and
// folding — the workload regime where batched join execution (gathered
// candidate rows + columnar folds) pays, and the stress test for per-tick
// index build cost since every boid moves every tick.
const SrcFlock = `
class Boid {
  state:
    number x = 0;
    number y = 0;
    number vx = 1;
    number vy = 0;
    number sight = 20;
  effects:
    number ax : sum;
    number ay : sum;
  update:
    vx = clamp((vx + ax) * 0.92, 0 - 4, 4);
    vy = clamp((vy + ay) * 0.92, 0 - 4, 4);
    x = clamp(x + vx, 0, 2000);
    y = clamp(y + vy, 0, 2000);
  run {
    accum number cnt with sum over Boid u from Boid {
      if (u.x >= x - sight && u.x <= x + sight && u.y >= y - sight && u.y <= y + sight) {
        cnt <- 1;
      }
    } in {
      accum number sx with sum over Boid u from Boid {
        if (u.x >= x - sight && u.x <= x + sight && u.y >= y - sight && u.y <= y + sight) {
          sx <- u.x;
        }
      } in {
        accum number sy with sum over Boid u from Boid {
          if (u.x >= x - sight && u.x <= x + sight && u.y >= y - sight && u.y <= y + sight) {
            sy <- u.y;
          }
        } in {
          if (cnt > 1) {
            ax <- (sx / cnt - x) * 0.05;
            ay <- (sy / cnt - y) * 0.05;
          }
        }
      }
    }
  }
}
`

// SrcSwarm is a drift workload: motes carry constant per-object velocities
// aimed slightly ahead of a shared rendezvous point, so the whole
// population simultaneously translates (drift) and contracts (clustering)
// tick over tick, while one bounded neighborhood accum (local density)
// gives partitioned execution real ghosts, migrations and per-partition
// load to measure. A partition layout, frozen at first-tick bounds, goes
// stale on this population: rows clamp into edge partitions
// (ClampedRows) and ownership piles into hot spots, while results stay
// bit-identical (the analysis differential runs it partitioned).
const SrcSwarm = `
class Mote {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
    number near = 0;
  effects:
    number nb : sum;
  update:
    x = x + vx;
    y = y + vy;
    near = nb;
  run {
    accum number cnt with sum over Mote u from Mote {
      if (u.x >= x - 10 && u.x <= x + 10 && u.y >= y - 10 && u.y <= y + 10) {
        cnt <- 1;
      }
    } in {
      nb <- cnt;
    }
  }
}
`

// SrcGuard is the multi-tick + reactive example of §3.2: move to a post,
// pick up an item, attack — with a handler that arms fleeing at low health.
const SrcGuard = `
class Guard {
  state:
    number x = 0;
    number y = 0;
    number px = 0;
    number py = 0;
    number health = 100;
    number fleeing = 0;
    number items = 0;
    ref<Guard> foe = null;
  effects:
    number dx : avg;
    number dy : avg;
    number damage : sum;
    number pickup : sum;
    number flee : max;
  update:
    x = x + dx;
    y = y + dy;
    health = health - damage;
    items = items + pickup;
    fleeing = flee;
  handlers:
    when (health < 30) {
      flee <- 1;
    }
  run {
    dx <- (px - x) * 0.5;
    dy <- (py - y) * 0.5;
    waitNextTick;
    pickup <- 1;
    waitNextTick;
    if (foe != null) {
      foe.damage <- 5;
    }
  }
}
`

// SrcArena is the battle-royale spectator workload behind the
// subscription-view experiments (internal/views, experiment E21): two teams
// brawl in a hotspot (pressure-scaled damage, the Figure 2 accum shape),
// movers walk long diagonals through physics-integrated velocity effects,
// and the camping majority neither moves nor fights — so the per-tick
// changefeed covers the combatants and movers, a small fraction of the
// extent, which is exactly the asymmetry incremental view maintenance
// exploits.
const SrcArena = `
class Fighter {
  state:
    number team = 0;
    number x = 0 by physics;
    number y = 0 by physics;
    number tx = 0;
    number ty = 0;
    number range = 8;
    number attack = 0.5;
    number health = 100;
  effects:
    number vx : avg;
    number vy : avg;
    number dmg : sum;
  update:
    health = health - dmg;
  run {
    accum number pressure with sum over Fighter u from Fighter {
      if (u.team != team &&
          u.x >= x - range && u.x <= x + range &&
          u.y >= y - range && u.y <= y + range) {
        pressure <- 1;
      }
    } in {
      if (pressure > 0) {
        dmg <- pressure * attack;
      }
      if ((tx - x) * (tx - x) + (ty - y) * (ty - y) > 1) {
        vx <- (tx - x) * 0.05;
        vy <- (ty - y) * 0.05;
      }
    }
  }
}
`

// Scenario bundles a loaded program with its spawn recipe. It also caches
// the engine-compiled plan (kernels, analysis, site batches) so that many
// worlds instantiated from one scenario share a single compilation — the
// many-world server's plan cache builds on this.
type Scenario struct {
	Name string
	Info *sem.Info
	Prog *compile.Program

	mu       sync.Mutex
	compiled [2]*engine.Compiled // [0] fused, [1] unfused
}

// Compiled returns the engine compilation for this scenario, compiling on
// first use and caching per fusion mode thereafter.
func (s *Scenario) Compiled(unfused bool) *engine.Compiled {
	i := 0
	if unfused {
		i = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compiled[i] == nil {
		if unfused {
			s.compiled[i] = engine.CompileUnfused(s.Prog)
		} else {
			s.compiled[i] = engine.Compile(s.Prog)
		}
	}
	return s.compiled[i]
}

// LoadScenario parses, checks and compiles one of the canonical sources.
func LoadScenario(name, src string) (*Scenario, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	return &Scenario{Name: name, Info: info, Prog: prog}, nil
}

// MustLoad panics on load errors (for benchmarks and examples with
// compile-time-constant sources).
func MustLoad(name, src string) *Scenario {
	s, err := LoadScenario(name, src)
	if err != nil {
		panic(err)
	}
	return s
}

// NewWorld instantiates the engine for the scenario, reusing the cached
// compilation so repeated instantiation pays only per-world state.
func (s *Scenario) NewWorld(opts engine.Options) (*engine.World, error) {
	return engine.NewFromCompiled(s.Compiled(false), opts)
}

// NewBaseline instantiates the object-at-a-time interpreter.
func (s *Scenario) NewBaseline() *baseline.World { return baseline.New(s.Info) }

// Spawner abstracts the engine and baseline worlds for shared population
// helpers.
type Spawner interface {
	Spawn(class string, init map[string]value.Value) (value.ID, error)
}

// PopulateUnits spawns Fig-2 units at the given positions.
func PopulateUnits(w Spawner, ps []workload.Pos, rng float64) ([]value.ID, error) {
	ids := make([]value.ID, 0, len(ps))
	for _, p := range ps {
		id, err := w.Spawn("Unit", map[string]value.Value{
			"x": value.Num(p.X), "y": value.Num(p.Y), "range": value.Num(rng),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// PopulateMarket spawns sellers and contending buyers per the market
// workload; it returns seller ids then buyer ids.
func PopulateMarket(w Spawner, m workload.Market) (sellers, buyers []value.ID, err error) {
	for i := 0; i < m.Sellers; i++ {
		id, err := w.Spawn("Trader", map[string]value.Value{
			"gold": value.Num(0), "stock": value.Num(float64(m.Stock)),
			"price": value.Num(m.Price),
		})
		if err != nil {
			return nil, nil, err
		}
		sellers = append(sellers, id)
	}
	for i := 0; i < m.TotalBuyers(); i++ {
		sid := sellers[i%len(sellers)]
		id, err := w.Spawn("Trader", map[string]value.Value{
			"gold": value.Num(m.Gold), "wants": value.Num(1),
			"price": value.Num(m.Price), "seller": value.Ref(sid),
		})
		if err != nil {
			return nil, nil, err
		}
		buyers = append(buyers, id)
	}
	return sellers, buyers, nil
}

// PopulateSoldiers spawns two armies at the given positions, alternating
// players ("red"/"blue" — the string predicate `u.player != player`
// exercises the dictionary-encoded kernel path), with movement targets at
// the overall centroid so the armies close distance and engage.
func PopulateSoldiers(w Spawner, ps []workload.Pos) ([]value.ID, error) {
	var cx, cy float64
	for _, p := range ps {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(ps))
	if n > 0 {
		cx, cy = cx/n, cy/n
	}
	ids := make([]value.ID, 0, len(ps))
	players := [2]string{"red", "blue"}
	for i, p := range ps {
		id, err := w.Spawn("Soldier", map[string]value.Value{
			"player": value.Str(players[i%2]),
			"x":      value.Num(p.X), "y": value.Num(p.Y),
			"tx": value.Num(cx), "ty": value.Num(cy),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// PopulateBoids spawns flock boids at the given positions with deterministic
// initial headings.
func PopulateBoids(w Spawner, ps []workload.Pos) ([]value.ID, error) {
	ids := make([]value.ID, 0, len(ps))
	for i, p := range ps {
		vx, vy := 1.0, 0.0
		switch i % 4 {
		case 1:
			vx, vy = -1, 0.5
		case 2:
			vx, vy = 0.5, -1
		case 3:
			vx, vy = -0.5, 1
		}
		id, err := w.Spawn("Boid", map[string]value.Value{
			"x": value.Num(p.X), "y": value.Num(p.Y),
			"vx": value.Num(vx), "vy": value.Num(vy),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// PopulateCars spawns SrcTraffic cars from generated road-network entities
// (workload.TrafficNetwork.Vehicles), deterministic in the input order.
func PopulateCars(w Spawner, ents []workload.Entity) ([]value.ID, error) {
	ids := make([]value.ID, 0, len(ents))
	for _, e := range ents {
		speed := math.Abs(e.VX) + math.Abs(e.VY)
		dx, dy := 1.0, 0.0
		if speed > 0 {
			dx, dy = e.VX/speed, e.VY/speed
		}
		id, err := w.Spawn("Car", map[string]value.Value{
			"x": value.Num(e.X), "y": value.Num(e.Y),
			"dx": value.Num(dx), "dy": value.Num(dy),
			"speed": value.Num(speed),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// PopulateMotes spawns SrcSwarm motes at the given positions. Each mote's
// velocity is the shared drift plus a pull toward the population's initial
// center scaled by rate, so after k ticks the swarm has translated by
// drift·k and contracted by the factor (1 − rate·k): drift and clustering
// in one deterministic kinematic field, no global state needed.
func PopulateMotes(w Spawner, ps []workload.Pos, driftX, driftY, rate float64) ([]value.ID, error) {
	var cx, cy float64
	for _, p := range ps {
		cx += p.X
		cy += p.Y
	}
	if n := float64(len(ps)); n > 0 {
		cx, cy = cx/n, cy/n
	}
	ids := make([]value.ID, 0, len(ps))
	for _, p := range ps {
		id, err := w.Spawn("Mote", map[string]value.Value{
			"x": value.Num(p.X), "y": value.Num(p.Y),
			"vx": value.Num(driftX + (cx-p.X)*rate),
			"vy": value.Num(driftY + (cy-p.Y)*rate),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// SortEntitiesByStripe reorders entities stripe-major (x-stripe, then y,
// then x) — the partition-friendly spawn order: rows of one spatial
// partition land in a contiguous physical span, so the partitioned
// executor's per-partition sweeps stay tight instead of scanning the whole
// extent per partition. The sort is deterministic and in place.
func SortEntitiesByStripe(ents []workload.Entity, stripes int, width float64) {
	if stripes < 1 || width <= 0 {
		return
	}
	sw := width / float64(stripes)
	sort.SliceStable(ents, func(a, b int) bool {
		sa, sb := int(ents[a].X/sw), int(ents[b].X/sw)
		if sa != sb {
			return sa < sb
		}
		if ents[a].Y != ents[b].Y {
			return ents[a].Y < ents[b].Y
		}
		return ents[a].X < ents[b].X
	})
}

// PopulateVehicles spawns vehicles at the given positions with axis-aligned
// headings (road-grid style) and staggered fuel, deterministic in the
// input order.
func PopulateVehicles(w Spawner, ps []workload.Pos) ([]value.ID, error) {
	ids := make([]value.ID, 0, len(ps))
	for i, p := range ps {
		dx, dy := 0.0, 0.0
		switch i % 4 {
		case 0:
			dx = 1
		case 1:
			dx = -1
		case 2:
			dy = 1
		default:
			dy = -1
		}
		id, err := w.Spawn("Vehicle", map[string]value.Value{
			"x": value.Num(p.X), "y": value.Num(p.Y),
			"dx": value.Num(dx), "dy": value.Num(dy),
			"speed": value.Num(2 + float64(i%5)),
			"fuel":  value.Num(500 + float64(i%997)),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// ArenaSide is the battle-royale map edge length for n fighters: density
// stays fixed as n scales, so the camping majority keeps enough spacing
// that no enemy ever enters weapons range outside the hotspot.
func ArenaSide(n int) float64 { return math.Sqrt(float64(n)) * 40 }

// PopulateArena spawns a battle-royale population: hot·n hotspot fighters
// (alternating teams, standing their ground in a tight square at the map
// center), movers·n travelers walking the long diagonal through the
// center, and the rest campers — team 0, waypoint at their own feet, far
// enough apart that nothing touches them. Deterministic in (n, fractions,
// seed).
func PopulateArena(w Spawner, n int, hot, movers float64, seed int64) ([]value.ID, error) {
	side := ArenaSide(n)
	rng := rand.New(rand.NewSource(seed))
	nHot := int(float64(n) * hot)
	nMov := int(float64(n) * movers)
	ids := make([]value.ID, 0, n)
	for i := 0; i < n; i++ {
		var init map[string]value.Value
		switch {
		case i < nHot:
			// Hotspot: both teams packed into a 40×40 square at the center.
			x := side/2 + (rng.Float64()-0.5)*40
			y := side/2 + (rng.Float64()-0.5)*40
			init = map[string]value.Value{
				"team": value.Num(float64(i % 2)),
				"x":    value.Num(x), "y": value.Num(y),
				"tx": value.Num(x), "ty": value.Num(y),
			}
		case i < nHot+nMov:
			// Movers: spawn anywhere, walk toward the mirrored corner.
			x := rng.Float64() * side
			y := rng.Float64() * side
			init = map[string]value.Value{
				"x": value.Num(x), "y": value.Num(y),
				"tx": value.Num(side - x), "ty": value.Num(side - y),
			}
		default:
			// Campers: scattered, stationary, all on one team.
			x := rng.Float64() * side
			y := rng.Float64() * side
			init = map[string]value.Value{
				"x": value.Num(x), "y": value.Num(y),
				"tx": value.Num(x), "ty": value.Num(y),
			}
		}
		id, err := w.Spawn("Fighter", init)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}
