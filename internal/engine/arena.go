package engine

// Per-tick execution arenas. Everything a tick needs beyond the tables —
// the serial kernel machine with its per-program slab cache and the kernel
// lanes it runs on, the index build arenas with their retained
// tree/grid/hash slabs — lives in an Arena. A standalone world lazily
// creates one arena and keeps it forever (exactly the pre-pooling
// retained-scratch behavior). A many-world server
// instead hands every world the same ArenaPool: each world checks an arena
// out at tick start and returns it at tick end, so N mostly-idle worlds
// share a handful of warm arenas instead of pinning N copies of the slab
// working set.
//
// Correctness under rotation: an index built from a pooled builder aliases
// that builder's memory, so reusing last tick's index is sound only while
// the same builder is attached and nobody else has built with it since.
// Every sitePart records (builder, generation) at build time and the
// maintenance ladders check builderValid before any reuse; a world that
// gets a different (or since-rebuilt) builder back simply rebuilds, which
// after slab convergence allocates nothing.

import (
	"sync"

	"repro/internal/index"
	"repro/internal/vexpr"
)

// Arena is one world-tick's worth of checkout state: a kernel machine and
// the kernel lanes of worker slot 0 (at most vexpr.BatchSize long), and one
// index build arena per site partition, attached on demand in site order.
type Arena struct {
	machine  *vexpr.Machine
	vec      vecScratch
	builders []*index.Builder
	pool     *ArenaPool // nil for world-owned arenas
}

// builder returns the arena's i-th build arena, drawing new ones from the
// pool (or the heap for owned arenas) as the demand grows.
func (a *Arena) builder(i int) *index.Builder {
	for len(a.builders) <= i {
		var b *index.Builder
		if a.pool != nil {
			b = a.pool.builders.Get()
		} else {
			b = new(index.Builder)
		}
		a.builders = append(a.builders, b)
	}
	return a.builders[i]
}

// ArenaPool is a shared free list of whole arenas. LIFO order means a lone
// world (or the last world of a round) usually gets back exactly the arena
// it released — same machine slabs, same builders, still-valid indexes.
type ArenaPool struct {
	mu       sync.Mutex
	free     []*Arena
	machines vexpr.MachinePool
	builders index.BuilderPool
}

// Get returns an arena from the pool, or assembles a fresh one around a
// pooled machine.
func (p *ArenaPool) Get() *Arena {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	return &Arena{machine: p.machines.Get(), pool: p}
}

// Put returns an arena (with all its builders) to the pool.
func (p *ArenaPool) Put(a *Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// SetArenaPool switches the world from an owned arena to per-tick checkout
// from a shared pool (the many-world server calls this right after
// NewFromCompiled). Must not be called mid-tick.
func (w *World) SetArenaPool(p *ArenaPool) {
	w.detachBuilders()
	w.arenaPool = p
	w.arena = nil
}

// acquireArena makes w.arena usable for the current tick: the owned arena
// for standalone worlds (created on first use, kept forever), a pool
// checkout otherwise. w.arena is valid only until releaseArena (all of
// RunTick, plus Restore's handler replay). Builders attach to the site
// partitions in site order, so a world that gets its own arena back finds
// every (builder, gen) pair intact.
func (w *World) acquireArena() {
	if w.arena == nil {
		if w.arenaPool != nil {
			w.arena = w.arenaPool.Get()
		} else {
			w.arena = &Arena{machine: new(vexpr.Machine)}
		}
	}
	w.attachBuilders()
}

// releaseArena returns a pooled arena at tick end; owned arenas stay put.
func (w *World) releaseArena() {
	if w.arenaPool == nil || w.arena == nil {
		return
	}
	w.detachBuilders()
	w.arena.vec.unbind()
	w.arenaPool.Put(w.arena)
	w.arena = nil
}

// attachBuilders points every site partition at its arena builder. Also
// called when a partitioned prepare grows a site's parts mid-tick: builds
// happen in site order, so re-running the ordinal assignment only moves
// builders of later, not-yet-built sites.
func (w *World) attachBuilders() {
	if w.arena == nil {
		return
	}
	k := 0
	for _, site := range w.sites {
		for i := range site.parts {
			site.parts[i].builder = w.arena.builder(k)
			k++
		}
	}
}

func (w *World) detachBuilders() {
	for _, site := range w.sites {
		for i := range site.parts {
			site.parts[i].builder = nil
		}
	}
}
