package index

import "sync"

// Builder is a per-site build arena. The engine rebuilds accum-join indexes
// every tick (§4.1: a large fraction of game state changes per tick), which
// with naive construction means one fresh allocation storm per site per
// tick. A Builder retains everything a build needs — the range tree's entry,
// coordinate, node, header and replica slabs, the grid's arrays and the
// hash index's buckets — so that once slab sizes converge (after the first
// tick or two of a stable regime) rebuilding an index allocates nothing at
// all. Range-tree slabs are released after treeIdleBuilds consecutive
// builds of other kinds: a site that switched to the grid does not keep
// pinning them.
//
// A Builder is not safe for concurrent use, and the indexes it returns alias
// its memory: a tree, grid or hash obtained from a Builder is valid only
// until that Builder's next build of the same kind. When builders are pooled
// across worlds the alias can also be invalidated by *another* holder's
// build; Gen distinguishes the two cases — every build bumps the generation,
// so an index is valid exactly while (builder, generation) both match what
// the holder recorded when it built.
type Builder struct {
	gen uint64

	entries []Entry
	coords  []float64

	// Range-tree slabs. Demand is measured per build; slabs regrow to the
	// previous build's demand up front, so overflow allocations happen only
	// while the working set is still growing.
	trees     []RangeTree
	nodes     []rtNode
	reps      []Entry
	treeN     int
	nodeN     int
	repN      int
	needTrees int
	needNodes int
	needReps  int
	treeIdle  int // consecutive builds since the last range tree

	grid *Grid
	hash *RowHash
}

// treeIdleBuilds is how many consecutive non-tree builds release the
// range-tree slabs, so a pooled builder alternating between a tree site
// and a grid site keeps its slabs.
const treeIdleBuilds = 8

// Gen returns the builder's build generation. It increments on every
// BuildRangeTree/BuildGrid/RowHash call, so a holder that recorded
// (builder, gen) at build time can detect that a pooled builder has since
// been rebuilt by someone else.
func (b *Builder) Gen() uint64 { return b.gen }

// BuilderPool is a free list of build arenas shared by many worlds. Checking
// a builder out per tick instead of owning one per site keeps N idle worlds
// from pinning N copies of the slab working set; the generation counter
// (Gen) keeps reuse of the indexes built from pooled builders sound.
type BuilderPool struct {
	mu   sync.Mutex
	free []*Builder
}

// Get returns a builder from the pool, or a fresh one. LIFO order maximizes
// the chance a world gets back the builder (and therefore the still-valid
// indexes) it used last tick.
func (p *BuilderPool) Get() *Builder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return new(Builder)
}

// Put returns a builder to the pool.
func (p *BuilderPool) Put(b *Builder) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Entries returns the builder's reusable entry slab resized to n.
func (b *Builder) Entries(n int) []Entry {
	if cap(b.entries) < n {
		b.entries = make([]Entry, n)
	}
	b.entries = b.entries[:n]
	return b.entries
}

// Coords returns the builder's reusable coordinate slab resized to n.
func (b *Builder) Coords(n int) []float64 {
	if cap(b.coords) < n {
		b.coords = make([]float64, n)
	}
	return b.coords[:n]
}

// BuildRangeTree builds a range tree over entries using the retained slabs.
// The input slice is reordered in place (callers normally pass the slab from
// Entries), and the returned tree aliases builder memory: it is valid only
// until the next BuildRangeTree on this builder.
func (b *Builder) BuildRangeTree(dims int, entries []Entry) *RangeTree {
	if len(b.trees) < b.needTrees {
		b.trees = make([]RangeTree, b.needTrees)
	}
	if len(b.nodes) < b.needNodes {
		b.nodes = make([]rtNode, b.needNodes)
	}
	if len(b.reps) < b.needReps {
		b.reps = make([]Entry, b.needReps)
	}
	b.treeN, b.nodeN, b.repN = 0, 0, 0
	b.needTrees, b.needNodes, b.needReps = 0, 0, 0
	b.gen++
	b.treeIdle = 0
	return buildRangeTree(b, dims, entries)
}

// BuildGrid rebuilds the builder's retained grid over the points
// (x[r], y[r]) for r in rows (see BuildGrid); its arrays are reused.
func (b *Builder) BuildGrid(cellSize float64, x, y []float64, rows []int32) *Grid {
	if b.grid == nil {
		b.grid = new(Grid)
	}
	b.otherBuild()
	b.grid.build(cellSize, x, y, rows)
	return b.grid
}

// RowHash returns the builder's retained hash index, emptied for refill via
// Insert. Buckets and their slices are reused across builds.
func (b *Builder) RowHash() *RowHash {
	if b.hash == nil {
		b.hash = NewRowHash()
	}
	b.otherBuild()
	b.hash.Reset()
	return b.hash
}

// otherBuild counts a non-tree build, releasing the range-tree slabs once
// treeIdleBuilds of them ran in a row.
func (b *Builder) otherBuild() {
	b.gen++
	if b.treeIdle++; b.treeIdle == treeIdleBuilds {
		b.entries, b.coords = nil, nil
		b.trees, b.nodes, b.reps = nil, nil, nil
		b.needTrees, b.needNodes, b.needReps = 0, 0, 0
	}
}

// allocTree hands out a tree header, from the slab when one is available.
func (b *Builder) allocTree() *RangeTree {
	b.needTrees++
	if b.treeN < len(b.trees) {
		t := &b.trees[b.treeN]
		b.treeN++
		return t
	}
	return new(RangeTree)
}

// allocNode hands out a node, from the slab when one is available.
func (b *Builder) allocNode() *rtNode {
	b.needNodes++
	if b.nodeN < len(b.nodes) {
		n := &b.nodes[b.nodeN]
		b.nodeN++
		return n
	}
	return new(rtNode)
}

// allocReps hands out a replica block for one associated structure.
func (b *Builder) allocReps(n int) []Entry {
	b.needReps += n
	if b.repN+n <= len(b.reps) {
		s := b.reps[b.repN : b.repN+n : b.repN+n]
		b.repN += n
		return s
	}
	return make([]Entry, n)
}
