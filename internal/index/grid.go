package index

import (
	"math"
	"sort"

	"repro/internal/value"
)

// Grid is a uniform spatial hash grid over 2-D points. It is the cheap
// alternative physical plan the adaptive optimizer (§4.1) weighs against
// the range tree: O(n) build, queries proportional to the cells touched —
// excellent for clustered "combat" regimes, poor for huge query boxes.
//
// Grids built through a Builder additionally track which physical table row
// backs each point, which enables both the batch row probe (QueryRows) and
// churn-aware incremental maintenance (Sync): when only a small fraction of
// rows moved, spawned or died since the last build, reconciling the touched
// cells beats rebuilding. Cell entry lists are kept sorted by row, so an
// incrementally maintained grid is indistinguishable — including candidate
// order — from a fresh rebuild of the same data.
type Grid struct {
	cell  float64
	cells map[gridKey]*gridCell
	n     int

	// Row-tracking state for Sync, populated only by Builder-backed builds.
	track   bool
	present []bool
	prevX   []float64
	prevY   []float64
	prevID  []value.ID
}

type gridKey struct{ x, y int32 }

type gridCell struct{ es []gridEntry }

// gridEntry stores coordinates inline: one cache line covers four entries
// and incremental inserts need no backing coordinate slab.
type gridEntry struct {
	id   value.ID
	row  int32
	x, y float64
}

// BuildGrid buckets entries (first two coordinates) into square cells of
// the given size. cellSize must be positive.
func BuildGrid(cellSize float64, entries []Entry) *Grid {
	g := &Grid{cells: make(map[gridKey]*gridCell, len(entries)/4+1)}
	g.rebuild(cellSize, entries)
	return g
}

func newTrackedGrid() *Grid {
	return &Grid{cells: make(map[gridKey]*gridCell), track: true}
}

// rebuild refills the grid in entry order, reusing cells and their slices.
// Cells that stayed empty through the previous fill are dropped once they
// outnumber live ones, so roaming entities cannot grow the cell table
// without bound; with stable occupancy nothing is freed and rebuilds stay
// allocation-free.
func (g *Grid) rebuild(cellSize float64, entries []Entry) {
	if cellSize <= 0 {
		panic("index: grid cell size must be positive")
	}
	live := 0
	for _, c := range g.cells { //sglvet:allow maprange: occupancy count only
		if len(c.es) > 0 {
			live++
		}
	}
	if len(g.cells) > 2*live+16 {
		for k, c := range g.cells { //sglvet:allow maprange: keyed deletion of empties, order-free
			if len(c.es) == 0 {
				delete(g.cells, k)
			}
		}
	}
	g.cell = cellSize
	g.n = 0
	for _, c := range g.cells { //sglvet:allow maprange: independent per-cell resets, order-free
		c.es = c.es[:0]
	}
	for i := range g.present {
		g.present[i] = false
	}
	for _, e := range entries {
		x, y := e.Coords[0], e.Coords[1]
		k := g.keyOf(x, y)
		c := g.cells[k]
		if c == nil {
			c = &gridCell{}
			g.cells[k] = c
		}
		c.es = append(c.es, gridEntry{id: e.ID, row: e.Row, x: x, y: y})
		g.n++
		if g.track {
			g.trackRow(e.Row, e.ID, x, y)
		}
	}
}

func (g *Grid) trackRow(row int32, id value.ID, x, y float64) {
	g.ensureRow(row)
	g.present[row] = true
	g.prevX[row], g.prevY[row] = x, y
	g.prevID[row] = id
}

func (g *Grid) ensureRow(row int32) {
	for int(row) >= len(g.present) {
		g.present = append(g.present, false)
		g.prevX = append(g.prevX, 0)
		g.prevY = append(g.prevY, 0)
		g.prevID = append(g.prevID, 0)
	}
}

// Sync incrementally reconciles a Builder-built grid against the current
// coordinate columns, alive mask and row ids: rows that spawned, died or
// moved since the last build/sync are fixed up in place. It gives up once
// more than maxDirty rows changed (returning ok=false; the grid is then
// partially updated and must be rebuilt). Entry order within each cell stays
// sorted by row, so a synced grid answers queries identically to a fresh
// rebuild.
func (g *Grid) Sync(x, y []float64, alive []bool, ids []value.ID, maxDirty int) (dirty int, ok bool) {
	if !g.track {
		return 0, false
	}
	rows := len(alive)
	if len(g.present) > rows {
		rows = len(g.present)
	}
	for r := 0; r < rows; r++ {
		was := r < len(g.present) && g.present[r]
		is := r < len(alive) && alive[r]
		if !was && !is {
			continue
		}
		if was && is && g.prevX[r] == x[r] && g.prevY[r] == y[r] && g.prevID[r] == ids[r] {
			continue
		}
		dirty++
		if dirty > maxDirty {
			return dirty, false
		}
		if was {
			g.remove(int32(r))
		}
		if is {
			g.insertSorted(ids[r], int32(r), x[r], y[r])
		}
	}
	return dirty, true
}

// SyncRows is Sync for member views: it reconciles the grid against a
// sorted list of member physical rows (the engine's partition-local
// owned+ghost views) instead of the whole alive mask. Rows that joined the
// membership, left it, moved or changed identity since the last build/sync
// are fixed up in place, under the same maxDirty bail-out; a synced grid is
// bit-indistinguishable — candidate order included — from a fresh rebuild
// over exactly those member rows. This is what lets partitioned execution
// patch per-partition grids across ticks (and across layout epochs, when
// ownership intervals barely moved) instead of rebuilding them.
func (g *Grid) SyncRows(x, y []float64, rows []int32, ids []value.ID, maxDirty int) (dirty int, ok bool) {
	if !g.track {
		return 0, false
	}
	n := len(g.present)
	if k := len(rows); k > 0 && int(rows[k-1])+1 > n {
		n = int(rows[k-1]) + 1
	}
	k := 0
	for r := 0; r < n; r++ {
		is := k < len(rows) && int(rows[k]) == r
		if is {
			k++
		}
		was := r < len(g.present) && g.present[r]
		if !was && !is {
			continue
		}
		if was && is && g.prevX[r] == x[r] && g.prevY[r] == y[r] && g.prevID[r] == ids[r] {
			continue
		}
		dirty++
		if dirty > maxDirty {
			return dirty, false
		}
		if was {
			g.remove(int32(r))
		}
		if is {
			g.insertSorted(ids[r], int32(r), x[r], y[r])
		}
	}
	return dirty, true
}

// Insert adds one entry to a Builder-built (row-tracking) grid without a
// rebuild, keeping each cell sorted by row. row must not be present. It is
// the single-entry form of Sync for holders that know exactly which entry
// arrived — the subscription index (internal/views), whose rows are
// subscription slots rather than table rows.
func (g *Grid) Insert(id value.ID, row int32, x, y float64) {
	if !g.track {
		panic("index: Insert on an untracked grid")
	}
	g.ensureRow(row)
	if g.present[row] {
		panic("index: Insert of a row already present")
	}
	g.insertSorted(id, row, x, y)
}

// Remove deletes the entry backed by row from a row-tracking grid, reporting
// whether it was present.
func (g *Grid) Remove(row int32) bool {
	if !g.track || int(row) >= len(g.present) || !g.present[row] {
		return false
	}
	g.remove(row)
	return true
}

func (g *Grid) remove(row int32) {
	k := g.keyOf(g.prevX[row], g.prevY[row])
	c := g.cells[k]
	if c != nil {
		for i := range c.es {
			if c.es[i].row == row {
				c.es = append(c.es[:i], c.es[i+1:]...)
				g.n--
				break
			}
		}
	}
	g.present[row] = false
}

func (g *Grid) insertSorted(id value.ID, row int32, x, y float64) {
	k := g.keyOf(x, y)
	c := g.cells[k]
	if c == nil {
		c = &gridCell{}
		g.cells[k] = c
	}
	i := sort.Search(len(c.es), func(i int) bool { return c.es[i].row >= row })
	c.es = append(c.es, gridEntry{})
	copy(c.es[i+1:], c.es[i:])
	c.es[i] = gridEntry{id: id, row: row, x: x, y: y}
	g.n++
	g.trackRow(row, id, x, y)
}

func (g *Grid) keyOf(x, y float64) gridKey {
	return gridKey{int32(math.Floor(x / g.cell)), int32(math.Floor(y / g.cell))}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// Cell returns the configured cell size.
func (g *Grid) Cell() float64 { return g.cell }

// Cells returns the number of occupied cells.
func (g *Grid) Cells() int {
	n := 0
	for _, c := range g.cells { //sglvet:allow maprange: occupancy count only
		if len(c.es) > 0 {
			n++
		}
	}
	return n
}

// Query appends the ids of points in the closed box [lo0,hi0]×[lo1,hi1].
func (g *Grid) Query(lo, hi []float64, out []value.ID) []value.ID {
	k0 := g.keyOf(lo[0], lo[1])
	k1 := g.keyOf(hi[0], hi[1])
	for cx := k0.x; cx <= k1.x; cx++ {
		for cy := k0.y; cy <= k1.y; cy++ {
			c := g.cells[gridKey{cx, cy}]
			if c == nil {
				continue
			}
			for _, e := range c.es {
				if e.x >= lo[0] && e.x <= hi[0] && e.y >= lo[1] && e.y <= hi[1] {
					out = append(out, e.id)
				}
			}
		}
	}
	return out
}

// QueryRows is Query returning physical table rows, in identical candidate
// order. Meaningful only for Builder-backed grids (entries built with Row).
func (g *Grid) QueryRows(lo, hi []float64, out []int32) []int32 {
	k0 := g.keyOf(lo[0], lo[1])
	k1 := g.keyOf(hi[0], hi[1])
	for cx := k0.x; cx <= k1.x; cx++ {
		for cy := k0.y; cy <= k1.y; cy++ {
			c := g.cells[gridKey{cx, cy}]
			if c == nil {
				continue
			}
			for _, e := range c.es {
				if e.x >= lo[0] && e.x <= hi[0] && e.y >= lo[1] && e.y <= hi[1] {
					out = append(out, e.row)
				}
			}
		}
	}
	return out
}

// Count returns the number of points in the closed box.
func (g *Grid) Count(lo, hi []float64) int {
	n := 0
	k0 := g.keyOf(lo[0], lo[1])
	k1 := g.keyOf(hi[0], hi[1])
	for cx := k0.x; cx <= k1.x; cx++ {
		for cy := k0.y; cy <= k1.y; cy++ {
			c := g.cells[gridKey{cx, cy}]
			if c == nil {
				continue
			}
			for _, e := range c.es {
				if e.x >= lo[0] && e.x <= hi[0] && e.y >= lo[1] && e.y <= hi[1] {
					n++
				}
			}
		}
	}
	return n
}

// EstimatedBytes approximates resident memory.
func (g *Grid) EstimatedBytes() int {
	const entrySize = 8 + 4 + 2*8
	const cellOverhead = 64
	return g.n*entrySize + len(g.cells)*cellOverhead
}
