package index

import "math"

// Grid is a uniform grid over 2-D points: the index the engine gives every
// join with two bounded range dimensions (§4.1), where it beats the range
// tree in both the clustered "combat" and the spread-out "explore" regime
// (experiment E7). O(n) build, queries proportional to the cells touched;
// the engine sizes cells to the mean width of the probe boxes it observes.
//
// The layout is dense and static (compressed sparse rows): one int32 offset
// per cell over the occupied cell-key window, and the points stored in
// flat arrays ordered by (cx, cy, input order), plus one float64 key per
// point in a keyed grid. Cells are numbered cx-major, so the cells cy0..cy1
// of one column are one contiguous run of entries, and a probe is one scan
// per column. A build is a two-pass counting sort; there is no incremental
// maintenance — at a large fraction of state changing per tick (§4.1)
// rebuilding is cheaper than diffing.
type Grid struct {
	cell   float64
	kx, ky float64 // smallest cell key of the window on each axis
	nx, ny int     // window size in cells
	off    []int32 // nx·ny+1 offsets into the entry arrays
	xs, ys []float64
	ks     []float64 // per-point keys; empty for an unkeyed grid
	rows   []int32
	cellOf []int32 // build scratch: each input's cell, -1 for a NaN point
}

// BuildGrid buckets the points (x[r], y[r]) for r in rows into square cells
// of the given size; the grid's rows are the given ones, and key[r] is point
// r's key (nil builds an unkeyed grid). Callers pass rows ascending so every
// cell lists its points in row order. cellSize must be positive.
func BuildGrid(cellSize float64, x, y, key []float64, rows []int32) *Grid {
	g := &Grid{}
	g.build(cellSize, x, y, key, rows)
	return g
}

// maxGridCells bounds the cell window of a grid over n points: a sparse
// far-flung point set doubles the cell size until the window fits, so a
// build never allocates more than a constant per point.
func maxGridCells(n int) float64 { return float64(16*float64(n)) + 65536 } // rounded product: no FMA on any GOARCH

// build refills the grid, reusing its arrays. Points with a NaN coordinate
// are left out (no box contains them); infinite coordinates land in the
// window's edge cells.
func (g *Grid) build(cellSize float64, x, y, key []float64, rows []int32) {
	if !(cellSize > 0) {
		panic("index: grid cell size must be positive")
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if v := x[r]; v-v == 0 { // finite
			xmin, xmax = min(xmin, v), max(xmax, v)
		}
		if v := y[r]; v-v == 0 {
			ymin, ymax = min(ymin, v), max(ymax, v)
		}
	}
	if !(xmin <= xmax) {
		xmin, xmax = 0, 0
	}
	if !(ymin <= ymax) {
		ymin, ymax = 0, 0
	}
	limit := maxGridCells(len(rows))
	for {
		g.kx, g.ky = math.Floor(xmin/cellSize), math.Floor(ymin/cellSize)
		wx := math.Floor(xmax/cellSize) - g.kx + 1
		wy := math.Floor(ymax/cellSize) - g.ky + 1
		if wx*wy <= limit {
			g.nx, g.ny = int(wx), int(wy)
			break
		}
		cellSize *= 2
	}
	g.cell = cellSize

	cells := g.nx * g.ny
	g.off = grow(g.off, cells+1)
	clear(g.off)
	g.cellOf = grow(g.cellOf, len(rows))
	for i, r := range rows {
		c := int32(-1)
		if cx, cy, ok := g.key(x[r], y[r]); ok {
			c = int32(cx*g.ny + cy)
			g.off[c+1]++
		}
		g.cellOf[i] = c
	}
	for c := 0; c < cells; c++ {
		g.off[c+1] += g.off[c]
	}
	n := int(g.off[cells])
	g.xs, g.ys, g.rows, g.ks = grow(g.xs, n), grow(g.ys, n), grow(g.rows, n), g.ks[:0]
	if key != nil {
		g.ks = grow(g.ks, n)
	}
	// Scatter with off[c] as cell c's cursor; afterwards off[c] holds the
	// end of cell c, which is the start of c+1 — shift back by one.
	for i, r := range rows {
		c := g.cellOf[i]
		if c < 0 {
			continue
		}
		k := g.off[c]
		g.off[c]++
		g.xs[k], g.ys[k], g.rows[k] = x[r], y[r], r
		if key != nil {
			g.ks[k] = key[r]
		}
	}
	copy(g.off[1:], g.off[:cells])
	g.off[0] = 0
}

// key returns the window-relative cell of a point, clamping keys outside
// the window (infinite coordinates) to its edge; ok is false for NaN.
func (g *Grid) key(x, y float64) (cx, cy int, ok bool) {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, 0, false
	}
	return clampKey(math.Floor(x/g.cell)-g.kx, g.nx), clampKey(math.Floor(y/g.cell)-g.ky, g.ny), true
}

// clampKey clamps a window-relative key to [0, n) in float space, before
// the integer conversion, so no coordinate can overflow it.
func clampKey(k float64, n int) int {
	if k < 0 {
		return 0
	}
	if k > float64(n-1) {
		return n - 1
	}
	return int(k)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.rows) }

// Cell returns the built cell size: the requested one, doubled as often as
// the cell-window bound required.
func (g *Grid) Cell() float64 { return g.cell }

// KeyTest is a probe's key conjunct, which Pass applies by float compare
// (value.Equal on payloads: NaN equals nothing): key == Val, or key != Val
// when Ne is set. AnyKey passes every key.
type KeyTest struct {
	Val float64
	Ne  bool
}

var AnyKey = KeyTest{Val: math.NaN(), Ne: true}

func (t KeyTest) Pass(k float64) bool { return (k == t.Val) != t.Ne }

// QueryRows appends the rows of the points in the closed box
// [lo0,hi0]×[lo1,hi1] that pass kt (every point of an unkeyed grid does),
// visiting cells cx-major then cy and each cell in row order. The box is
// clamped to the cell window, so a huge or infinite box costs at most the
// window. NaN points are never stored and the box and key tests are exact
// on stored values, so callers need not re-check either.
func (g *Grid) QueryRows(lo, hi []float64, kt KeyTest, out []int32) []int32 {
	if !(lo[0] <= hi[0] && lo[1] <= hi[1]) || len(g.rows) == 0 {
		return out // empty or NaN box
	}
	lx, hx, ly, hy := lo[0], hi[0], lo[1], hi[1]
	cx0, cy0, _ := g.key(lx, ly)
	cx1, cy1, _ := g.key(hx, hy)
	keyed := len(g.ks) > 0
	for cx := cx0; cx <= cx1; cx++ {
		k0, k1 := g.off[cx*g.ny+cy0], g.off[cx*g.ny+cy1+1]
		rows := g.rows[k0:k1]
		xs, ys := g.xs[k0:k1][:len(rows)], g.ys[k0:k1][:len(rows)]
		// Branch-free: room for every candidate, then write each one and
		// advance past it only if it is inside (and, keyed, passes the key
		// test: an unkeyed grid never pays the compare).
		n := len(out)
		out = append(out, rows...)
		if keyed {
			ks := g.ks[k0:k1][:len(rows)]
			for i, r := range rows {
				out[n] = r
				n += b2i(xs[i] >= lx) & b2i(xs[i] <= hx) & b2i(ys[i] >= ly) & b2i(ys[i] <= hy) & b2i(kt.Pass(ks[i]))
			}
		} else {
			for i, r := range rows {
				out[n] = r
				n += b2i(xs[i] >= lx) & b2i(xs[i] <= hx) & b2i(ys[i] >= ly) & b2i(ys[i] <= hy)
			}
		}
		out = out[:n]
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EstimatedBytes approximates resident memory.
func (g *Grid) EstimatedBytes() int {
	return len(g.rows)*(8+8+4) + len(g.ks)*8 + len(g.off)*4
}
