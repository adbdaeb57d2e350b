// Package index provides the main-memory indexes used by the SGL query
// engine: a multi-dimensional orthogonal range tree (the paper's choice,
// §4.2, with Θ(n·log^{d−1} n) space), a uniform grid, a sorted 1-D index
// and a hash index for equi-joins.
//
// Because a large fraction of game state changes every tick (§4.1), the
// engine's default is to rebuild spatial indexes per tick rather than
// maintain them incrementally. Builds go through per-site Builder arenas so
// steady-state rebuilds allocate nothing, and every index answers batch row
// probes (QueryRows/Lookup rows) for the batched join executor.
package index

import (
	"fmt"

	"repro/internal/value"
)

// Entry is one indexed point: an object id plus its coordinates. Row, when
// populated by the caller, is the physical table row backing the point; the
// batch probe APIs (QueryRows/LookupRows) hand candidate rows back directly
// so the executor can gather source columns without an id→row map lookup.
type Entry struct {
	ID     value.ID
	Row    int32
	Coords []float64
}

// RangeTree is a static d-dimensional orthogonal range tree. Dimension 0 is
// the primary tree; every canonical node carries an associated tree over
// the remaining dimensions, giving O(log^d n + k) queries at
// Θ(n·log^{d−1} n) space — the trade-off the paper calls out when sizing
// cluster memory.
type RangeTree struct {
	dims int
	n    int
	root *rtNode

	// storedEntries counts every point replica across all associated
	// structures, the quantity that realizes Θ(n·log^{d−1} n).
	storedEntries int
	nodes         int
}

type rtNode struct {
	key   float64 // split key in the node's dimension
	min   float64 // subtree coordinate range in the node's dimension
	max   float64
	left  *rtNode
	right *rtNode
	assoc *RangeTree // tree over remaining dimensions (nil at the last)
	// Leaf / last-dimension payload: entries sorted by the node's
	// dimension. Internal nodes at the last dimension keep nil pts.
	pts []Entry
}

const rtLeafSize = 16

// BuildRangeTree constructs a range tree over the entries. dims must be
// >= 1 and every entry must have at least dims coordinates. The input slice
// is not retained but is reordered.
func BuildRangeTree(dims int, entries []Entry) *RangeTree {
	es := make([]Entry, len(entries))
	copy(es, entries)
	return buildRangeTree(nil, dims, es)
}

// buildRangeTree builds over es in place, drawing trees, nodes and replica
// blocks from the arena when b is non-nil (see Builder).
func buildRangeTree(b *Builder, dims int, es []Entry) *RangeTree {
	if dims < 1 {
		panic("index: range tree needs dims >= 1")
	}
	var t *RangeTree
	if b != nil {
		t = b.allocTree()
	} else {
		t = new(RangeTree)
	}
	*t = RangeTree{dims: dims, n: len(es)}
	if len(es) == 0 {
		return t
	}
	t.root = t.build(b, es, 0)
	return t
}

func (t *RangeTree) build(b *Builder, es []Entry, dim int) *rtNode {
	sortEntries(es, dim)
	return t.buildSorted(b, es, dim)
}

func (t *RangeTree) buildSorted(b *Builder, es []Entry, dim int) *rtNode {
	t.nodes++
	var n *rtNode
	if b != nil {
		n = b.allocNode()
	} else {
		n = new(rtNode)
	}
	// Arena nodes may carry a previous build; reset every field.
	*n = rtNode{
		min: es[0].Coords[dim],
		max: es[len(es)-1].Coords[dim],
	}
	last := dim == t.dims-1
	if len(es) <= rtLeafSize {
		n.pts = es
		t.storedEntries += len(es)
		n.key = es[len(es)/2].Coords[dim]
		if !last {
			// Leaves at non-final dimensions still answer the remaining
			// dimensions by brute force over <= rtLeafSize points.
		}
		return n
	}
	mid := len(es) / 2
	n.key = es[mid].Coords[dim]
	if !last {
		// The associated structure indexes this node's whole point set on
		// the remaining dimensions.
		var sub []Entry
		if b != nil {
			sub = b.allocReps(len(es))
		} else {
			sub = make([]Entry, len(es))
		}
		copy(sub, es)
		var a *RangeTree
		if b != nil {
			a = b.allocTree()
		} else {
			a = new(RangeTree)
		}
		*a = RangeTree{dims: t.dims, n: len(sub)}
		a.root = a.build(b, sub, dim+1)
		n.assoc = a
		t.storedEntries += a.storedEntries
		t.nodes += a.nodes
	}
	// At the last dimension points are stored only in leaf blocks, which
	// the leaf case above accounts for.
	n.left = t.buildSorted(b, es[:mid], dim)
	n.right = t.buildSorted(b, es[mid:], dim)
	return n
}

// sortEntries orders es by Coords[dim] ascending. It is a hand-rolled
// median-of-three quicksort with an insertion-sort tail so per-tick index
// builds stay allocation-free (sort.Slice allocates its closure and swapper
// at every associated-structure sort).
func sortEntries(es []Entry, dim int) {
	for len(es) > 12 {
		// Median-of-three pivot moved to the front: Hoare partition with
		// the pivot at index 0 always makes progress.
		m := len(es) / 2
		hi := len(es) - 1
		if es[m].Coords[dim] < es[0].Coords[dim] {
			es[m], es[0] = es[0], es[m]
		}
		if es[hi].Coords[dim] < es[0].Coords[dim] {
			es[hi], es[0] = es[0], es[hi]
		}
		if es[hi].Coords[dim] < es[m].Coords[dim] {
			es[hi], es[m] = es[m], es[hi]
		}
		es[0], es[m] = es[m], es[0]
		p := es[0].Coords[dim]
		i, j := -1, len(es)
		for {
			for {
				i++
				if !(es[i].Coords[dim] < p) {
					break
				}
			}
			for {
				j--
				if !(es[j].Coords[dim] > p) {
					break
				}
			}
			if i >= j {
				break
			}
			es[i], es[j] = es[j], es[i]
		}
		// Recurse into the smaller half, iterate on the larger.
		if j+1 <= len(es)-(j+1) {
			sortEntries(es[:j+1], dim)
			es = es[j+1:]
		} else {
			sortEntries(es[j+1:], dim)
			es = es[:j+1]
		}
	}
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].Coords[dim] > e.Coords[dim] {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// Len returns the number of indexed points.
func (t *RangeTree) Len() int { return t.n }

// StoredEntries returns the total number of point replicas stored across
// the primary and all associated structures — the space term the paper's
// Θ(n·log^{d−1} n) analysis counts.
func (t *RangeTree) StoredEntries() int { return t.storedEntries }

// EstimatedBytes approximates resident memory: each stored replica keeps an
// id plus dims coordinates; each node costs its header.
func (t *RangeTree) EstimatedBytes() int {
	const nodeHeader = 8 * 8 // key, min, max, 3 pointers, slice header parts
	return t.storedEntries*(8+8*t.dims) + t.nodes*nodeHeader
}

// Query appends to out the ids of all points inside the closed box
// [lo[i], hi[i]] for each dimension i, and returns the extended slice.
func (t *RangeTree) Query(lo, hi []float64, out []value.ID) []value.ID {
	if t.root == nil {
		return out
	}
	t.checkBox(lo, hi)
	return t.query(t.root, 0, lo, hi, out)
}

func (t *RangeTree) checkBox(lo, hi []float64) {
	if len(lo) != t.dims || len(hi) != t.dims {
		panic(fmt.Sprintf("index: query box dims %d/%d, tree dims %d", len(lo), len(hi), t.dims))
	}
}

func (t *RangeTree) query(n *rtNode, dim int, lo, hi []float64, out []value.ID) []value.ID {
	if n == nil || n.min > hi[dim] || n.max < lo[dim] {
		return out
	}
	if n.pts != nil {
		// Leaf (or last-dimension block): filter brute force over all dims
		// from dim onward; earlier dims were fixed by ancestors.
		for _, e := range n.pts {
			ok := true
			for d := dim; d < t.dims; d++ {
				c := e.Coords[d]
				if c < lo[d] || c > hi[d] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, e.ID)
			}
		}
		return out
	}
	if n.min >= lo[dim] && n.max <= hi[dim] {
		// Canonical node: the whole subtree satisfies this dimension.
		if dim == t.dims-1 {
			return t.collect(n, out)
		}
		return n.assoc.query(n.assoc.root, dim+1, lo, hi, out)
	}
	out = t.query(n.left, dim, lo, hi, out)
	out = t.query(n.right, dim, lo, hi, out)
	return out
}

func (t *RangeTree) collect(n *rtNode, out []value.ID) []value.ID {
	if n.pts != nil {
		for _, e := range n.pts {
			out = append(out, e.ID)
		}
		return out
	}
	out = t.collect(n.left, out)
	return t.collect(n.right, out)
}

// QueryRows is Query returning physical table rows instead of ids, in the
// identical candidate order — the batch-gather probe of the join executor.
// It is meaningful only for entries built with Row populated.
func (t *RangeTree) QueryRows(lo, hi []float64, out []int32) []int32 {
	if t.root == nil {
		return out
	}
	t.checkBox(lo, hi)
	return t.queryRows(t.root, 0, lo, hi, out)
}

func (t *RangeTree) queryRows(n *rtNode, dim int, lo, hi []float64, out []int32) []int32 {
	if n == nil || n.min > hi[dim] || n.max < lo[dim] {
		return out
	}
	if n.pts != nil {
		for _, e := range n.pts {
			ok := true
			for d := dim; d < t.dims; d++ {
				c := e.Coords[d]
				if c < lo[d] || c > hi[d] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, e.Row)
			}
		}
		return out
	}
	if n.min >= lo[dim] && n.max <= hi[dim] {
		if dim == t.dims-1 {
			return t.collectRows(n, out)
		}
		return n.assoc.queryRows(n.assoc.root, dim+1, lo, hi, out)
	}
	out = t.queryRows(n.left, dim, lo, hi, out)
	out = t.queryRows(n.right, dim, lo, hi, out)
	return out
}

func (t *RangeTree) collectRows(n *rtNode, out []int32) []int32 {
	if n.pts != nil {
		for _, e := range n.pts {
			out = append(out, e.Row)
		}
		return out
	}
	out = t.collectRows(n.left, out)
	return t.collectRows(n.right, out)
}

// Count returns the number of points inside the closed box without
// materializing ids.
func (t *RangeTree) Count(lo, hi []float64) int {
	if t.root == nil {
		return 0
	}
	t.checkBox(lo, hi)
	return t.count(t.root, 0, lo, hi)
}

func (t *RangeTree) count(n *rtNode, dim int, lo, hi []float64) int {
	if n == nil || n.min > hi[dim] || n.max < lo[dim] {
		return 0
	}
	if n.pts != nil {
		c := 0
		for _, e := range n.pts {
			ok := true
			for d := dim; d < t.dims; d++ {
				v := e.Coords[d]
				if v < lo[d] || v > hi[d] {
					ok = false
					break
				}
			}
			if ok {
				c++
			}
		}
		return c
	}
	if n.min >= lo[dim] && n.max <= hi[dim] {
		if dim == t.dims-1 {
			return t.size(n)
		}
		return n.assoc.count(n.assoc.root, dim+1, lo, hi)
	}
	return t.count(n.left, dim, lo, hi) + t.count(n.right, dim, lo, hi)
}

func (t *RangeTree) size(n *rtNode) int {
	if n.pts != nil {
		return len(n.pts)
	}
	return t.size(n.left) + t.size(n.right)
}
