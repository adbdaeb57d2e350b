package plan

import (
	"fmt"
	"math"
)

// PartitionStrategy selects how a partitioned world (Options.Partitions > 0)
// splits class extents across shared-nothing partitions (§4.2 of the paper).
// Spatial strategies cut the world along a designated position attribute so
// neighborhood joins stay partition-local up to a ghost margin; hash
// partitioning is the communication-oblivious strawman the paper's spatial
// reasoning argues against (every partition needs a replica of everything).
type PartitionStrategy uint8

const (
	// PartitionAuto lets ChoosePartition pick the spatial layout with the
	// smallest modeled ghost volume (the default).
	PartitionAuto PartitionStrategy = iota
	// PartitionStripes cuts 1-D stripes along the first position axis.
	PartitionStripes
	// PartitionGrid cuts a 2-D px×py grid over both position axes.
	PartitionGrid
	// PartitionHash assigns objects to partitions by id hash, ignoring
	// space entirely.
	PartitionHash
)

func (s PartitionStrategy) String() string {
	switch s {
	case PartitionAuto:
		return "auto"
	case PartitionStripes:
		return "stripes"
	case PartitionGrid:
		return "grid"
	case PartitionHash:
		return "hash"
	default:
		return fmt.Sprintf("partition(%d)", uint8(s))
	}
}

// ChoosePartition resolves the partition layout for one class: parts
// partitions over axes spatial dimensions spanning w×h world units. It
// returns the resolved strategy plus the grid factorization (px×py == parts;
// stripes are px=parts, py=1).
//
// The cost entry models ghost volume: every cut line of length L forces a
// ghost margin of 2·R·L around it (R = the interaction radius), so for a
// fixed R the best layout is the one with the least total cut length.
// Stripes cut (parts-1) lines of length h; a px×py grid cuts (px-1) lines of
// length h plus (py-1) lines of length w. R itself cancels out of the
// comparison, which is what lets the layout be fixed before the per-tick
// radius is known.
func (c Costs) ChoosePartition(mode PartitionStrategy, parts, axes int, w, h float64) (PartitionStrategy, int, int) {
	if parts < 1 {
		parts = 1
	}
	if mode == PartitionHash {
		return PartitionHash, parts, 1
	}
	if axes < 2 || parts == 1 {
		return PartitionStripes, parts, 1
	}
	if mode == PartitionStripes {
		return PartitionStripes, parts, 1
	}
	cut := func(px, py int) float64 {
		return float64(px-1)*h + float64(py-1)*w
	}
	bestX, bestY := parts, 1
	bestCut := cut(parts, 1)
	grid2D := false // best factorization with both sides > 1
	gridX, gridY := parts, 1
	gridCut := math.Inf(1)
	for px := 1; px <= parts; px++ {
		if parts%px != 0 {
			continue
		}
		py := parts / px
		if d := cut(px, py); d < bestCut {
			bestX, bestY, bestCut = px, py, d
		}
		if px > 1 && py > 1 {
			if d := cut(px, py); d < gridCut {
				gridX, gridY, gridCut = px, py, d
				grid2D = true
			}
		}
	}
	if mode == PartitionGrid {
		if grid2D {
			return PartitionGrid, gridX, gridY
		}
		// parts is prime (or 2): the only grid is a degenerate stripe row.
		return PartitionGrid, parts, 1
	}
	if bestY == 1 {
		return PartitionStripes, bestX, 1
	}
	if bestX == 1 {
		// Horizontal stripes: model them as a 1×parts grid so the layout
		// keeps both axes.
		return PartitionGrid, 1, parts
	}
	return PartitionGrid, bestX, bestY
}

// InteractionRadius derives the reach of an accum join's probe boxes around
// per-row anchor positions, for one range dimension against one candidate
// partition axis: pos[i] is probing row i's position on the axis and
// [lo[i], hi[i]] its evaluated probe interval on the dimension (from the
// compiled range conjuncts, exactly as evalBox produces them). The returned
// reach is the largest signed distance the interval extends below and above
// the anchor, so every probe interval satisfies
//
//	[lo, hi] ⊆ [pos − reachLo, pos + reachHi]
//
// and a partition's ghost margin of (reachHi below, reachLo above) around
// its region covers every candidate its rows can reach.
//
// Semantics of degenerate bounds, pinned by TestInteractionRadius:
//   - an unbounded conjunct (lo = −Inf or hi = +Inf) makes the matching
//     reach +Inf — the caller must fall back to whole-world replication;
//   - a NaN bound collapses its interval to empty (evalBox emits
//     lo = +Inf, hi = −Inf); empty intervals probe nothing and contribute
//     nothing to the reach;
//   - a NaN anchor with a non-empty interval poisons both reaches to +Inf:
//     that row's probes have no relation to the axis, so no finite margin
//     around the axis can cover them;
//   - with no probing rows (or only empty intervals) both reaches are −Inf:
//     the empty ghost margin, since nothing can probe at all.
func InteractionRadius(pos, lo, hi []float64) (reachLo, reachHi float64) {
	reachLo, reachHi = math.Inf(-1), math.Inf(-1)
	for i := range pos {
		l, h := lo[i], hi[i]
		if !(l <= h) {
			continue // empty (or NaN-collapsed) interval: probes nothing
		}
		if math.IsNaN(pos[i]) {
			return math.Inf(1), math.Inf(1)
		}
		if d := pos[i] - l; d > reachLo {
			reachLo = d
		}
		if d := h - pos[i]; d > reachHi {
			reachHi = d
		}
	}
	return reachLo, reachHi
}

// BoundedReach reports whether a reach pair derived by InteractionRadius is
// finite enough for spatial ghosting (no unbounded conjunct forced a
// whole-world fallback).
func BoundedReach(reachLo, reachHi float64) bool {
	return !math.IsInf(reachLo, 1) && !math.IsInf(reachHi, 1)
}
