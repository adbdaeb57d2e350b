// Package cluster holds the shared-nothing partitioning strategies and
// accounting of §4.2. Earlier revisions of this repo answered the paper's
// open questions — cross-node message cost per tick, per-node load balance,
// partitioned index memory — with a standalone simulator that re-implemented
// a cartoon of the tick. The engine now runs its real tick pipeline over
// spatial partitions with ghost replicas (engine/partition.go, enabled by
// sgl.Options.Partitions), so this package shrank to what must be shared:
// the layout math that maps positions to partitions (used by the engine for
// ownership, ghost intervals and migration detection) and the wire-cost
// model behind the message/byte counters in stats.ExecCounters. The E11/E12
// and E16 experiments measure those quantities from the real engine; we
// substitute a single-process engine for real hardware per the reproduction
// rules — the measured quantities (messages, bytes, balance, index memory)
// are properties of the partitioning logic, not of the wire.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/value"
)

// Modeled wire sizes, carried over from the original simulator's network
// model: a ghost replica or migrated row ships its position row, a foreign
// effect ships (target id, attribute, payload, key).
const (
	BytesPerGhost     = 32
	BytesPerEffect    = 16
	BytesPerMigration = 32
)

// Layout maps object positions to partitions. The first partitioned tick
// measures world bounds and cuts each spatial axis into equal-width slots;
// the layout then stays frozen for the world's life. The edge slots extend
// to ±Inf, so positions outside the measured bounds clamp to the nearest
// edge partition instead of escaping ownership (OutOfBounds reports them,
// so a stale box is observable).
type Layout struct {
	Strategy plan.PartitionStrategy // resolved: stripes, grid or hash
	Parts    int
	PX, PY   int // grid factorization; stripes are PX×1
	Axes     int // spatial axes in use: 0 (hash), 1 (stripes) or 2

	MinX, MinY float64 // measured box origin
	MaxX, MaxY float64 // measured box far edge (clamp accounting)
	WX, WY     float64 // per-slot widths (> 0)
}

// NewLayout builds a layout for parts partitions over the measured world
// box, resolving PartitionAuto through the cost model's ChoosePartition
// (least total cut length = least ghost volume). axes is how many spatial
// axes the class exposes (0 forces hash).
func NewLayout(costs plan.Costs, mode plan.PartitionStrategy, parts, axes int, minX, maxX, minY, maxY float64) (Layout, error) {
	if parts < 1 {
		return Layout{}, fmt.Errorf("cluster: need >= 1 partition, got %d", parts)
	}
	if axes == 0 && mode != plan.PartitionHash {
		mode = plan.PartitionHash // nothing spatial to cut
	}
	strat, px, py := costs.ChoosePartition(mode, parts, axes, maxX-minX, maxY-minY)
	l := Layout{
		Strategy: strat, Parts: parts, PX: px, PY: py, Axes: axes,
		MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY,
		WX: slotWidth(minX, maxX, px),
		WY: slotWidth(minY, maxY, py),
	}
	if strat == plan.PartitionHash {
		l.Axes = 0
	} else if py == 1 {
		l.Axes = 1
	}
	return l, nil
}

func slotWidth(min, max float64, n int) float64 {
	w := (max - min) / float64(n)
	if !(w > 0) { // degenerate or empty extent: any positive width works
		w = 1
	}
	return w
}

// CoordX returns the clamped partition coordinate of a position on axis 0.
// It is monotone non-decreasing in x over every float64, ±Inf included —
// the property the engine's ghost intervals rely on: the set of partitions
// whose probes can reach a point is exactly [CoordX(x−reachHi),
// CoordX(x+reachLo)], computed with the same arithmetic as ownership so no
// float rounding can drop a boundary ghost.
func (l Layout) CoordX(x float64) int { return coord(x, l.MinX, l.WX, l.PX) }

// CoordY is CoordX for axis 1.
func (l Layout) CoordY(y float64) int { return coord(y, l.MinY, l.WY, l.PY) }

// OutOfBounds reports whether a position falls outside the box the layout
// was measured over — such rows clamp into edge slots, the skew
// stats.ExecCounters.ClampedRows makes observable. NaN positions count as
// out of bounds; hash layouts have no box.
func (l Layout) OutOfBounds(x, y float64) bool {
	if l.Axes == 0 {
		return false
	}
	if !(x >= l.MinX && x <= l.MaxX) {
		return true
	}
	return l.Axes > 1 && !(y >= l.MinY && y <= l.MaxY)
}

// coord clamps in float before converting: Go leaves the int conversion of
// an out-of-range float implementation-defined (amd64 yields the minimum
// int, so 1e300 would land in slot 0), which would break monotonicity.
// NaN clamps to slot 0.
func coord(v, min, w float64, n int) int {
	f := math.Floor((v - min) / w)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// Part combines clamped axis coordinates into a partition number.
func (l Layout) Part(cx, cy int) int { return cy*l.PX + cx }

// Owner returns the partition owning an object at (x, y). Hash layouts
// ignore the position and spread by id — the §4.2 strawman.
func (l Layout) Owner(x, y float64, id value.ID) int {
	if l.Strategy == plan.PartitionHash {
		return int(uint64(id) % uint64(l.Parts))
	}
	if l.Axes < 2 {
		return l.CoordX(x)
	}
	return l.Part(l.CoordX(x), l.CoordY(y))
}
