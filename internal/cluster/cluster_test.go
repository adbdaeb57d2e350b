package cluster_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/value"
)

func layout(t *testing.T, mode plan.PartitionStrategy, parts, axes int) cluster.Layout {
	t.Helper()
	l, err := cluster.NewLayout(mode, parts, axes, 0, 100, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutValidation(t *testing.T) {
	if _, err := cluster.NewLayout(plan.PartitionAuto, 0, 2, 0, 1, 0, 1); err == nil {
		t.Fatal("zero partitions must fail")
	}
	// A degenerate world box (all objects at one point) must still produce a
	// usable layout instead of a division by zero.
	l, err := cluster.NewLayout(plan.PartitionStripes, 4, 1, 5, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.WX <= 0 || l.CoordX(5) < 0 || l.CoordX(5) >= 4 {
		t.Fatalf("degenerate layout: %+v", l)
	}
}

func TestStripeOwnership(t *testing.T) {
	l := layout(t, plan.PartitionStripes, 4, 1)
	if l.Axes != 1 || l.PX != 4 || l.PY != 1 {
		t.Fatalf("layout = %+v", l)
	}
	// Clamping: out-of-bounds positions belong to the edge partitions.
	if l.Owner(-5, 0, 1) != 0 || l.Owner(500, 0, 1) != 3 {
		t.Error("stripes must clamp out-of-range positions")
	}
	if l.Owner(10, 0, 1) != 0 || l.Owner(60, 0, 1) != 2 {
		t.Error("stripe assignment")
	}
	if l.Owner(math.NaN(), 0, 1) != 0 {
		t.Error("NaN positions must clamp deterministically")
	}
}

func TestGridOwnership(t *testing.T) {
	l := layout(t, plan.PartitionAuto, 4, 2)
	if l.Strategy != plan.PartitionGrid || l.PX != 2 || l.PY != 2 {
		t.Fatalf("square auto layout = %+v", l)
	}
	if l.Owner(10, 10, 1) != 0 || l.Owner(90, 10, 1) != 1 ||
		l.Owner(10, 90, 1) != 2 || l.Owner(90, 90, 1) != 3 {
		t.Error("grid assignment")
	}
}

func TestHashOwnership(t *testing.T) {
	l := layout(t, plan.PartitionHash, 4, 2)
	if l.Axes != 0 {
		t.Fatalf("hash layout keeps axes: %+v", l)
	}
	seen := map[int]bool{}
	for id := 1; id <= 100; id++ {
		p := l.Owner(0, 0, value.ID(id))
		if p < 0 || p >= 4 {
			t.Fatalf("partition out of range: %d", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Error("hash must use all partitions")
	}
	// Position-independent: the same id always lands on the same partition.
	if l.Owner(0, 0, 7) != l.Owner(93, 12, 7) {
		t.Error("hash ownership must ignore position")
	}
}

// TestCoordMonotone pins the property the engine's ghost-interval derivation
// depends on: the clamped coordinate functions are monotone in the position
// over every float64, and agree exactly with ownership (no epsilon mismatch
// at boundaries). Past ±1e19 a slot index no longer fits an int; a
// position there must still clamp to the edge slot, not wrap to slot 0, or
// it would drop out of a neighboring partition's ghost interval.
func TestCoordMonotone(t *testing.T) {
	xs := []float64{math.Inf(-1), -math.MaxFloat64, -1e300, -1e19}
	for i := 0; i <= 1000; i++ {
		xs = append(xs, -50+float64(i)*0.2)
	}
	xs = append(xs, 1e19, 1e300, math.MaxFloat64, math.Inf(1))
	for _, l := range []cluster.Layout{
		layout(t, plan.PartitionStripes, 7, 1),
		layout(t, plan.PartitionGrid, 4, 2),
	} {
		prevX, prevY := 0, 0
		for _, v := range xs {
			cx, cy := l.CoordX(v), l.CoordY(v)
			if cx < prevX || cy < prevY || cx >= l.PX || cy >= l.PY {
				t.Fatalf("%v: coord(%v) = (%d, %d) after (%d, %d)", l.Strategy, v, cx, cy, prevX, prevY)
			}
			want := cx
			if l.Axes == 2 {
				want = l.Part(cx, cy)
			}
			if own := l.Owner(v, v, 1); own != want {
				t.Fatalf("%v: Owner(%v) = %d, coords (%d, %d)", l.Strategy, v, own, cx, cy)
			}
			prevX, prevY = cx, cy
		}
		if prevX != l.PX-1 || prevY != l.PY-1 {
			t.Fatalf("%v: +Inf clamps to (%d, %d), want the last slots", l.Strategy, prevX, prevY)
		}
	}
}
