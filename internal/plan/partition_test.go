package plan

import (
	"math"
	"testing"
)

func TestChoosePartition(t *testing.T) {
	c := DefaultCosts()

	// One spatial axis can only stripe.
	if s, px, py := c.ChoosePartition(PartitionAuto, 4, 1, 100, 100); s != PartitionStripes || px != 4 || py != 1 {
		t.Fatalf("1-axis auto = %v %dx%d", s, px, py)
	}
	// Square world, 4 parts: a 2x2 grid cuts 2 lines instead of 3.
	if s, px, py := c.ChoosePartition(PartitionAuto, 4, 2, 100, 100); s != PartitionGrid || px != 2 || py != 2 {
		t.Fatalf("square auto = %v %dx%d", s, px, py)
	}
	// Wide flat world: stripes across the long axis win.
	if s, px, py := c.ChoosePartition(PartitionAuto, 4, 2, 1000, 10); s != PartitionStripes || px != 4 || py != 1 {
		t.Fatalf("wide auto = %v %dx%d", s, px, py)
	}
	// Tall thin world: the best cut is horizontal stripes, kept as a 1xN grid.
	if s, px, py := c.ChoosePartition(PartitionAuto, 4, 2, 10, 1000); s != PartitionGrid || px != 1 || py != 4 {
		t.Fatalf("tall auto = %v %dx%d", s, px, py)
	}
	// Forced modes pass through; prime counts degenerate to a stripe row.
	if s, px, py := c.ChoosePartition(PartitionStripes, 4, 2, 100, 100); s != PartitionStripes || px != 4 || py != 1 {
		t.Fatalf("forced stripes = %v %dx%d", s, px, py)
	}
	if s, px, py := c.ChoosePartition(PartitionGrid, 6, 2, 100, 100); s != PartitionGrid || px*py != 6 || px == 1 || py == 1 {
		t.Fatalf("forced grid 6 = %v %dx%d", s, px, py)
	}
	if s, px, py := c.ChoosePartition(PartitionGrid, 3, 2, 100, 100); s != PartitionGrid || px != 3 || py != 1 {
		t.Fatalf("forced grid prime = %v %dx%d", s, px, py)
	}
	if s, _, _ := c.ChoosePartition(PartitionHash, 4, 2, 100, 100); s != PartitionHash {
		t.Fatalf("forced hash = %v", s)
	}
	// Every factorization must multiply back to the partition count.
	for _, parts := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		s, px, py := c.ChoosePartition(PartitionAuto, parts, 2, 300, 200)
		if px*py != parts || px < 1 || py < 1 {
			t.Fatalf("parts=%d: %v %dx%d", parts, s, px, py)
		}
	}
}

func TestInteractionRadius(t *testing.T) {
	inf := math.Inf(1)

	// Bounded: symmetric ±10 boxes around the anchors.
	pos := []float64{0, 50, 100}
	lo := []float64{-10, 40, 90}
	hi := []float64{10, 60, 110}
	rLo, rHi := InteractionRadius(pos, lo, hi)
	if rLo != 10 || rHi != 10 || !BoundedReach(rLo, rHi) {
		t.Fatalf("bounded reach = %v/%v", rLo, rHi)
	}
	// Asymmetric and signed: a box strictly above its anchor has a negative
	// low reach.
	rLo, rHi = InteractionRadius([]float64{0}, []float64{5}, []float64{8})
	if rLo != -5 || rHi != 8 {
		t.Fatalf("asymmetric reach = %v/%v", rLo, rHi)
	}

	// Unbounded: one missing upper bound poisons the high reach only.
	rLo, rHi = InteractionRadius([]float64{0, 1}, []float64{-1, -1}, []float64{1, inf})
	if rLo != 2 || !math.IsInf(rHi, 1) || BoundedReach(rLo, rHi) {
		t.Fatalf("unbounded reach = %v/%v", rLo, rHi)
	}

	// NaN bounds: evalBox collapses the interval to (+Inf, -Inf); the row
	// probes nothing and must not contribute to the reach.
	rLo, rHi = InteractionRadius([]float64{0, 3}, []float64{inf, 1}, []float64{-inf, 7})
	if rLo != 2 || rHi != 4 {
		t.Fatalf("NaN-collapsed reach = %v/%v", rLo, rHi)
	}
	// A NaN anchor with a live interval poisons the reach entirely.
	rLo, rHi = InteractionRadius([]float64{0, math.NaN()}, []float64{-1, -1}, []float64{1, 1})
	if !math.IsInf(rLo, 1) || !math.IsInf(rHi, 1) {
		t.Fatalf("NaN-anchor reach = %v/%v", rLo, rHi)
	}

	// All rows collapsed (or no rows): the empty reach, below any finite one.
	rLo, rHi = InteractionRadius([]float64{0}, []float64{inf}, []float64{-inf})
	if !math.IsInf(rLo, -1) || !math.IsInf(rHi, -1) {
		t.Fatalf("empty reach = %v/%v", rLo, rHi)
	}
	rLo, rHi = InteractionRadius(nil, nil, nil)
	if !math.IsInf(rLo, -1) || !math.IsInf(rHi, -1) {
		t.Fatalf("no-rows reach = %v/%v", rLo, rHi)
	}
}
