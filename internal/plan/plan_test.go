package plan

import (
	"testing"

	"repro/internal/stats"
)

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Auto: "auto", NestedLoop: "nested-loop", GridIndex: "grid",
		RangeTreeIndex: "range-tree", HashIndex: "hash",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestEstimateShapes(t *testing.T) {
	s := NewSelector(RangeTreeIndex)
	// Sparse matches, large n: nested loop must be the most expensive.
	n, p := 10000, 10000
	nl := s.Estimate(NestedLoop, n, p, 2, 2)
	tree := s.Estimate(RangeTreeIndex, n, p, 2, 2)
	grid := s.Estimate(GridIndex, n, p, 2, 2)
	if nl <= tree || nl <= grid {
		t.Errorf("sparse: NL=%v must dominate tree=%v grid=%v", nl, tree, grid)
	}
	// Dense matches (k̂ ≈ n): match cost dominates; NL no longer hopeless
	// relative to the index plans.
	dense := float64(n) * 0.9
	nlD := s.Estimate(NestedLoop, n, p, dense, 2)
	treeD := s.Estimate(RangeTreeIndex, n, p, dense, 2)
	if nlD > 3*treeD {
		t.Errorf("dense: NL=%v should be within ~3x of tree=%v", nlD, treeD)
	}
	if s.Estimate(NestedLoop, 0, 0, 1, 2) != 0 {
		t.Error("empty input costs nothing")
	}
}

func TestChooseSwitchesWithHysteresis(t *testing.T) {
	s := NewSelector(NestedLoop)
	cands := []Strategy{NestedLoop, RangeTreeIndex, GridIndex}
	site := stats.NewSiteStats()
	// Sparse regime: tree is far cheaper, but switching needs SwitchTicks
	// consecutive winning ticks.
	feed := func(k float64) {
		site.Probes, site.Matches = 100, int64(k*100)
		site.EndTick()
	}
	feed(2)
	for i := 0; i < s.SwitchTicks-1; i++ {
		got := s.Choose(cands, 10000, 10000, 2, 2, site)
		if got != NestedLoop {
			t.Fatalf("tick %d: switched too early to %v", i, got)
		}
		feed(2)
	}
	if got := s.Choose(cands, 10000, 10000, 2, 2, site); got == NestedLoop {
		t.Fatal("never switched away from nested loop")
	}
	if s.Switches() != 1 {
		t.Errorf("Switches = %d", s.Switches())
	}
}

func TestChooseStableUnderNoise(t *testing.T) {
	s := NewSelector(RangeTreeIndex)
	cands := []Strategy{NestedLoop, RangeTreeIndex}
	site := stats.NewSiteStats()
	// A single noisy tick favoring NL must not flip the plan.
	site.Probes, site.Matches = 10, 10*9000
	site.EndTick()
	got := s.Choose(cands, 10000, 10, 9000, 2, site)
	if got != RangeTreeIndex {
		t.Fatalf("one noisy tick flipped the plan to %v", got)
	}
}

func TestForce(t *testing.T) {
	s := NewSelector(RangeTreeIndex)
	s.Force(NestedLoop)
	if s.Current() != NestedLoop {
		t.Error("Force")
	}
}

func TestChooseEmptyCandidates(t *testing.T) {
	s := NewSelector(NestedLoop)
	if got := s.Choose(nil, 10, 10, 1, 2, nil); got != NestedLoop {
		t.Error("no candidates keeps current")
	}
}

func TestAutoInitializesToFirstCandidate(t *testing.T) {
	s := NewSelector(Auto)
	got := s.Choose([]Strategy{GridIndex, NestedLoop}, 100, 100, 1, 2, nil)
	if got == Auto {
		t.Error("Auto must resolve to a concrete strategy")
	}
}

func TestExecModeString(t *testing.T) {
	for m, want := range map[ExecMode]string{ExecVectorized: "vectorized", ExecScalar: "scalar", ExecMode(2): "exec(2)"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
