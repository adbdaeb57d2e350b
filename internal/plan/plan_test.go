package plan

import "testing"

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

func TestExecModeString(t *testing.T) {
	for m, want := range map[ExecMode]string{ExecVectorized: "vectorized", ExecScalar: "scalar", ExecMode(2): "exec(2)"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
