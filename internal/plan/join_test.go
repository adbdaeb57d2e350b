package plan

import "testing"

func TestChooseJoin(t *testing.T) {
	c := DefaultCosts()
	// Forced modes pass through regardless of cardinality.
	if got := c.ChooseJoin(JoinScalar, 1e6, true); got != JoinScalar {
		t.Errorf("forced scalar -> %v", got)
	}
	if got := c.ChooseJoin(JoinBatched, 0, false); got != JoinBatched {
		t.Errorf("forced batched -> %v", got)
	}
	// Tiny match cardinality cannot amortize the batch setup.
	if got := c.ChooseJoin(JoinAuto, 0.5, false); got != JoinScalar {
		t.Errorf("kHat=0.5 -> %v, want scalar", got)
	}
	// Moderate cardinality batches, and the vectorizable fold batches at a
	// lower break-even than the generic inner.
	if got := c.ChooseJoin(JoinAuto, 8, true); got != JoinBatched {
		t.Errorf("kHat=8 vec -> %v, want batched", got)
	}
	if got := c.ChooseJoin(JoinAuto, 100, false); got != JoinBatched {
		t.Errorf("kHat=100 -> %v, want batched", got)
	}
	// The vec break-even sits below the generic one.
	vecAt, genAt := -1.0, -1.0
	for k := 0.25; k < 64; k *= 2 {
		if vecAt < 0 && c.ChooseJoin(JoinAuto, k, true) == JoinBatched {
			vecAt = k
		}
		if genAt < 0 && c.ChooseJoin(JoinAuto, k, false) == JoinBatched {
			genAt = k
		}
	}
	if vecAt < 0 || genAt < 0 || vecAt > genAt {
		t.Errorf("break-evens: vec %v, generic %v", vecAt, genAt)
	}
}

func TestChooseMaint(t *testing.T) {
	c := DefaultCosts()
	if got := c.ChooseMaint(0); got != MaintReuse {
		t.Errorf("dirty=0 -> %v, want reuse", got)
	}
	for _, dirty := range []int{1, 10, 900} {
		if got := c.ChooseMaint(dirty); got != MaintRebuild {
			t.Errorf("dirty=%d -> %v, want rebuild", dirty, got)
		}
	}
}

func TestJoinAndMaintStrings(t *testing.T) {
	for m, want := range map[JoinMode]string{JoinAuto: "auto", JoinScalar: "scalar", JoinBatched: "batched"} {
		if m.String() != want {
			t.Errorf("JoinMode %d = %q, want %q", m, m.String(), want)
		}
	}
	for m, want := range map[Maint]string{MaintRebuild: "rebuild", MaintReuse: "reuse"} {
		if m.String() != want {
			t.Errorf("Maint %d = %q, want %q", m, m.String(), want)
		}
	}
}
