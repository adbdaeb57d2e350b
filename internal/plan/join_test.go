package plan

import "testing"

func TestJoinModeStrings(t *testing.T) {
	for m, want := range map[JoinMode]string{JoinBatched: "batched", JoinScalar: "scalar", JoinMode(2): "join(2)"} {
		if m.String() != want {
			t.Errorf("JoinMode %d = %q, want %q", m, m.String(), want)
		}
	}
}
