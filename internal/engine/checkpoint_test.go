package engine_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/table"
	"repro/internal/workload"
)

func checkpointWorld(t *testing.T) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateVehicles(w, workload.Uniform(50, 4000, 4000, 9)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	return w
}

// worldSig fingerprints the world so tests can assert "unchanged".
func worldSig(w *engine.World) []float64 {
	var sig []float64
	for _, id := range w.IDs("Vehicle") {
		for _, attr := range []string{"x", "y", "fuel", "odo"} {
			v, _ := w.Get("Vehicle", id, attr)
			sig = append(sig, v.AsNumber())
		}
	}
	return sig
}

func sigEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRejectsBadVersion pins the validate-before-mutate
// contract: a checkpoint with an unknown layout version is rejected with a
// clear error and the world is left byte-for-byte untouched.
func TestCheckpointRejectsBadVersion(t *testing.T) {
	w := checkpointWorld(t)
	before := worldSig(w)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = engine.CheckpointVersion + 7
	err = w.Restore(cp)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Restore(bad version) = %v, want version error", err)
	}
	if !sigEqual(worldSig(w), before) {
		t.Fatal("failed restore mutated the world")
	}
}

// TestCheckpointRejectsUnknownClass rejects checkpoints mentioning classes
// this program does not declare.
func TestCheckpointRejectsUnknownClass(t *testing.T) {
	w := checkpointWorld(t)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Tables["Ghost"] = cp.Tables["Vehicle"]
	err = w.Restore(cp)
	if err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Fatalf("Restore(unknown class) = %v, want unknown-class error", err)
	}
}

// TestCheckpointRejectsTruncatedTable pins per-table validation: a
// truncated column slab fails before any table is restored, naming the
// class, and the world stays unchanged.
func TestCheckpointRejectsTruncatedTable(t *testing.T) {
	w := checkpointWorld(t)
	before := worldSig(w)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap := cp.Tables["Vehicle"]
	snap.Cols[0].Nums = snap.Cols[0].Nums[:len(snap.Cols[0].Nums)-1]
	cp.Tables["Vehicle"] = snap
	err = w.Restore(cp)
	if err == nil || !strings.Contains(err.Error(), "Vehicle") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Restore(truncated) = %v, want truncated-column error naming the class", err)
	}
	if !sigEqual(worldSig(w), before) {
		t.Fatal("failed restore mutated the world")
	}
}

// TestCheckpointSnapshotIsolation pins that checkpoints are deep copies:
// ticking the world after Checkpoint must not disturb the captured
// snapshot, and restoring replays it exactly.
func TestCheckpointSnapshotIsolation(t *testing.T) {
	w := checkpointWorld(t)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	at := worldSig(w)
	if err := w.Run(4); err != nil {
		t.Fatal(err)
	}
	if sigEqual(worldSig(w), at) {
		t.Fatal("world did not advance")
	}
	if err := w.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !sigEqual(worldSig(w), at) {
		t.Fatal("restore did not reproduce checkpoint state")
	}
	var _ table.Snapshot = cp.Tables["Vehicle"]
	if cp.Tables["Vehicle"].Version != table.SnapshotVersion {
		t.Fatalf("checkpoint carries snapshot version %d, want %d",
			cp.Tables["Vehicle"].Version, table.SnapshotVersion)
	}
}

// TestCheckpointRejectsBadIDSpace pins the id-space checks: a checkpoint
// whose ids fall outside [1, NextID) — so the next Spawn would collide with
// a restored object — or whose NextID exceeds the id index's bound is
// rejected before anything is touched, naming the class, and the world
// keeps spawning normally afterwards.
func TestCheckpointRejectsBadIDSpace(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(cp *engine.Checkpoint)
		want    []string
	}{
		{"NextID at a live id", func(cp *engine.Checkpoint) { cp.NextID = cp.Tables["Vehicle"].IDs[0] }, []string{"Vehicle", "NextID"}},
		{"NextID below every id", func(cp *engine.Checkpoint) { cp.NextID = 1 }, []string{"Vehicle", "NextID"}},
		{"id zero", func(cp *engine.Checkpoint) { cp.Tables["Vehicle"].IDs[0] = 0 }, []string{"Vehicle", "outside"}},
		{"NextID past the bound", func(cp *engine.Checkpoint) { cp.NextID = table.MaxID + 2 }, []string{"NextID"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := checkpointWorld(t)
			before := worldSig(w)
			cp, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(cp)
			err = w.Restore(cp)
			for _, s := range c.want {
				if err == nil || !strings.Contains(err.Error(), s) {
					t.Fatalf("Restore = %v, want an error mentioning %q", err, s)
				}
			}
			if !sigEqual(worldSig(w), before) {
				t.Fatal("failed restore mutated the world")
			}
			if _, err := w.Spawn("Vehicle", nil); err != nil {
				t.Fatal(err)
			}
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointRejectsIDInTwoClasses rejects a checkpoint that restores
// one id into two classes, naming both.
func TestCheckpointRejectsIDInTwoClasses(t *testing.T) {
	sc, err := core.LoadScenario("pair", `
class A {
  state:
    number n = 0;
}
class B {
  state:
    number n = 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.Spawn("A", nil)
	b, _ := w.Spawn("B", nil)
	cp, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Tables["B"].IDs[0] = a
	err = w.Restore(cp)
	if err == nil || !strings.Contains(err.Error(), "class A") || !strings.Contains(err.Error(), "class B") {
		t.Fatalf("Restore = %v, want a duplicate-id error naming both classes", err)
	}
	if w.Count("A") != 1 || w.Count("B") != 1 || w.MustGet("B", b, "n").AsNumber() != 0 {
		t.Fatal("failed restore mutated the world")
	}
}
