package table

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func unitCols() []Column {
	return []Column{
		{Name: "x", Kind: value.KindNumber},
		{Name: "alive", Kind: value.KindBool},
		{Name: "name", Kind: value.KindString},
		{Name: "target", Kind: value.KindRef},
		{Name: "items", Kind: value.KindSet},
	}
}

func row(x float64, alive bool, name string, target value.ID, items *value.Set) []value.Value {
	return []value.Value{
		value.Num(x), value.Bool(alive), value.Str(name), value.Ref(target), value.SetVal(items),
	}
}

func TestInsertGetSet(t *testing.T) {
	tab := New("Unit", unitCols())
	tab.Insert(1, row(3.5, true, "a", 2, value.NewSet(value.Num(9))))
	tab.Insert(2, row(-1, false, "b", value.NullID, value.NewSet()))
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if v, ok := tab.Get(1, "x"); !ok || v.AsNumber() != 3.5 {
		t.Errorf("Get x = %v %v", v, ok)
	}
	if v, ok := tab.Get(1, "items"); !ok || !v.AsSet().Contains(value.Num(9)) {
		t.Errorf("Get items = %v", v)
	}
	if v, ok := tab.Get(2, "target"); !ok || !v.IsNullRef() {
		t.Errorf("Get target = %v", v)
	}
	if !tab.Set(1, "x", value.Num(7)) {
		t.Fatal("Set failed")
	}
	if v, _ := tab.Get(1, "x"); v.AsNumber() != 7 {
		t.Error("Set did not stick")
	}
	if _, ok := tab.Get(99, "x"); ok {
		t.Error("Get of unknown id must fail")
	}
	if _, ok := tab.Get(1, "nope"); ok {
		t.Error("Get of unknown column must fail")
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	tab.Insert(1, []value.Value{value.Num(1)})
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert must panic")
		}
	}()
	tab.Insert(1, []value.Value{value.Num(2)})
}

func TestKindMismatchPanics(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch must panic")
		}
	}()
	tab.Insert(1, []value.Value{value.Bool(true)})
}

func TestDeleteAndReuse(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	tab.Insert(1, []value.Value{value.Num(1)})
	tab.Insert(2, []value.Value{value.Num(2)})
	if !tab.Delete(1) || tab.Delete(1) {
		t.Fatal("Delete semantics")
	}
	if tab.Len() != 1 || tab.Has(1) {
		t.Fatal("after delete")
	}
	// New insert reuses the freed physical slot.
	tab.Insert(3, []value.Value{value.Num(3)})
	if tab.Cap() != 2 {
		t.Errorf("Cap = %d, want slot reuse", tab.Cap())
	}
	if v, _ := tab.Get(3, "x"); v.AsNumber() != 3 {
		t.Error("reused slot value")
	}
}

func TestForEachAndIDs(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	for i := 1; i <= 5; i++ {
		tab.Insert(value.ID(i), []value.Value{value.Num(float64(i))})
	}
	tab.Delete(3)
	var seen []value.ID
	tab.ForEach(func(row int, id value.ID) { seen = append(seen, id) })
	if len(seen) != 4 {
		t.Fatalf("ForEach visited %d rows", len(seen))
	}
	for _, id := range seen {
		if id == 3 {
			t.Error("ForEach visited a deleted row")
		}
	}
	ids := tab.IDs()
	if len(ids) != 4 {
		t.Fatalf("IDs len = %d", len(ids))
	}
}

func TestClear(t *testing.T) {
	tab := New("T", unitCols())
	tab.Insert(1, row(1, true, "a", 2, value.NewSet(value.Num(1))))
	tab.Clear()
	if tab.Len() != 0 || tab.Has(1) {
		t.Fatal("Clear")
	}
	tab.Insert(9, row(9, false, "z", value.NullID, value.NewSet()))
	if v, _ := tab.Get(9, "x"); v.AsNumber() != 9 {
		t.Error("insert after Clear")
	}
}

func TestSnapshotRestore(t *testing.T) {
	tab := New("Unit", unitCols())
	tab.Insert(1, row(1, true, "a", 2, value.NewSet(value.Num(5))))
	tab.Insert(2, row(2, false, "b", value.NullID, value.NewSet()))
	snap := tab.Snapshot()

	// Mutate: snapshot must be isolated (deep copy of sets).
	tab.Set(1, "x", value.Num(99))
	s, _ := tab.Get(1, "items")
	s.AsSet().Add(value.Num(77))
	tab.Delete(2)
	tab.Insert(3, row(3, true, "c", 1, value.NewSet()))

	tab.Restore(snap)
	if tab.Len() != 2 || !tab.Has(1) || !tab.Has(2) || tab.Has(3) {
		t.Fatal("Restore membership")
	}
	if v, _ := tab.Get(1, "x"); v.AsNumber() != 1 {
		t.Errorf("Restore x = %v", v)
	}
	if v, _ := tab.Get(1, "items"); v.AsSet().Contains(value.Num(77)) {
		t.Error("snapshot set was aliased")
	}
	// Restore must also deep-copy out of the snapshot so it can be reused.
	v, _ := tab.Get(1, "items")
	v.AsSet().Add(value.Num(123))
	tab.Restore(snap)
	if v2, _ := tab.Get(1, "items"); v2.AsSet().Contains(value.Num(123)) {
		t.Error("restore aliased the snapshot's sets")
	}
}

// TestSnapshotValidateErrors pins the validate-before-mutate contract:
// corrupt, truncated and mismatched snapshots are rejected with errors that
// name the problem, and the table is left exactly as it was.
func TestSnapshotValidateErrors(t *testing.T) {
	tab := New("Unit", unitCols())
	tab.Insert(1, row(1, true, "a", 2, value.NewSet(value.Num(5))))
	tab.Insert(2, row(2, false, "b", value.NullID, value.NewSet()))

	corrupt := func(name string, mutate func(*Snapshot), wantSub string) {
		t.Helper()
		s := tab.Snapshot()
		mutate(&s)
		err := tab.Validate(s)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: Validate = %v, want error containing %q", name, err, wantSub)
		}
		if err := tab.Restore(s); err == nil {
			t.Errorf("%s: Restore accepted an invalid snapshot", name)
		}
		if tab.Len() != 2 || !tab.Has(1) || !tab.Has(2) {
			t.Fatalf("%s: failed restore mutated the table", name)
		}
		if v, _ := tab.Get(1, "x"); v.AsNumber() != 1 {
			t.Fatalf("%s: failed restore clobbered values", name)
		}
	}

	corrupt("bad version", func(s *Snapshot) { s.Version = SnapshotVersion + 1 }, "version")
	corrupt("truncated column", func(s *Snapshot) { s.Cols[0].Nums = s.Cols[0].Nums[:1] }, "truncated")
	corrupt("missing column", func(s *Snapshot) { s.Cols = s.Cols[:len(s.Cols)-1] }, "columns")
	corrupt("renamed column", func(s *Snapshot) { s.Cols[0].Name = "xx" }, "column 0")
	corrupt("kind mismatch", func(s *Snapshot) {
		s.Cols[0].Kind = "str"
		s.Cols[0].Nums = nil
		s.Cols[0].Strs = []string{"a", "b"}
	}, "column 0")
	corrupt("duplicate id", func(s *Snapshot) { s.IDs[1] = s.IDs[0] }, "duplicate id")
	corrupt("id past the bound", func(s *Snapshot) { s.IDs[1] = MaxID + 1 }, "outside")
	corrupt("negative id", func(s *Snapshot) { s.IDs[0] = -5 }, "outside")
	corrupt("non-set payload", func(s *Snapshot) {
		for i := range s.Cols {
			if s.Cols[i].Kind == "set" {
				s.Cols[i].Sets[0] = value.Num(3)
			}
		}
	}, "want set")

	// A valid snapshot still round-trips after all the rejected attempts.
	good := tab.Snapshot()
	if err := tab.Validate(good); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	if err := tab.Restore(good); err != nil {
		t.Fatalf("Restore(good) = %v", err)
	}
}

func TestNumColumn(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	tab.Insert(1, []value.Value{value.Num(4)})
	tab.Insert(2, []value.Value{value.Num(8)})
	col := tab.NumColumn(0)
	if col[0] != 4 || col[1] != 8 {
		t.Errorf("NumColumn = %v", col)
	}
}

// TestSwapNumColumn pins the commit swap: the new storage is installed
// whole and the old one returned, the column version bumps, rows on the
// free list keep their old payload, and non-payload columns refuse.
func TestSwapNumColumn(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}, {Name: "tag", Kind: value.KindString}})
	for id := value.ID(1); id <= 3; id++ {
		tab.Insert(id, []value.Value{value.Num(float64(id)), value.Str("a")})
	}
	tab.Delete(2)
	ver, prev := tab.ColVersion(0), tab.NumColumn(0)
	if old := tab.SwapNumColumn(0, []float64{10, 20, 30}); &old[0] != &prev[0] {
		t.Error("SwapNumColumn must return the storage it replaced")
	}
	if got := tab.NumColumn(0); got[0] != 10 || got[1] != 2 || got[2] != 30 {
		t.Errorf("after swap = %v, want [10 2 30] (dead row 1 keeps its payload)", got)
	}
	if tab.ColVersion(0) == ver {
		t.Error("SwapNumColumn must bump the column version")
	}
	defer func() {
		if recover() == nil {
			t.Error("SwapNumColumn on a string column must panic")
		}
	}()
	tab.SwapNumColumn(1, make([]float64, 3))
}

func TestColumnViewsAndSetNumAt(t *testing.T) {
	tab := New("T", []Column{
		{Name: "x", Kind: value.KindNumber},
		{Name: "ok", Kind: value.KindBool},
		{Name: "to", Kind: value.KindRef},
		{Name: "tag", Kind: value.KindString},
	})
	tab.Insert(1, []value.Value{value.Num(4), value.Bool(true), value.Ref(7), value.Str("a")})
	tab.Insert(2, []value.Value{value.Num(8), value.Bool(false), value.NullRef(), value.Str("b")})
	tab.Delete(2)

	cols := tab.NumColumns()
	if cols[0][0] != 4 || cols[1][0] != 1 || cols[2][0] != 7 {
		t.Errorf("NumColumns payloads = %v %v %v", cols[0][0], cols[1][0], cols[2][0])
	}
	if cols[3] != nil {
		t.Error("string column must have nil numeric view")
	}
	mask := tab.AliveMask()
	if !mask[0] || mask[1] {
		t.Errorf("AliveMask = %v", mask)
	}

	tab.SetNumAt(0, 0, 9.5)
	tab.SetNumAt(0, 1, 0)
	tab.SetNumAt(0, 2, float64(value.NullID))
	if v, _ := tab.Get(1, "x"); v.AsNumber() != 9.5 {
		t.Errorf("SetNumAt number: %v", v)
	}
	if v, _ := tab.Get(1, "ok"); v.AsBool() {
		t.Errorf("SetNumAt bool: %v", v)
	}
	if v, _ := tab.Get(1, "to"); !v.IsNullRef() {
		t.Errorf("SetNumAt ref: %v", v)
	}

	defer func() {
		if recover() == nil {
			t.Error("SetNumAt on a string column must panic")
		}
	}()
	tab.SetNumAt(0, 3, 1)
}

// Property: a random interleaving of inserts and deletes leaves the table
// agreeing with a map-based model.
func TestInsertDeleteModelProperty(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
		model := make(map[value.ID]float64)
		next := value.ID(1)
		for _, op := range ops {
			if op >= 0 || len(model) == 0 {
				x := float64(op)
				tab.Insert(next, []value.Value{value.Num(x)})
				model[next] = x
				next++
			} else {
				// delete a random existing id
				keys := make([]value.ID, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				id := keys[rng.Intn(len(keys))]
				tab.Delete(id)
				delete(model, id)
			}
		}
		if tab.Len() != len(model) {
			return false
		}
		for id, x := range model {
			v, ok := tab.Get(id, "x")
			if !ok || v.AsNumber() != x {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
