package table

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// heldPages counts the pages the index holds among the given page numbers.
func (x *idIndex) heldPages(pages []value.ID) int {
	n := 0
	for _, p := range pages {
		if int(p) < len(x.dir) && x.dir[p] != nil {
			n++
		}
	}
	return n
}

// The paged id index is invisible: under random inserts, deletes, clears
// and snapshot restores it answers Row, Has and Get exactly like a reference
// map — across row reuse, pages that empty and are released, and ids at
// the MaxID bound — and holds exactly the pages its live ids fall in.
func TestIDIndexMatchesReferenceMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
		ref := map[value.ID]float64{}
		// Ids come from three clusters: the start of the id space, a page
		// boundary, and the top of the id space, so pages fill, empty and
		// are released and the bound itself is exercised.
		draw := func() value.ID {
			switch rng.Intn(3) {
			case 0:
				return value.ID(rng.Intn(3 * idPageSize))
			case 1:
				return value.ID(50*idPageSize - 8 + rng.Intn(16))
			}
			return MaxID - value.ID(rng.Intn(2*idPageSize))
		}
		// Every page a drawn id can fall in; scanning the whole directory,
		// which reaches MaxID, after every operation would dominate the test.
		top := MaxID >> idPageBits
		candidates := []value.ID{0, 1, 2, 3, 48, 49, 50, top - 2, top - 1, top}
		check := func(op string) {
			t.Helper()
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d after %s: Len %d, want %d", seed, op, tab.Len(), len(ref))
			}
			pages := map[value.ID]bool{}
			for id, x := range ref {
				pages[id>>idPageBits] = true
				r := tab.Row(id)
				if r < 0 || tab.ID(r) != id || !tab.Has(id) {
					t.Fatalf("seed %d after %s: live id %d resolves to row %d", seed, op, id, r)
				}
				if v, ok := tab.Get(id, "x"); !ok || v.AsNumber() != x {
					t.Fatalf("seed %d after %s: id %d reads %v, want %v", seed, op, id, v, x)
				}
			}
			for i := 0; i < 64; i++ {
				id := draw()
				if _, live := ref[id]; !live && (tab.Row(id) >= 0 || tab.Has(id)) {
					t.Fatalf("seed %d after %s: dead id %d resolves", seed, op, id)
				}
			}
			for _, id := range []value.ID{value.NullID, -1 << 40, MaxID + 1, 1 << 62} {
				if tab.Row(id) >= 0 {
					t.Fatalf("seed %d: out-of-range id %d resolves", seed, id)
				}
			}
			if got := tab.index.heldPages(candidates); got != len(pages) {
				t.Fatalf("seed %d after %s: %d pages held, want %d", seed, op, got, len(pages))
			}
		}
		var snap Snapshot
		var snapRef map[value.ID]float64
		for step := 0; step < 600; step++ {
			switch k := rng.Intn(100); {
			case k < 55:
				id := draw()
				if _, live := ref[id]; live {
					continue
				}
				x := rng.Float64()
				tab.Insert(id, []value.Value{value.Num(x)})
				ref[id] = x
				check("insert")
			case k < 90:
				if len(ref) > 0 {
					ids := tab.IDs() // deterministic: physical-row order
					id := ids[rng.Intn(len(ids))]
					if !tab.Delete(id) {
						t.Fatalf("seed %d: Delete(%d) of a live id failed", seed, id)
					}
					delete(ref, id)
				}
				if tab.Delete(MaxID + 1) {
					t.Fatal("Delete of an out-of-range id succeeded")
				}
				check("delete")
			case k < 93:
				tab.Clear()
				ref = map[value.ID]float64{}
				check("clear")
			case k < 97:
				snap = tab.Snapshot()
				snapRef = map[value.ID]float64{}
				for id, x := range ref {
					snapRef[id] = x
				}
			default:
				if snapRef == nil {
					continue
				}
				if err := tab.Restore(snap); err != nil {
					t.Fatal(err)
				}
				ref = map[value.ID]float64{}
				for id, x := range snapRef {
					ref[id] = x
				}
				check("restore")
			}
		}
	}
}

// Ids outside [0, MaxID] are refused: Insert panics (the engine never
// issues one) and Restore rejects the snapshot before touching the table.
func TestIDBound(t *testing.T) {
	tab := New("T", []Column{{Name: "x", Kind: value.KindNumber}})
	tab.Insert(MaxID, []value.Value{value.Num(1)})
	if tab.Row(MaxID) != 0 {
		t.Fatal("id MaxID does not resolve")
	}
	for _, id := range []value.ID{MaxID + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", id)
				}
			}()
			tab.Insert(id, []value.Value{value.Num(2)})
		}()
		bad := Snapshot{Version: SnapshotVersion, IDs: []value.ID{id},
			Cols: []ColSnapshot{{Name: "x", Kind: "num", Nums: []float64{3}}}}
		if err := tab.Restore(bad); err == nil {
			t.Errorf("Restore of id %d succeeded", id)
		}
		if tab.Len() != 1 || tab.Row(MaxID) != 0 {
			t.Fatal("a rejected restore changed the table")
		}
	}
}
