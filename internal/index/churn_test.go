package index

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// tableSim models a columnar extent the way the engine sees it: dense
// columns with an alive mask, a free list reusing dead slots, and stable
// ids.
type tableSim struct {
	x, y   []float64
	alive  []bool
	ids    []value.ID
	free   []int
	nextID value.ID
}

func (s *tableSim) spawn(rng *rand.Rand) {
	s.nextID++
	var r int
	if len(s.free) > 0 {
		r = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		r = len(s.alive)
		s.x = append(s.x, 0)
		s.y = append(s.y, 0)
		s.alive = append(s.alive, false)
		s.ids = append(s.ids, 0)
	}
	s.alive[r] = true
	s.ids[r] = s.nextID
	s.x[r] = float64(rng.Intn(400))
	s.y[r] = float64(rng.Intn(400))
}

func (s *tableSim) kill(rng *rand.Rand) {
	live := s.liveRows()
	if len(live) == 0 {
		return
	}
	r := live[rng.Intn(len(live))]
	s.alive[r] = false
	s.free = append(s.free, r)
}

func (s *tableSim) move(rng *rand.Rand) {
	live := s.liveRows()
	if len(live) == 0 {
		return
	}
	r := live[rng.Intn(len(live))]
	s.x[r] += float64(rng.Intn(61) - 30)
	s.y[r] += float64(rng.Intn(61) - 30)
}

func (s *tableSim) liveRows() []int {
	var out []int
	for r, ok := range s.alive {
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func (s *tableSim) entries() []Entry {
	var out []Entry
	for r, ok := range s.alive {
		if ok {
			out = append(out, Entry{ID: s.ids[r], Row: int32(r), Coords: []float64{s.x[r], s.y[r]}})
		}
	}
	return out
}

// rows returns the live rows, ascending — what the engine builds grids over.
func (s *tableSim) rows() []int32 {
	var out []int32
	for r, ok := range s.alive {
		if ok {
			out = append(out, int32(r))
		}
	}
	return out
}

func (s *tableSim) bruteBox(lo, hi []float64) map[value.ID]bool {
	m := map[value.ID]bool{}
	for r, ok := range s.alive {
		if ok && s.x[r] >= lo[0] && s.x[r] <= hi[0] && s.y[r] >= lo[1] && s.y[r] <= hi[1] {
			m[s.ids[r]] = true
		}
	}
	return m
}

// checkGridAgainstFresh checks a grid reused through churn against a fresh
// build over the same rows (identical candidate order) and, when brute is
// set, against a brute-force box filter of the live extent.
func checkGridAgainstFresh(t *testing.T, sim *tableSim, g *Grid, rows []int32, brute bool, rng *rand.Rand) {
	t.Helper()
	fresh := BuildGrid(g.Cell(), sim.x, sim.y, nil, rows)
	if g.Len() != fresh.Len() || g.Len() != len(rows) {
		t.Fatalf("reused grid has %d entries, fresh build %d, rows %d", g.Len(), fresh.Len(), len(rows))
	}
	for q := 0; q < 30; q++ {
		cx, cy := float64(rng.Intn(400)), float64(rng.Intn(400))
		w := float64(rng.Intn(80) + 1)
		lo := []float64{cx - w, cy - w}
		hi := []float64{cx + w, cy + w}
		got := g.QueryRows(lo, hi, AnyKey, nil)
		want := fresh.QueryRows(lo, hi, AnyKey, nil)
		if len(got) != len(want) {
			t.Fatalf("query %v..%v: reused %d rows, fresh %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v..%v: candidate order diverged at %d: row %d vs %d", lo, hi, i, got[i], want[i])
			}
		}
		if !brute {
			continue
		}
		m := sim.bruteBox(lo, hi)
		if len(m) != len(got) {
			t.Fatalf("brute force %d matches, grid %d", len(m), len(got))
		}
		for _, r := range got {
			if !m[sim.ids[r]] {
				t.Fatalf("grid returned non-matching row %d", r)
			}
		}
	}
}

// TestGridSyncChurn drives one Builder's grid through spawn/kill/move churn,
// rebuilding it in place each round, and checks it stays exactly —
// including candidate order — a fresh build of the current extent, and
// agrees with brute force.
func TestGridSyncChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sim := &tableSim{}
	for i := 0; i < 300; i++ {
		sim.spawn(rng)
	}
	var b Builder
	g := b.BuildGrid(48, sim.x, sim.y, nil, sim.rows())
	checkGridAgainstFresh(t, sim, g, sim.rows(), true, rng)

	for round := 0; round < 25; round++ {
		ops := rng.Intn(20) + 1
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0:
				sim.spawn(rng)
			case 1:
				sim.kill(rng)
			default:
				sim.move(rng)
			}
		}
		g = b.BuildGrid(48, sim.x, sim.y, nil, sim.rows())
		checkGridAgainstFresh(t, sim, g, sim.rows(), true, rng)
	}
}

// TestBuilderRangeTreeChurn rebuilds a tree through one Builder across
// rounds of fresh random data and checks queries (ids and rows, same order)
// against brute force — the arena reuse must never leak stale state.
func TestBuilderRangeTreeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b Builder
	sim := &tableSim{}
	for i := 0; i < 200; i++ {
		sim.spawn(rng)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			switch rng.Intn(4) {
			case 0:
				sim.spawn(rng)
			case 1:
				sim.kill(rng)
			default:
				sim.move(rng)
			}
		}
		es := sim.entries()
		n := len(es)
		slab := b.Entries(n)
		copy(slab, es)
		tree := b.BuildRangeTree(2, slab)
		if tree.Len() != n {
			t.Fatalf("round %d: tree len %d, want %d", round, tree.Len(), n)
		}
		for q := 0; q < 20; q++ {
			cx, cy := float64(rng.Intn(400)), float64(rng.Intn(400))
			w := float64(rng.Intn(90) + 1)
			lo := []float64{cx - w, cy - w}
			hi := []float64{cx + w, cy + w}
			ids := tree.Query(lo, hi, nil)
			rows := tree.QueryRows(lo, hi, nil)
			if len(ids) != len(rows) {
				t.Fatalf("Query %d vs QueryRows %d", len(ids), len(rows))
			}
			for i := range rows {
				if sim.ids[rows[i]] != ids[i] {
					t.Fatalf("row/id order diverged at %d", i)
				}
			}
			brute := sim.bruteBox(lo, hi)
			if len(brute) != len(ids) {
				t.Fatalf("round %d: brute %d, tree %d", round, len(brute), len(ids))
			}
			for _, id := range ids {
				if !brute[id] {
					t.Fatalf("tree returned non-matching id %d", id)
				}
			}
		}
	}
}

// TestRowHashChurn refills one RowHash across rounds and checks bucket
// contents against brute force: every true match present, candidates in row
// order, and collisions (if any) are a superset the caller may filter.
func TestRowHashChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var b Builder
	for round := 0; round < 20; round++ {
		n := rng.Intn(300) + 10
		keys := make([]value.Value, n)
		h := b.RowHash()
		for r := 0; r < n; r++ {
			keys[r] = value.Num(float64(rng.Intn(17)))
			if rng.Intn(5) == 0 {
				keys[r] = value.Str("team-" + string(rune('a'+rng.Intn(5))))
			}
			h.Insert(HashValue(KeySeed, keys[r]), value.ID(r+1), int32(r))
		}
		if h.Len() != n {
			t.Fatalf("len %d, want %d", h.Len(), n)
		}
		for probe := 0; probe < 40; probe++ {
			want := keys[rng.Intn(n)]
			ids, rows := h.Lookup(HashValue(KeySeed, want))
			if len(ids) != len(rows) {
				t.Fatalf("ids/rows length mismatch")
			}
			seen := map[value.ID]bool{}
			last := int32(-1)
			for i, r := range rows {
				if r <= last {
					t.Fatalf("bucket rows not in row order: %v", rows)
				}
				last = r
				seen[ids[i]] = true
			}
			for r := 0; r < n; r++ {
				if keys[r].Equal(want) && !seen[value.ID(r+1)] {
					t.Fatalf("match row %d (key %v) missing from bucket", r, want)
				}
			}
		}
	}
	// -0 and +0 compare equal and must share a bucket.
	if HashValue(KeySeed, value.Num(0)) != HashValue(KeySeed, value.Num(negZero())) {
		t.Fatal("-0 and +0 hash differently")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestBuilderZeroAllocSteadyState pins the acceptance criterion: once slab
// sizes converge, rebuilding each index kind through its Builder allocates
// nothing.
func TestBuilderZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sim := &tableSim{}
	for i := 0; i < 500; i++ {
		sim.spawn(rng)
	}
	es := sim.entries()
	n := len(es)

	var tb Builder
	buildTree := func() {
		slab := tb.Entries(n)
		copy(slab, es)
		tb.BuildRangeTree(2, slab)
	}
	buildTree()
	buildTree()
	if a := testing.AllocsPerRun(20, buildTree); a > 0 {
		t.Errorf("range tree rebuild allocates %.1f/run in steady state", a)
	}

	var gb Builder
	rows := sim.rows()
	buildGrid := func() {
		gb.BuildGrid(32, sim.x, sim.y, nil, rows)
	}
	buildGrid()
	buildGrid()
	if a := testing.AllocsPerRun(20, buildGrid); a > 0 {
		t.Errorf("grid rebuild allocates %.1f/run in steady state", a)
	}

	var hb Builder
	buildHash := func() {
		h := hb.RowHash()
		for r := 0; r < n; r++ {
			h.Insert(HashValue(KeySeed, value.Num(float64(r%13))), value.ID(r+1), int32(r))
		}
	}
	buildHash()
	buildHash()
	if a := testing.AllocsPerRun(20, buildHash); a > 0 {
		t.Errorf("hash rebuild allocates %.1f/run in steady state", a)
	}
}

// TestGridSyncRowsMemberChurn drives a member-scoped grid — what the
// partitioned engine builds per partition — through random membership
// churn: each round perturbs the extent (moves, spawns, kills) AND re-draws
// the member subset (rows entering/leaving a partition's ownership
// interval), rebuilds the grid through the same Builder, and checks it is
// bit-indistinguishable, candidate order included, from a fresh build over
// exactly the current members.
func TestGridSyncRowsMemberChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sim := &tableSim{}
	for i := 0; i < 300; i++ {
		sim.spawn(rng)
	}
	// Membership: rows whose x falls inside a sliding window.
	memberRows := func(lo, hi float64) []int32 {
		var rows []int32
		for r, ok := range sim.alive {
			if ok && sim.x[r] >= lo && sim.x[r] <= hi {
				rows = append(rows, int32(r))
			}
		}
		return rows
	}

	var b Builder
	winLo, winHi := 50.0, 250.0
	rows := memberRows(winLo, winHi)
	g := b.BuildGrid(40, sim.x, sim.y, nil, rows)
	checkGridAgainstFresh(t, sim, g, rows, false, rng)

	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			sim.move(rng)
		}
		for i := 0; i < 3; i++ {
			sim.kill(rng)
			sim.spawn(rng)
		}
		// Slide the ownership window so rows enter and leave membership —
		// including across "epochs" (larger jumps every few rounds).
		if round%5 == 4 {
			winLo += float64(rng.Intn(81) - 40)
		} else {
			winLo += float64(rng.Intn(11) - 5)
		}
		winHi = winLo + 200
		rows = memberRows(winLo, winHi)
		g = b.BuildGrid(40, sim.x, sim.y, nil, rows)
		checkGridAgainstFresh(t, sim, g, rows, false, rng)
	}
}
