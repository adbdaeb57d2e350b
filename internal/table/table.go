// Package table implements the columnar main-memory tables that back SGL
// class extents (§4 of the paper). Storage is one typed slice per column
// with an alive bitmap and a free list, so scans are cache-friendly and row
// ids stay stable across deletes.
package table

import (
	"fmt"

	"repro/internal/value"
)

// Column declares one column of a table.
type Column struct {
	Name string
	Kind value.Kind
}

// Table is a columnar main-memory relation keyed by value.ID. Numbers,
// booleans and refs share float64 storage; strings and sets have their own
// slices. Deleted slots are reused via a free list.
type Table struct {
	name   string
	cols   []Column
	colIdx map[string]int

	nums [][]float64    // per column, for number/bool/ref columns (else nil)
	strs [][]string     // per column, for string columns (else nil)
	sets [][]*value.Set // per column, for set columns (else nil)

	ids   []value.ID
	alive []bool
	index idIndex // id → row
	free  []int
	n     int // live row count

	// Cheap change detection for index reuse (§4.1): colVer[i] bumps on
	// every write to column i, structVer on every insert/delete/restore.
	// A per-tick index whose source columns and structure versions are
	// unchanged since it was built is still valid verbatim.
	colVer    []uint64
	structVer uint64

	// dict, when non-nil, maintains a float64 code lane in nums for every
	// string column (the dictionary-encoded payload vectorized kernels
	// execute over). The strs slices stay the source of truth for At/Get.
	dict *Dict
}

// New creates an empty table with the given columns.
func New(name string, cols []Column) *Table {
	return NewWithDict(name, cols, nil)
}

// NewWithDict creates an empty table whose string columns carry
// dictionary-encoded float64 code lanes alongside the string storage,
// using (and extending) the given shared dictionary.
func NewWithDict(name string, cols []Column, dict *Dict) *Table {
	t := &Table{
		dict:   dict,
		name:   name,
		cols:   cols,
		colIdx: make(map[string]int, len(cols)),
		nums:   make([][]float64, len(cols)),
		strs:   make([][]string, len(cols)),
		sets:   make([][]*value.Set, len(cols)),
		colVer: make([]uint64, len(cols)),
	}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			panic(fmt.Sprintf("table %s: duplicate column %q", name, c.Name))
		}
		t.colIdx[c.Name] = i
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Dict returns the shared string dictionary, or nil when the table stores
// strings without code lanes.
func (t *Table) Dict() *Dict { return t.dict }

// Columns returns the column declarations.
func (t *Table) Columns() []Column { return t.cols }

// ColIndex returns the index of a column, or -1 if absent.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.n }

// Cap returns the number of physical slots (live + free).
func (t *Table) Cap() int { return len(t.ids) }

// Insert adds a row for id with the given values (one per column, in
// declaration order). It panics if id already exists, lies outside
// [0, MaxID] or arity mismatches.
func (t *Table) Insert(id value.ID, vals []value.Value) int {
	if id < 0 || id > MaxID {
		panic(fmt.Sprintf("table %s: id %d outside [0, %d]", t.name, id, MaxID))
	}
	if t.index.get(id) >= 0 {
		panic(fmt.Sprintf("table %s: duplicate id %d", t.name, id))
	}
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("table %s: insert arity %d, want %d", t.name, len(vals), len(t.cols)))
	}
	t.structVer++
	var row int
	if k := len(t.free); k > 0 {
		row = t.free[k-1]
		t.free = t.free[:k-1]
		t.ids[row] = id
		t.alive[row] = true
	} else {
		row = len(t.ids)
		t.ids = append(t.ids, id)
		t.alive = append(t.alive, true)
		for i, c := range t.cols {
			switch c.Kind {
			case value.KindString:
				t.strs[i] = append(t.strs[i], "")
				if t.dict != nil {
					t.nums[i] = append(t.nums[i], 0) // dict code of ""
				}
			case value.KindSet:
				t.sets[i] = append(t.sets[i], nil)
			default:
				t.nums[i] = append(t.nums[i], 0)
			}
		}
	}
	for i := range t.cols {
		t.setRaw(row, i, vals[i])
	}
	t.index.put(id, row)
	t.n++
	return row
}

// Delete removes the row for id. Returns false if id is absent.
func (t *Table) Delete(id value.ID) bool {
	row := t.index.get(id)
	if row < 0 {
		return false
	}
	t.structVer++
	t.index.del(id)
	t.alive[row] = false
	// Release set pointers so the GC can reclaim them.
	for i, c := range t.cols {
		if c.Kind == value.KindSet {
			t.sets[i][row] = nil
		}
	}
	t.free = append(t.free, row)
	t.n--
	return true
}

// Has reports whether id is a live row.
func (t *Table) Has(id value.ID) bool { return t.index.get(id) >= 0 }

// Row returns the physical row index for id, or -1.
func (t *Table) Row(id value.ID) int { return t.index.get(id) }

// ID returns the object id stored at physical row r (valid only if alive).
func (t *Table) ID(r int) value.ID { return t.ids[r] }

// Alive reports whether physical row r is live.
func (t *Table) Alive(r int) bool { return r >= 0 && r < len(t.alive) && t.alive[r] }

// Get returns the value at (id, column name). The second result is false if
// the id or column is unknown.
func (t *Table) Get(id value.ID, col string) (value.Value, bool) {
	row := t.index.get(id)
	if row < 0 {
		return value.Value{}, false
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return value.Value{}, false
	}
	return t.At(row, ci), true
}

// Set assigns the value at (id, column name). Returns false if unknown.
func (t *Table) Set(id value.ID, col string, v value.Value) bool {
	row := t.index.get(id)
	if row < 0 {
		return false
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return false
	}
	t.setRaw(row, ci, v)
	return true
}

// At returns the value at a physical (row, column-index) position.
func (t *Table) At(row, ci int) value.Value {
	switch t.cols[ci].Kind {
	case value.KindNumber:
		return value.Num(t.nums[ci][row])
	case value.KindBool:
		return value.Bool(t.nums[ci][row] != 0)
	case value.KindRef:
		return value.Ref(value.ID(t.nums[ci][row]))
	case value.KindString:
		return value.Str(t.strs[ci][row])
	case value.KindSet:
		s := t.sets[ci][row]
		if s == nil {
			s = value.NewSet()
		}
		return value.SetVal(s)
	default:
		return value.Value{}
	}
}

// SetAt assigns the value at a physical (row, column-index) position.
func (t *Table) SetAt(row, ci int, v value.Value) { t.setRaw(row, ci, v) }

func (t *Table) setRaw(row, ci int, v value.Value) {
	t.colVer[ci]++
	k := t.cols[ci].Kind
	if v.Kind() != k {
		panic(fmt.Sprintf("table %s: column %s is %s, got %s", t.name, t.cols[ci].Name, k, v.Kind()))
	}
	switch k {
	case value.KindNumber:
		t.nums[ci][row] = v.AsNumber()
	case value.KindBool:
		if v.AsBool() {
			t.nums[ci][row] = 1
		} else {
			t.nums[ci][row] = 0
		}
	case value.KindRef:
		t.nums[ci][row] = float64(v.AsRef())
	case value.KindString:
		t.strs[ci][row] = v.AsString()
		if t.dict != nil {
			// Keep the dictionary-encoded code lane in step; interning only
			// happens here, in serial phases.
			t.nums[ci][row] = t.dict.Code(v.AsString())
		}
	case value.KindSet:
		t.sets[ci][row] = v.AsSet()
	}
}

// NumColumn exposes the raw float64 storage of a numeric/bool/ref column for
// vectorized operators and index construction. Callers must treat it as
// read-only and consult Alive for liveness.
func (t *Table) NumColumn(ci int) []float64 { return t.nums[ci] }

// NumColumns exposes the float64 storage of every column at once, indexed
// by column index; entries for set columns are nil, and entries for string
// columns are nil unless the table has a dictionary (then they hold the
// dictionary code lane). This is the read-only column view the vectorized
// batch evaluator executes over — callers must not write through it and
// must consult AliveMask for liveness.
func (t *Table) NumColumns() [][]float64 { return t.nums }

// AliveMask exposes the liveness bitmap indexed by physical row. Read-only;
// it aliases table storage and changes on Insert/Delete.
func (t *Table) AliveMask() []bool { return t.alive }

// SetNumAt stores a raw float64 payload at a physical (row, column-index)
// position of a number, bool or ref column (bool = 0/1, ref = id). It is
// the unboxed write path of the vectorized update step and panics on
// string/set columns, whose payloads are not columnar floats.
func (t *Table) SetNumAt(row, ci int, f float64) {
	t.colVer[ci]++
	switch t.cols[ci].Kind {
	case value.KindNumber, value.KindBool, value.KindRef:
		t.nums[ci][row] = f
	default:
		panic(fmt.Sprintf("table %s: SetNumAt on %s column %s", t.name, t.cols[ci].Kind, t.cols[ci].Name))
	}
}

// SwapNumColumn installs vals as the payload storage of a number, bool or
// ref column and returns the storage it replaces, bumping the column version
// once: the bulk write of a fully computed next-epoch column, O(1) instead
// of a copy. vals must span Cap rows. Rows on the free list keep their old
// payload (it is copied into vals), so what a dead slot holds never depends
// on what the caller computed for it.
func (t *Table) SwapNumColumn(ci int, vals []float64) []float64 {
	t.colVer[ci]++
	switch t.cols[ci].Kind {
	case value.KindNumber, value.KindBool, value.KindRef:
	default:
		panic(fmt.Sprintf("table %s: SwapNumColumn on %s column %s", t.name, t.cols[ci].Kind, t.cols[ci].Name))
	}
	old := t.nums[ci]
	vals = vals[:len(old)]
	for _, r := range t.free {
		vals[r] = old[r]
	}
	t.nums[ci] = vals
	return old
}

// ForEach invokes fn for every live row in physical order.
func (t *Table) ForEach(fn func(row int, id value.ID)) {
	for r, ok := range t.alive {
		if ok {
			fn(r, t.ids[r])
		}
	}
}

// IDs returns all live ids in physical-row order.
func (t *Table) IDs() []value.ID {
	out := make([]value.ID, 0, t.n)
	for r, ok := range t.alive {
		if ok {
			out = append(out, t.ids[r])
		}
	}
	return out
}

// RowValues materializes a full tuple for a physical row.
func (t *Table) RowValues(row int) []value.Value {
	out := make([]value.Value, len(t.cols))
	for i := range t.cols {
		out[i] = t.At(row, i)
	}
	return out
}

// ColVersion returns the write-version counter of a column: it changes
// whenever any row's value in that column is (re)assigned.
func (t *Table) ColVersion(ci int) uint64 { return t.colVer[ci] }

// StructVersion returns the structural version counter: it changes whenever
// a row is inserted, deleted or the table is cleared/restored.
func (t *Table) StructVersion() uint64 { return t.structVer }

// RawIDs exposes the backing id slice indexed by physical row, including
// dead slots (consult Alive). Read-only; it aliases table storage.
func (t *Table) RawIDs() []value.ID { return t.ids }

// LiveRows appends the physical indexes of every live row, ascending, and
// returns the extended slice (pass a reused buffer to avoid allocation).
func (t *Table) LiveRows(buf []int32) []int32 {
	for r, ok := range t.alive {
		if ok {
			buf = append(buf, int32(r))
		}
	}
	return buf
}

// View is a read-only view over a subset of a table's physical rows — the
// partition-local slice of a shared columnar extent in the engine's
// shared-nothing execution mode (§4.2). A view holds row indexes, not data:
// the columns stay in the backing table, so building one costs nothing per
// row and ghost replicas are literal row references rather than copies.
type View struct {
	t    *Table
	rows []int32
}

// ViewOf wraps a set of physical row indexes (which the caller keeps sorted
// ascending) as a view of this table. The slice is aliased, not copied.
func (t *Table) ViewOf(rows []int32) View { return View{t: t, rows: rows} }

// Table returns the backing table.
func (v View) Table() *Table { return v.t }

// Rows returns the member physical rows (read-only, ascending).
func (v View) Rows() []int32 { return v.rows }

// Len returns the number of member rows.
func (v View) Len() int { return len(v.rows) }

// Clear removes all rows but keeps capacity.
func (t *Table) Clear() {
	t.structVer++
	for i := range t.alive {
		t.alive[i] = false
	}
	for i, c := range t.cols {
		if c.Kind == value.KindSet {
			for r := range t.sets[i] {
				t.sets[i][r] = nil
			}
		}
	}
	t.index.clear()
	t.free = t.free[:0]
	for r := range t.ids {
		t.free = append(t.free, r)
	}
	t.n = 0
}

// SnapshotVersion is the current snapshot wire-format version. Version 1
// (never tagged on the wire) was the boxed row-at-a-time format; version 2
// is columnar: one compacted payload slab per column, deep-copied directly
// from table storage.
const SnapshotVersion = 2

// Snapshot captures a deep copy of the table contents for checkpointing
// (paper §3.3: logging with resumable checkpoints). The layout is columnar —
// live rows compact to indexes 0..len(IDs)-1 and each column carries one
// payload slab in that row order — so taking and restoring a snapshot is a
// handful of slab copies, not a boxed value.Value per cell. Restore
// validates Version and the full column layout before touching the table.
type Snapshot struct {
	Version int           `json:"version"`
	IDs     []value.ID    `json:"ids"`
	Cols    []ColSnapshot `json:"cols"`
}

// ColSnapshot is the deep-copied payload slab of one column, compacted to
// live rows. Exactly one of Nums/Strs/Sets is populated, matching Kind:
// number, bool and ref columns copy their raw float64 lane (bools as 0/1,
// refs as float-widened ids), string columns copy the string slice (the
// dictionary code lane is re-derived against the restoring table's Dict, so
// a snapshot restores exactly under any dictionary), and set columns carry
// cloned set values.
type ColSnapshot struct {
	Name string        `json:"name"`
	Kind string        `json:"kind"`
	Nums []float64     `json:"nums,omitempty"`
	Strs []string      `json:"strs,omitempty"`
	Sets []value.Value `json:"sets,omitempty"`
}

// kindName gives the stable wire name of a column kind (independent of the
// value.Kind enum ordering, which is not a serialization contract).
func kindName(k value.Kind) string {
	switch k {
	case value.KindNumber:
		return "num"
	case value.KindBool:
		return "bool"
	case value.KindRef:
		return "ref"
	case value.KindString:
		return "str"
	case value.KindSet:
		return "set"
	}
	return "invalid"
}

// Snapshot returns a deep columnar copy of all live rows.
func (t *Table) Snapshot() Snapshot {
	s := Snapshot{
		Version: SnapshotVersion,
		IDs:     make([]value.ID, 0, t.n),
		Cols:    make([]ColSnapshot, len(t.cols)),
	}
	full := t.n == len(t.ids) // no dead slots: slabs copy whole
	s.IDs = append(s.IDs, t.ids...)
	if !full {
		s.IDs = s.IDs[:0]
		for r, ok := range t.alive {
			if ok {
				s.IDs = append(s.IDs, t.ids[r])
			}
		}
	}
	for i, c := range t.cols {
		cs := ColSnapshot{Name: c.Name, Kind: kindName(c.Kind)}
		switch c.Kind {
		case value.KindString:
			if full {
				cs.Strs = append([]string(nil), t.strs[i]...)
			} else {
				cs.Strs = make([]string, 0, t.n)
				for r, ok := range t.alive {
					if ok {
						cs.Strs = append(cs.Strs, t.strs[i][r])
					}
				}
			}
		case value.KindSet:
			cs.Sets = make([]value.Value, 0, t.n)
			for r, ok := range t.alive {
				if ok {
					set := t.sets[i][r]
					if set == nil {
						set = value.NewSet()
					}
					cs.Sets = append(cs.Sets, value.SetVal(set.Clone()))
				}
			}
		default:
			if full {
				cs.Nums = append([]float64(nil), t.nums[i]...)
			} else {
				cs.Nums = make([]float64, 0, t.n)
				for r, ok := range t.alive {
					if ok {
						cs.Nums = append(cs.Nums, t.nums[i][r])
					}
				}
			}
		}
		s.Cols[i] = cs
	}
	return s
}

// validateSnapshot checks version, column layout and payload arity before
// any table state is touched, so a corrupt, truncated or mismatched snapshot
// is rejected with a clear error and the table left intact.
func (t *Table) validateSnapshot(s Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("table %s: unsupported snapshot version %d (want %d)", t.name, s.Version, SnapshotVersion)
	}
	if len(s.Cols) != len(t.cols) {
		return fmt.Errorf("table %s: snapshot has %d columns, want %d", t.name, len(s.Cols), len(t.cols))
	}
	n := len(s.IDs)
	for i, c := range t.cols {
		cs := s.Cols[i]
		if cs.Name != c.Name || cs.Kind != kindName(c.Kind) {
			return fmt.Errorf("table %s: snapshot column %d is %s %s, want %s %s",
				t.name, i, cs.Kind, cs.Name, kindName(c.Kind), c.Name)
		}
		got := len(cs.Nums)
		switch c.Kind {
		case value.KindString:
			got = len(cs.Strs)
		case value.KindSet:
			got = len(cs.Sets)
			for r, v := range cs.Sets {
				if v.Kind() != value.KindSet {
					return fmt.Errorf("table %s: snapshot column %s row %d holds %s, want set", t.name, c.Name, r, v.Kind())
				}
			}
		}
		if got != n {
			return fmt.Errorf("table %s: snapshot column %s is truncated: %d payloads for %d rows", t.name, c.Name, got, n)
		}
	}
	seen := make(map[value.ID]struct{}, n)
	for _, id := range s.IDs {
		if id < 0 || id > MaxID {
			return fmt.Errorf("table %s: snapshot id %d outside [0, %d]", t.name, id, MaxID)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("table %s: snapshot has duplicate id %d", t.name, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// Validate checks a snapshot's version, column layout and payload arity
// against this table's schema without touching any table state — the
// engine's checkpoint restore validates every table before mutating any.
func (t *Table) Validate(s Snapshot) error { return t.validateSnapshot(s) }

// growTo extends the physical slot arrays to at least n rows (all dead).
func (t *Table) growTo(n int) {
	for len(t.ids) < n {
		t.ids = append(t.ids, 0)
		t.alive = append(t.alive, false)
		for i, c := range t.cols {
			switch c.Kind {
			case value.KindString:
				t.strs[i] = append(t.strs[i], "")
				if t.dict != nil {
					t.nums[i] = append(t.nums[i], 0) // dict code of ""
				}
			case value.KindSet:
				t.sets[i] = append(t.sets[i], nil)
			default:
				t.nums[i] = append(t.nums[i], 0)
			}
		}
	}
}

// Restore replaces the table contents with a snapshot, validating the
// format first. Payload slabs copy columnar into rows 0..len(IDs)-1; string
// columns re-derive their dictionary code lane against the table's own
// Dict, and sets deep-copy out of the snapshot so it stays reusable.
func (t *Table) Restore(s Snapshot) error {
	if err := t.validateSnapshot(s); err != nil {
		return err
	}
	t.Clear()
	n := len(s.IDs)
	t.growTo(n)
	for r := 0; r < n; r++ {
		id := s.IDs[r]
		t.ids[r] = id
		t.alive[r] = true
		t.index.put(id, r)
	}
	t.free = t.free[:0]
	for r := n; r < len(t.ids); r++ {
		t.free = append(t.free, r)
	}
	t.n = n
	for i, c := range t.cols {
		t.colVer[i]++
		cs := s.Cols[i]
		switch c.Kind {
		case value.KindString:
			copy(t.strs[i], cs.Strs)
			if t.dict != nil {
				for r, str := range cs.Strs {
					t.nums[i][r] = t.dict.Code(str)
				}
			}
		case value.KindSet:
			for r, v := range cs.Sets {
				t.sets[i][r] = v.AsSet().Clone()
			}
		case value.KindBool:
			for r, f := range cs.Nums {
				if f != 0 {
					t.nums[i][r] = 1
				} else {
					t.nums[i][r] = 0
				}
			}
		default:
			copy(t.nums[i], cs.Nums)
		}
	}
	return nil
}
