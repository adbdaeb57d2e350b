package combinator

import "repro/internal/value"

// Column is the effect buffer of one effect attribute for one tick: a fold
// cell per physical row, stored struct-of-arrays. The payload combinators
// (sum, avg, min, max, count, and, or) fold into a dense num column beside a
// per-row contribution count — 12 bytes a row instead of a boxed
// Accumulator. num is 0 wherever the count is 0, so for sum, min, max, and
// and or the num column already is the dense result-payload vector update
// kernels read (ResultPayloads hands it out without a copy). minby, maxby and
// union carry a boxed payload or a set and keep one Accumulator per row.
//
// Every fold replicates Accumulator.Add comparison for comparison, so a
// column cell is bit-identical to an Accumulator fed the same contributions.
// Cells of distinct rows share no state: callers may fold row-disjoint cells
// concurrently.
type Column struct {
	kind  Kind
	attrK value.Kind
	num   []float64     // payload kinds: the fold, 0 wherever n is 0
	n     []int32       // payload kinds: contributions per row
	box   []Accumulator // minby, maxby, union
}

// NewColumn returns an empty column for combinator k over attribute kind ak.
func NewColumn(k Kind, ak value.Kind) Column { return Column{kind: k, attrK: ak} }

func (k Kind) boxed() bool { return k == MinBy || k == MaxBy || k == SetUnion }

// Grow extends the column to at least capacity empty rows.
func (c *Column) Grow(capacity int) {
	if c.kind.boxed() {
		for len(c.box) < capacity {
			c.box = append(c.box, New(c.kind, c.attrK))
		}
		return
	}
	if d := capacity - len(c.n); d > 0 {
		c.num = append(c.num, make([]float64, d)...)
		c.n = append(c.n, make([]int32, d)...)
	}
}

// BoxedCells reports how many boxed accumulators back the column: 0 for the
// payload combinators.
func (c *Column) BoxedCells() int { return len(c.box) }

// Add folds one contribution into row's cell and reports whether it was the
// cell's first. For minby/maxby, key selects the winner; other combinators
// ignore key.
func (c *Column) Add(row int, v value.Value, key float64) bool {
	switch c.kind {
	case Sum, Avg:
		first := c.n[row] == 0
		c.num[row] += v.AsNumber()
		c.n[row]++
		return first
	case Min, Max:
		return c.fold(row, v.AsNumber())
	case And, Or:
		p := 0.0
		if v.AsBool() {
			p = 1
		}
		return c.fold(row, p)
	case Count:
		return c.fold(row, 0)
	}
	a := &c.box[row]
	first := a.n == 0
	a.Add(v, key)
	return first
}

// fold folds payload v into a min, max, count, and or or cell, reporting a
// first contribution (sum and avg fold inline at their call sites).
func (c *Column) fold(r int, v float64) bool {
	first := c.n[r] == 0
	switch c.kind {
	case Min:
		if first || v < c.num[r] {
			c.num[r] = v
		}
	case Max:
		if first || v > c.num[r] {
			c.num[r] = v
		}
	case And:
		if first {
			c.num[r] = 1
		}
		if v == 0 {
			c.num[r] = 0
		}
	case Or:
		if v != 0 {
			c.num[r] = 1
		}
	}
	c.n[r]++
	return first
}

// AddPayloadRows folds one kernel output window: for every masked lane i
// it folds the raw column payload vals[i] (bool = 0/1, ref = id) into row
// base+i, appending the row to *touched when its cell was empty, exactly as
// Add would fold the boxed value, with the combinator dispatch hoisted out
// of the row loop for the hot kinds. mask, vals and keys are
// window-relative; keys carries minby/maxby selection keys and may be nil
// for other combinators; union has no payload and panics.
func (c *Column) AddPayloadRows(base int, mask []bool, vals, keys []float64, touched *[]int) {
	n := len(mask)
	if n == 0 {
		return
	}
	t := *touched
	switch c.kind {
	case Sum, Avg:
		num, cnt, vals := c.num[base:base+n], c.n[base:base+n], vals[:n]
		for i, on := range mask {
			if !on {
				continue
			}
			if cnt[i] == 0 {
				t = append(t, base+i)
			}
			num[i] += vals[i]
			cnt[i]++
		}
	case Count, Min, Max, And, Or:
		for i, on := range mask {
			if on && c.fold(base+i, vals[i]) {
				t = append(t, base+i)
			}
		}
	case MinBy, MaxBy:
		for i, on := range mask {
			if !on {
				continue
			}
			a := &c.box[base+i]
			if a.n == 0 {
				t = append(t, base+i)
			}
			a.AddPayloads(vals[i:i+1], keys[i:i+1])
		}
	default:
		panic("combinator: AddPayloadRows on a set-union column")
	}
	*touched = t
}

// SaveFoldAt is the scatter fold of transaction intents: for every j in idx
// whose rows[j] is a row (>= 0), in order, it saves that row's cell into
// saved[j] for a later Restore and folds payload vals[j] into it. It
// returns how many of those cells were empty before their fold. Each fold
// is Add's, comparison for comparison. Keyed (minby, maxby) and union
// columns panic.
func (c *Column) SaveFoldAt(idx, rows []int32, vals []float64, saved []Cell) (first int) {
	switch c.kind {
	case Sum, Avg:
		num, n := c.num, c.n
		for _, j := range idx {
			r := rows[j]
			if r < 0 {
				continue
			}
			saved[j] = Cell{num[r], n[r]}
			if n[r] == 0 {
				first++
			}
			num[r] += vals[j]
			n[r]++
		}
	case Count, Min, Max, And, Or:
		for _, j := range idx {
			if r := rows[j]; r >= 0 {
				saved[j] = c.Save(int(r))
				if c.fold(int(r), vals[j]) {
					first++
				}
			}
		}
	default:
		panic("combinator: SaveFoldAt on a keyed or set-union column")
	}
	return first
}

// Result returns row's combined value and whether any contribution arrived,
// exactly as Accumulator.Result would.
func (c *Column) Result(row int) (value.Value, bool) {
	if c.kind.boxed() {
		return c.box[row].Result()
	}
	n := c.n[row]
	if n == 0 {
		return value.Zero(c.kind.ResultKind(c.attrK)), false
	}
	switch c.kind {
	case Avg:
		return value.Num(c.num[row] / float64(n)), true
	case Count:
		return value.Num(float64(n)), true
	case And, Or:
		return value.Bool(c.num[row] != 0), true
	default:
		return value.Num(c.num[row]), true
	}
}

// ResultPayloads returns the dense result-payload vector of rows [0, n):
// row r holds Accumulator.ResultPayload of its cell, or 0 when the cell is
// empty. For sum, min, max, and and or that vector is the num column itself
// — no copy, and it tracks later folds until the column grows. The other
// kinds fill buf, grown as needed.
func (c *Column) ResultPayloads(buf []float64, n int) []float64 {
	switch c.kind {
	case Sum, Min, Max, And, Or:
		return c.num[:n]
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	switch c.kind {
	case Avg:
		for r, k := range c.n[:n] {
			buf[r] = 0
			if k > 0 {
				buf[r] = c.num[r] / float64(k)
			}
		}
	case Count:
		for r, k := range c.n[:n] {
			buf[r] = float64(k)
		}
	default:
		zero := 0.0 // payload of the empty result: the null ref for refs
		if c.attrK == value.KindRef {
			zero = float64(value.NullID)
		}
		for r := range buf {
			p, ok := c.box[r].ResultPayload()
			if !ok {
				p = zero
			}
			buf[r] = p
		}
	}
	return buf
}

// Cell is a payload-kind cell's fold state, saved for rollback.
type Cell struct {
	num float64
	n   int32
}

// Save returns row's fold state. Restoring it undoes every later fold into
// the cell exactly — transaction rollback (§3.1) restores instead of
// subtracting, so an aborted contribution leaves no float residue. Payload
// kinds only (the language admits only sum/avg/count inside atomic blocks).
func (c *Column) Save(row int) Cell { return Cell{c.num[row], c.n[row]} }

// Empty reports that the saved cell had no contribution.
func (s Cell) Empty() bool { return s.n == 0 }

// Restore sets row's fold state back to a state Save returned.
func (c *Column) Restore(row int, s Cell) { c.num[row], c.n[row] = s.num, s.n }

// Reset empties the listed rows. When they cover at least half the column it
// clears the whole column instead: one streaming pass beats a scatter.
func (c *Column) Reset(rows []int) {
	if !c.kind.boxed() && 2*len(rows) >= len(c.n) {
		c.Clear()
		return
	}
	for _, r := range rows {
		c.ResetRow(r)
	}
}

// ResetRow empties one row's cell.
func (c *Column) ResetRow(r int) {
	if c.kind.boxed() {
		c.box[r].Reset()
	} else {
		c.num[r], c.n[r] = 0, 0
	}
}

// Clear empties every row.
func (c *Column) Clear() {
	for i := range c.box {
		c.box[i].Reset()
	}
	clear(c.num)
	clear(c.n)
}
