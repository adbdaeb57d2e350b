package combinator

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

var payloadKinds = []Kind{Sum, Avg, Min, Max, Count, And, Or}

// payloadAttr is the attribute kind a payload combinator is declared over.
func payloadAttr(k Kind) value.Kind {
	if k == And || k == Or {
		return value.KindBool
	}
	return value.KindNumber
}

// Restoring a saved cell undoes every later fold exactly — the rollback an
// aborted transaction needs. Subtracting the contribution back out would
// leave 0.1 + 1e17 - 1e17 = 0 here.
func TestColumnRestoreUndoesFolds(t *testing.T) {
	for _, k := range []Kind{Sum, Avg, Count} {
		c := NewColumn(k, value.KindNumber)
		c.Grow(1)
		c.Add(0, value.Num(0.1), 0)
		want, _ := c.Result(0)
		saved := c.Save(0)
		c.Add(0, value.Num(1e17), 0)
		c.Add(0, value.Num(-4), 0)
		c.Restore(0, saved)
		if got, ok := c.Result(0); !ok || !sameBits(got, want) {
			t.Errorf("%v: restored result %v, want %v", k, got, want)
		}
		c.Clear()
		if c.Save(0) != (Cell{}) {
			t.Errorf("%v: Clear left the cell non-empty", k)
		}
		c.Add(0, value.Num(2), 0)
		c.Restore(0, Cell{})
		if _, ok := c.Result(0); ok {
			t.Errorf("%v: restoring an empty cell must leave no contribution", k)
		}
	}
}

// Property: a Column is bit-identical to a []Accumulator fed the same
// operations — single adds, kernel batch folds, transaction-style
// apply+rollback and clears — for every payload combinator, including NaN,
// ±0, ±Inf and 1e300 payloads. After every operation the zero-copy result
// vector equals ResultPayload (or 0 for an empty cell) on every row.
func TestColumnMatchesAccumulators(t *testing.T) {
	const rows = 24
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0.1, 1, -3}
	for _, k := range payloadKinds {
		ak := payloadAttr(k)
		rng := rand.New(rand.NewSource(int64(k)))
		payload := func() float64 {
			if ak == value.KindBool {
				return float64(rng.Intn(2))
			}
			if rng.Intn(2) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64() * 100
		}
		c := NewColumn(k, ak)
		c.Grow(rows)
		ref := make([]Accumulator, rows)
		for r := range ref {
			ref[r] = New(k, ak)
		}
		add := func(r int, p float64) {
			v := payloadValue(ak, p)
			ref[r].Add(v, 0)
			c.Add(r, v, 0)
		}
		var buf []float64
		for step := 0; step < 2000; step++ {
			op := rng.Intn(10)
			switch {
			case op < 4:
				add(rng.Intn(rows), payload())
			case op < 7:
				lo := rng.Intn(rows)
				hi := lo + rng.Intn(rows-lo+1)
				mask := make([]bool, rows)
				vals := make([]float64, rows)
				for r := lo; r < hi; r++ {
					mask[r], vals[r] = rng.Intn(3) > 0, payload()
					if mask[r] {
						ref[r].AddPayloads(vals[r:r+1], nil)
					}
				}
				c.AddPayloadRows(lo, mask[lo:hi], vals[lo:hi], nil)
			case op < 9:
				// A transaction: save, apply, and (half the time) roll back
				// in reverse order. Rows may repeat within one transaction.
				type undo struct {
					r    int
					cell Cell
					acc  Accumulator
				}
				var log []undo
				scatter := rng.Intn(2) == 0 // fold the writes with SaveFoldAt
				var srows []int32
				var svals []float64
				var saved []Cell
				for i := rng.Intn(4) + 1; i > 0; i-- {
					r := rng.Intn(rows)
					log = append(log, undo{r, c.Save(r), ref[r]})
					if !scatter {
						add(r, payload())
						continue
					}
					p := payload()
					srows, svals = append(srows, int32(r)), append(svals, p)
					ref[r].AddPayloads([]float64{p}, nil)
				}
				if scatter {
					idx := make([]int32, len(srows))
					for j := range idx {
						idx[j] = int32(j)
					}
					saved = make([]Cell, len(srows))
					c.SaveFoldAt(idx, srows, svals, saved)
					for j, r := range srows {
						// A row's first write saves its state before the batch.
						if !slices.Contains(srows[:j], r) {
							if s := log[j].cell; saved[j].n != s.n || !sameFloat(saved[j].num, s.num) {
								t.Fatalf("%v: SaveFoldAt saved row %d as %v, want %v", k, r, saved[j], s)
							}
						}
					}
				}
				if rng.Intn(2) == 0 {
					// Roll back in reverse; a scatter fold restores from the
					// cells SaveFoldAt saved, as admission does.
					for i := len(log) - 1; i >= 0; i-- {
						if scatter {
							c.Restore(int(srows[i]), saved[i])
						} else {
							c.Restore(log[i].r, log[i].cell)
						}
						ref[log[i].r] = log[i].acc
					}
				}
			default:
				c.Clear()
				for r := range ref {
					ref[r].Reset()
				}
			}
			buf = c.ResultPayloads(buf, rows)
			for r := range ref {
				want, wok := ref[r].Result()
				got, gok := c.Result(r)
				if gok != wok || !sameBits(got, want) {
					t.Fatalf("%v step %d row %d: Result %v/%v, want %v/%v", k, step, r, got, gok, want, wok)
				}
				p, ok := ref[r].ResultPayload()
				if !ok {
					p = 0
				}
				if !sameFloat(buf[r], p) {
					t.Fatalf("%v step %d row %d: result payload %v, want %v", k, step, r, buf[r], p)
				}
			}
		}
	}
}

// The zero-copy kinds hand out the fold column itself; the others fill the
// caller's buffer.
func TestColumnResultPayloadsZeroCopy(t *testing.T) {
	for _, k := range payloadKinds {
		c := NewColumn(k, payloadAttr(k))
		c.Grow(8)
		own := make([]float64, 8)
		vec := c.ResultPayloads(own, 8)
		aliased := &vec[0] == &c.num[0]
		want := k != Avg && k != Count
		if aliased != want {
			t.Errorf("%v: ResultPayloads aliases the fold column = %v, want %v", k, aliased, want)
		}
		if !want && &vec[0] != &own[0] {
			t.Errorf("%v: ResultPayloads must fill the caller's buffer", k)
		}
		if c.BoxedCells() != 0 {
			t.Errorf("%v: payload column holds %d boxed accumulators", k, c.BoxedCells())
		}
	}
	c := NewColumn(MinBy, value.KindRef)
	c.Grow(8)
	if c.BoxedCells() != 8 || len(c.num) != 0 {
		t.Errorf("minby column: %d boxed cells, %d payload cells; want 8, 0", c.BoxedCells(), len(c.num))
	}
}

func sameBits(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindNumber {
		return sameFloat(a.AsNumber(), b.AsNumber())
	}
	return a.Equal(b)
}

// sameFloat is bitwise equality with every NaN one value: which NaN payload
// survives an operation on two NaNs depends on the operand order the
// compiler picks, not on the fold.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
