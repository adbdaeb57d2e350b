package index

import (
	"math"

	"repro/internal/value"
)

// KeySeed is the FNV-1a offset basis HashValue folds onto; start every
// composite key from it.
const KeySeed uint64 = 14695981039346656037

const fnvPrime = 1099511628211

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvBits(h uint64, bits uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(bits>>(8*uint(i))))
	}
	return h
}

// HashValue folds one scalar value into a composite equi-join key hash.
// Values that compare equal under value.Equal hash equal (-0 is normalized
// to +0); collisions between unequal values are possible and callers must
// re-check the underlying equality conjuncts — which the join executor does
// anyway, so multi-attribute equality joins can share one hashed key
// instead of probing a single-attribute superset bucket.
func HashValue(h uint64, v value.Value) uint64 {
	h = fnvByte(h, byte(v.Kind()))
	switch v.Kind() {
	case value.KindString:
		s := v.AsString()
		h = fnvBits(h, uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	default:
		f := v.AsNumber() // payload of number/bool/ref values
		if f == 0 {
			f = 0 // normalize -0 so equal values hash equal
		}
		h = fnvBits(h, math.Float64bits(f))
	}
	return h
}

// RowHash is the engine's equi-join index: hashed composite keys mapping to
// the ids and physical rows holding them. Buckets may contain hash-collision
// false positives — the join executor re-checks equality conjuncts per
// candidate — but never miss a true match. Buckets and their slices are
// retained across Reset/refill cycles, so steady-state rebuilds allocate
// nothing (stale keys keep an empty bucket until the index is dropped).
type RowHash struct {
	buckets map[uint64]*rowBucket
	n       int
}

type rowBucket struct {
	ids  []value.ID
	rows []int32
}

// NewRowHash returns an empty row hash.
func NewRowHash() *RowHash {
	return &RowHash{buckets: make(map[uint64]*rowBucket)}
}

// Reset empties every bucket, keeping the bucket table and slices for reuse.
// When stale keys dominate (buckets that stayed empty through the previous
// fill outnumber live ones), the empty buckets are dropped so key churn
// cannot grow the index without bound; with a stable key population nothing
// is freed and refills stay allocation-free.
func (h *RowHash) Reset() {
	live := 0
	for _, b := range h.buckets { //sglvet:allow maprange: occupancy count only
		if len(b.ids) > 0 {
			live++
		}
	}
	if len(h.buckets) > 2*live+16 {
		for k, b := range h.buckets { //sglvet:allow maprange: keyed deletion of empties, order-free
			if len(b.ids) == 0 {
				delete(h.buckets, k)
			}
		}
	}
	for _, b := range h.buckets { //sglvet:allow maprange: independent per-bucket resets, order-free
		b.ids = b.ids[:0]
		b.rows = b.rows[:0]
	}
	h.n = 0
}

// Insert adds one entry under a hashed key. Entries inserted in physical row
// order are returned in that order by Lookup.
func (h *RowHash) Insert(key uint64, id value.ID, row int32) {
	b := h.buckets[key]
	if b == nil {
		b = &rowBucket{}
		h.buckets[key] = b
	}
	b.ids = append(b.ids, id)
	b.rows = append(b.rows, row)
	h.n++
}

// Lookup returns the ids and rows under a hashed key (shared slices; do not
// mutate). The candidate set may include hash collisions.
func (h *RowHash) Lookup(key uint64) ([]value.ID, []int32) {
	b := h.buckets[key]
	if b == nil {
		return nil, nil
	}
	return b.ids, b.rows
}

// Len returns the number of inserted entries.
func (h *RowHash) Len() int { return h.n }

// EstimatedBytes approximates resident memory — the per-partition index
// memory accounting of §4.2, alongside RangeTree.EstimatedBytes and
// Grid.EstimatedBytes.
func (h *RowHash) EstimatedBytes() int {
	const entrySize = 8 + 4 // id + row
	const bucketOverhead = 64
	return h.n*entrySize + len(h.buckets)*bucketOverhead
}
