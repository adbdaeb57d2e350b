// Package combinator implements the ⊕ effect-combination operators of SGL
// (§2, §3.1 of the paper). Every write to an effect variable during a tick
// is folded through the attribute's combinator; combinators must be
// commutative and associative so that writes can be combined in any order,
// including in parallel.
package combinator

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Kind enumerates the built-in combinators.
type Kind uint8

const (
	Invalid  Kind = iota
	Sum           // numeric addition
	Avg           // numeric mean over contributions
	Min           // numeric minimum
	Max           // numeric maximum
	Count         // number of contributions (payload ignored)
	And           // boolean conjunction
	Or            // boolean disjunction
	MinBy         // value carried by the smallest key (NaN last; equal keys: smallest value)
	MaxBy         // value carried by the largest key (NaN last; equal keys: smallest value)
	SetUnion      // set union (used by the `<=` set-insert operator)
)

// Parse maps an SGL source keyword to a combinator kind.
func Parse(name string) (Kind, error) {
	switch name {
	case "sum":
		return Sum, nil
	case "avg":
		return Avg, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "count":
		return Count, nil
	case "and":
		return And, nil
	case "or":
		return Or, nil
	case "minby":
		return MinBy, nil
	case "maxby":
		return MaxBy, nil
	case "union":
		return SetUnion, nil
	default:
		return Invalid, fmt.Errorf("combinator: unknown combinator %q", name)
	}
}

func (k Kind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case Count:
		return "count"
	case And:
		return "and"
	case Or:
		return "or"
	case MinBy:
		return "minby"
	case MaxBy:
		return "maxby"
	case SetUnion:
		return "union"
	default:
		return "invalid"
	}
}

// ResultKind returns the value kind a combinator produces given the kind of
// the effect attribute it combines.
func (k Kind) ResultKind(attr value.Kind) value.Kind {
	switch k {
	case Count:
		return value.KindNumber
	case And, Or:
		return value.KindBool
	case SetUnion:
		return value.KindSet
	default:
		return attr
	}
}

// Accepts reports whether the combinator may be declared on an effect
// attribute of the given kind.
func (k Kind) Accepts(attr value.Kind) bool {
	switch k {
	case Sum, Avg, Min, Max:
		return attr == value.KindNumber
	case And, Or:
		return attr == value.KindBool
	case Count:
		return true
	case MinBy, MaxBy:
		// Payload must be scalar so that ties can be broken
		// deterministically regardless of combination order.
		return attr != value.KindSet
	case SetUnion:
		return attr == value.KindSet
	default:
		return false
	}
}

// Accumulator folds effect contributions for a single (object, attribute)
// pair during one tick. The zero Accumulator (after New) represents "no
// contributions"; Result reports whether any arrived.
//
// Accumulators are value types: Merge combines two partial accumulations,
// enabling parallel effect computation with no synchronization (paper §4.2).
// A per-row effect buffer is a Column, which stores the payload combinators
// unboxed and keeps Accumulators only for minby, maxby and union.
type Accumulator struct {
	kind  Kind
	n     int64
	num   float64     // sum / min / max / bool fold
	key   float64     // MinBy/MaxBy selection key
	val   value.Value // MinBy/MaxBy payload
	set   *value.Set
	attrK value.Kind
}

// New returns an empty accumulator for combinator k over attribute kind ak.
func New(k Kind, ak value.Kind) Accumulator {
	return Accumulator{kind: k, attrK: ak}
}

// Kind returns the combinator kind.
func (a *Accumulator) Kind() Kind { return a.kind }

// Add folds one contribution into the accumulator. For MinBy/MaxBy, key
// selects the winner; other combinators ignore key.
func (a *Accumulator) Add(v value.Value, key float64) {
	switch a.kind {
	case Sum, Avg:
		a.num += v.AsNumber()
	case Min:
		if a.n == 0 || v.AsNumber() < a.num {
			a.num = v.AsNumber()
		}
	case Max:
		if a.n == 0 || v.AsNumber() > a.num {
			a.num = v.AsNumber()
		}
	case Count:
		// payload ignored
	case And:
		if a.n == 0 {
			a.num = 1
		}
		if !v.AsBool() {
			a.num = 0
		}
	case Or:
		if v.AsBool() {
			a.num = 1
		}
	case MinBy, MaxBy:
		if a.n == 0 || a.beatenBy(key, v) {
			a.key, a.val = key, v
		}
	case SetUnion:
		if a.set == nil {
			a.set = value.NewSet()
		}
		switch v.Kind() {
		case value.KindSet:
			for _, e := range v.AsSet().Elems() {
				a.set.Add(e)
			}
		default:
			a.set.Add(v)
		}
	}
	a.n++
}

// AddPayloads folds a batch of contributions given as raw column payloads
// (bool = 0/1, ref = id), in slice order. keys carries the minby/maxby
// selection keys and may be nil for other combinators. The fold replicates
// Add comparison-for-comparison — including NaN behaviour and the
// deterministic minby/maxby tie-break, which for payload kinds reduces to a
// plain float compare (value.Compare orders those kinds by payload) — so a
// batch fold is bit-identical to the equivalent sequence of Add calls.
// It supports every combinator whose attribute kind has a columnar payload;
// SetUnion (whose contributions are sets) is the caller's responsibility to
// avoid.
func (a *Accumulator) AddPayloads(vals, keys []float64) {
	switch a.kind {
	case Sum, Avg:
		for _, v := range vals {
			a.num += v
		}
	case Min:
		for _, v := range vals {
			if a.n == 0 || v < a.num {
				a.num = v
			}
			a.n++
		}
		return
	case Max:
		for _, v := range vals {
			if a.n == 0 || v > a.num {
				a.num = v
			}
			a.n++
		}
		return
	case Count:
	case And:
		for _, v := range vals {
			if a.n == 0 {
				a.num = 1
			}
			if v == 0 {
				a.num = 0
			}
			a.n++
		}
		return
	case Or:
		for _, v := range vals {
			if v != 0 {
				a.num = 1
			}
			a.n++
		}
		return
	case MinBy, MaxBy:
		max := a.kind == MaxBy
		for i, v := range vals {
			key := keys[i]
			if a.n == 0 || ByBeats(max, key, a.key, v, a.val.AsNumber()) {
				a.key, a.val = key, payloadValue(a.attrK, v)
			}
			a.n++
		}
		return
	case SetUnion:
		panic("combinator: AddPayloads on a set-union accumulator")
	}
	a.n += int64(len(vals))
}

// ByBeats reports whether a minby (max false) or maxby (max true)
// contribution of key k and payload v displaces the winner so far, of key bk
// and payload bv. Keys rank ascending for minby and descending for maxby,
// NaN after every number; equal keys (NaN with NaN too) rank payloads
// ascending, NaN last again. So the winner does not depend on the order
// contributions arrive in.
func ByBeats(max bool, k, bk, v, bv float64) bool {
	if k == bk || k != k && bk != bk {
		return v < bv || bv != bv && v == v
	}
	return k == k && (bk != bk || k > bk == max)
}

// beatenBy is ByBeats over a boxed payload (strings rank lexically).
func (a *Accumulator) beatenBy(k float64, v value.Value) bool {
	max := a.kind == MaxBy
	if v.Kind() != value.KindString {
		return ByBeats(max, k, a.key, v.AsNumber(), a.val.AsNumber())
	}
	if k == a.key || k != k && a.key != a.key {
		return v.Compare(a.val) < 0
	}
	return ByBeats(max, k, a.key, 0, 0)
}

// ResultPayload returns the combined value as a raw column payload, for
// accumulators whose result kind has one (callers guarantee that; it is
// exactly payloadOf(Result()) without the boxing). The second result is
// false when no contribution arrived.
func (a *Accumulator) ResultPayload() (float64, bool) {
	if a.n == 0 {
		return 0, false
	}
	switch a.kind {
	case Sum, Min, Max:
		return a.num, true
	case Avg:
		return a.num / float64(a.n), true
	case Count:
		return float64(a.n), true
	case And, Or:
		if a.num != 0 {
			return 1, true
		}
		return 0, true
	case MinBy, MaxBy:
		switch a.val.Kind() {
		case value.KindBool:
			if a.val.AsBool() {
				return 1, true
			}
			return 0, true
		case value.KindRef:
			return float64(a.val.AsRef()), true
		default:
			return a.val.AsNumber(), true
		}
	default:
		return 0, false
	}
}

// payloadValue reconstructs a scalar value of kind k from its column
// payload.
func payloadValue(k value.Kind, f float64) value.Value {
	switch k {
	case value.KindBool:
		return value.Bool(f != 0)
	case value.KindRef:
		return value.Ref(value.ID(f))
	default:
		return value.Num(f)
	}
}

// Merge folds another partial accumulation of the same combinator into a.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	switch a.kind {
	case Sum, Avg:
		a.num += b.num
	case Min:
		if b.num < a.num {
			a.num = b.num
		}
	case Max:
		if b.num > a.num {
			a.num = b.num
		}
	case Count:
	case And:
		if b.num == 0 {
			a.num = 0
		}
	case Or:
		if b.num != 0 {
			a.num = 1
		}
	case MinBy, MaxBy:
		if a.beatenBy(b.key, b.val) {
			a.key, a.val = b.key, b.val
		}
	case SetUnion:
		if a.set == nil {
			a.set = value.NewSet()
		}
		if b.set != nil {
			for _, e := range b.set.Elems() {
				a.set.Add(e)
			}
		}
	}
	a.n += b.n
}

// Result returns the combined value and whether any contribution arrived.
// With no contributions the second result is false and the first is the
// zero value of the result kind.
func (a *Accumulator) Result() (value.Value, bool) {
	if a.n == 0 {
		return value.Zero(a.kind.ResultKind(a.attrK)), false
	}
	switch a.kind {
	case Sum, Min, Max:
		return value.Num(a.num), true
	case Avg:
		return value.Num(a.num / float64(a.n)), true
	case Count:
		return value.Num(float64(a.n)), true
	case And, Or:
		return value.Bool(a.num != 0), true
	case MinBy, MaxBy:
		return a.val, true
	case SetUnion:
		if a.set == nil {
			return value.SetVal(value.NewSet()), true
		}
		return value.SetVal(a.set.Clone()), true
	default:
		return value.Value{}, false
	}
}

// N returns the number of contributions folded so far.
func (a *Accumulator) N() int64 { return a.n }

// Reset empties the accumulator for reuse, preserving kind information.
// Only the combinators that carry a boxed payload or a set clear those
// fields — the others never write them, and skipping the stores keeps the
// per-row reset sweep free of pointer write barriers.
func (a *Accumulator) Reset() {
	a.n, a.num, a.key = 0, 0, 0
	switch a.kind {
	case MinBy, MaxBy, SetUnion:
		a.val = value.Value{}
		a.set = nil
	}
}

// Identity returns the identity element of the combinator where one exists
// (Sum→0, Min→+inf, Max→-inf, Count→0, And→true, Or→false, SetUnion→{}).
// Avg, MinBy and MaxBy have no identity; the second result is false.
func (k Kind) Identity() (value.Value, bool) {
	switch k {
	case Sum, Count:
		return value.Num(0), true
	case Min:
		return value.Num(math.Inf(1)), true
	case Max:
		return value.Num(math.Inf(-1)), true
	case And:
		return value.Bool(true), true
	case Or:
		return value.Bool(false), true
	case SetUnion:
		return value.SetVal(value.NewSet()), true
	default:
		return value.Value{}, false
	}
}
