package combinator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestParse(t *testing.T) {
	for _, name := range []string{"sum", "avg", "min", "max", "count", "and", "or", "minby", "maxby", "union"} {
		k, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("Parse(%q).String() = %q", name, k.String())
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse must reject unknown combinators")
	}
}

func TestAccepts(t *testing.T) {
	if !Sum.Accepts(value.KindNumber) || Sum.Accepts(value.KindBool) {
		t.Error("sum accepts numbers only")
	}
	if !And.Accepts(value.KindBool) || And.Accepts(value.KindNumber) {
		t.Error("and accepts bools only")
	}
	if !SetUnion.Accepts(value.KindSet) || SetUnion.Accepts(value.KindNumber) {
		t.Error("union accepts sets only")
	}
	if MaxBy.Accepts(value.KindSet) {
		t.Error("maxby payload must be scalar")
	}
	if !Count.Accepts(value.KindNumber) || !Count.Accepts(value.KindRef) {
		t.Error("count accepts anything")
	}
}

func addAll(k Kind, ak value.Kind, vs []value.Value, keys []float64) value.Value {
	a := New(k, ak)
	for i, v := range vs {
		key := 0.0
		if keys != nil {
			key = keys[i]
		}
		a.Add(v, key)
	}
	v, _ := a.Result()
	return v
}

func TestScalarCombinators(t *testing.T) {
	nums := []value.Value{value.Num(3), value.Num(-1), value.Num(5), value.Num(5)}
	if got := addAll(Sum, value.KindNumber, nums, nil); got.AsNumber() != 12 {
		t.Errorf("sum = %v", got)
	}
	if got := addAll(Avg, value.KindNumber, nums, nil); got.AsNumber() != 3 {
		t.Errorf("avg = %v", got)
	}
	if got := addAll(Min, value.KindNumber, nums, nil); got.AsNumber() != -1 {
		t.Errorf("min = %v", got)
	}
	if got := addAll(Max, value.KindNumber, nums, nil); got.AsNumber() != 5 {
		t.Errorf("max = %v", got)
	}
	if got := addAll(Count, value.KindNumber, nums, nil); got.AsNumber() != 4 {
		t.Errorf("count = %v", got)
	}
	bools := []value.Value{value.Bool(true), value.Bool(true), value.Bool(false)}
	if got := addAll(And, value.KindBool, bools, nil); got.AsBool() {
		t.Error("and with a false input must be false")
	}
	if got := addAll(Or, value.KindBool, bools, nil); !got.AsBool() {
		t.Error("or with a true input must be true")
	}
}

func TestMinByMaxBy(t *testing.T) {
	vs := []value.Value{value.Ref(1), value.Ref(2), value.Ref(3)}
	keys := []float64{5, 2, 9}
	if got := addAll(MinBy, value.KindRef, vs, keys); got.AsRef() != 2 {
		t.Errorf("minby = %v", got)
	}
	if got := addAll(MaxBy, value.KindRef, vs, keys); got.AsRef() != 3 {
		t.Errorf("maxby = %v", got)
	}
	// Tie-break: equal keys choose the smaller payload, independent of order.
	tie := addAll(MaxBy, value.KindRef, []value.Value{value.Ref(9), value.Ref(4)}, []float64{7, 7})
	tie2 := addAll(MaxBy, value.KindRef, []value.Value{value.Ref(4), value.Ref(9)}, []float64{7, 7})
	if tie.AsRef() != 4 || tie2.AsRef() != 4 {
		t.Errorf("maxby tie-break: %v / %v, want #4", tie, tie2)
	}
}

func TestSetUnionCombinator(t *testing.T) {
	a := New(SetUnion, value.KindSet)
	a.Add(value.Num(1), 0) // single element contribution (the <= form)
	a.Add(value.SetVal(value.NewSet(value.Num(2), value.Num(3))), 0)
	a.Add(value.Num(2), 0)
	v, ok := a.Result()
	if !ok || v.AsSet().Len() != 3 {
		t.Fatalf("union result = %v", v)
	}
}

func TestEmptyResult(t *testing.T) {
	for _, k := range []Kind{Sum, Avg, Min, Max, Count, And, Or, MinBy, MaxBy, SetUnion} {
		a := New(k, value.KindNumber)
		if k == SetUnion {
			a = New(k, value.KindSet)
		}
		v, ok := a.Result()
		if ok {
			t.Errorf("%v: empty accumulator reports a contribution", k)
		}
		if !v.IsValid() {
			t.Errorf("%v: empty result must still be a typed zero", k)
		}
	}
}

func TestReset(t *testing.T) {
	a := New(Sum, value.KindNumber)
	a.Add(value.Num(5), 0)
	a.Reset()
	if a.N() != 0 {
		t.Error("Reset must clear count")
	}
	if _, ok := a.Result(); ok {
		t.Error("Reset must clear contributions")
	}
	a.Add(value.Num(2), 0)
	if v, _ := a.Result(); v.AsNumber() != 2 {
		t.Error("accumulator must be reusable after Reset")
	}
}

func TestIdentity(t *testing.T) {
	cases := map[Kind]value.Value{
		Sum: value.Num(0), Count: value.Num(0),
		Min: value.Num(math.Inf(1)), Max: value.Num(math.Inf(-1)),
		And: value.Bool(true), Or: value.Bool(false),
	}
	for k, want := range cases {
		v, ok := k.Identity()
		if !ok || !v.Equal(want) {
			t.Errorf("%v identity = %v (%v)", k, v, ok)
		}
	}
	if _, ok := Avg.Identity(); ok {
		t.Error("avg has no identity")
	}
}

// Property: for every combinator, merging split partial accumulations in
// any split position equals accumulating sequentially — the algebraic fact
// that makes parallel effect computation correct (§4.2).
func TestMergeEqualsSequentialProperty(t *testing.T) {
	kinds := []Kind{Sum, Avg, Min, Max, Count, And, Or, MinBy, MaxBy}
	f := func(raw []float64, split uint8, kidx uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = float64(i)
			} else {
				raw[i] = math.Mod(x, 1000) // game-scale magnitudes
			}
		}
		k := kinds[int(kidx)%len(kinds)]
		ak := value.KindNumber
		mkVal := func(x float64) value.Value { return value.Num(x) }
		if k == And || k == Or {
			ak = value.KindBool
			mkVal = func(x float64) value.Value { return value.Bool(x > 0) }
		}
		s := int(split) % (len(raw) + 1)

		seq := New(k, ak)
		for _, x := range raw {
			seq.Add(mkVal(x), x)
		}
		left, right := New(k, ak), New(k, ak)
		for _, x := range raw[:s] {
			left.Add(mkVal(x), x)
		}
		for _, x := range raw[s:] {
			right.Add(mkVal(x), x)
		}
		left.Merge(right)

		a, aok := seq.Result()
		b, bok := left.Result()
		if aok != bok {
			return false
		}
		if !aok {
			return true
		}
		if a.Kind() == value.KindNumber {
			return value.NumbersEqual(a.AsNumber(), b.AsNumber(), 1e-9)
		}
		return a.Equal(b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: order of Add calls does not change the result (commutativity),
// required because scripts run in unspecified order (§2.1).
func TestOrderIndependenceProperty(t *testing.T) {
	kinds := []Kind{Sum, Min, Max, Count, And, Or, MinBy, MaxBy}
	f := func(raw []float64, kidx uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = float64(i)
			} else {
				raw[i] = math.Mod(x, 1000) // game-scale magnitudes
			}
		}
		k := kinds[int(kidx)%len(kinds)]
		ak := value.KindNumber
		mkVal := func(x float64) value.Value { return value.Num(x) }
		if k == And || k == Or {
			ak = value.KindBool
			mkVal = func(x float64) value.Value { return value.Bool(x > 0) }
		}
		perm := rand.New(rand.NewSource(seed)).Perm(len(raw))

		a := New(k, ak)
		for _, x := range raw {
			a.Add(mkVal(x), x)
		}
		b := New(k, ak)
		for _, i := range perm {
			b.Add(mkVal(raw[i]), raw[i])
		}
		av, _ := a.Result()
		bv, _ := b.Result()
		if av.Kind() == value.KindNumber {
			return value.NumbersEqual(av.AsNumber(), bv.AsNumber(), 1e-9)
		}
		return av.Equal(bv)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestByWinnerIndependentOfOrder pins minby/maxby to one total order under
// NaN: keys NaN last, equal keys (NaN with NaN too) broken by the smaller
// payload, NaN payloads last. Every permutation of contributions with NaN
// keys and payloads must pick the same winner through Add, AddPayloads and
// a Merge of two halves.
func TestByWinnerIndependentOfOrder(t *testing.T) {
	nan := math.NaN()
	keys := []float64{nan, 3, 1, 3, nan, 1, 2}
	vals := []float64{5, nan, 7, 2, 1, 9, nan}
	rng := rand.New(rand.NewSource(3))
	for _, k := range []Kind{MinBy, MaxBy} {
		var want uint64
		for trial := 0; trial < 200; trial++ {
			perm := rng.Perm(len(keys))
			pk, pv := make([]float64, len(keys)), make([]float64, len(keys))
			for i, j := range perm {
				pk[i], pv[i] = keys[j], vals[j]
			}
			add, batch, lo, hi := New(k, value.KindNumber), New(k, value.KindNumber), New(k, value.KindNumber), New(k, value.KindNumber)
			for i := range pk {
				add.Add(value.Num(pv[i]), pk[i])
			}
			batch.AddPayloads(pv, pk)
			lo.AddPayloads(pv[:3], pk[:3])
			hi.AddPayloads(pv[3:], pk[3:])
			lo.Merge(hi)
			var got [3]uint64
			for i, a := range []*Accumulator{&add, &batch, &lo} {
				p, _ := a.ResultPayload()
				got[i] = math.Float64bits(p)
			}
			if trial == 0 {
				want = got[0]
			}
			if got != [3]uint64{want, want, want} {
				t.Fatalf("%v order %v: winners %v, want %x everywhere", k, perm, got, want)
			}
		}
		// minby: key 1 ties, payload 7 < 9; maxby: key 3 ties, payload 2 < NaN.
		if w := math.Float64frombits(want); k == MinBy && w != 7 || k == MaxBy && w != 2 {
			t.Errorf("%v picked %v", k, w)
		}
	}
}
