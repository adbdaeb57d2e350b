package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/vexpr"
)

const txnMarketSrc = `
class Trader {
  state:
    number gold = 0;
    number stock = 0;
    number wants = 0;
    number price = 25;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    number dstock : sum;
  update:
    gold = gold + dgold;
    stock = stock + dstock;
  run {
    if (wants > 0 && seller != null && gold >= price) {
      atomic (gold >= 0, seller.stock >= 0) {
        dgold <- 0 - price;
        seller.dgold <- price;
        dstock <- 1;
        seller.dstock <- 0 - 1;
      }
    }
  }
}
`

func traderIndices(t *testing.T, rt *classRT) (gold, stock, dgold, dstock int) {
	t.Helper()
	gold = rt.cls.StateIndex("gold")
	stock = rt.cls.StateIndex("stock")
	dgold, dstock = -1, -1
	for i, e := range rt.cls.Effects {
		switch e.Name {
		case "dgold":
			dgold = i
		case "dstock":
			dstock = i
		}
	}
	if gold < 0 || stock < 0 || dgold < 0 || dstock < 0 {
		t.Fatal("trader schema indices not found")
	}
	return
}

// checkViewMatchesReplay builds the columnar tentative view for the rule'd
// attrs and requires it to be bitwise identical to per-row tentWorld rule
// replay on every live row.
func checkViewMatchesReplay(t *testing.T, w *World) {
	t.Helper()
	rt := w.classes["Trader"]
	gi, si, _, _ := traderIndices(t, rt)
	s := &w.txnrt
	s.init(w)
	s.gen++
	for _, attr := range []int{gi, si} {
		prog := vecRuleProg(rt.vec, attr)
		if prog == nil {
			t.Fatal("trader update rules did not vectorize")
		}
		w.buildTxnView(txnViewAttr{rt: rt, attr: attr, prog: prog})
	}
	tw := &tentWorld{w: w}
	for row := 0; row < rt.tab.Cap(); row++ {
		if !rt.tab.Alive(row) {
			continue
		}
		id := rt.tab.ID(row)
		for _, attr := range []int{gi, si} {
			want, ok := tw.StateValue("Trader", id, attr)
			if !ok {
				t.Fatalf("replay failed for live id %d", id)
			}
			got := rt.txnViewCols[attr][row]
			if math.Float64bits(got) != math.Float64bits(payloadOf(want)) {
				t.Fatalf("view diverges from rule replay: id %d attr %d: %x (%v) != %x (%v)",
					id, attr, math.Float64bits(got), got,
					math.Float64bits(payloadOf(want)), want.AsNumber())
			}
		}
	}
}

// TestTxnViewMatchesReplayBitwise is the property test behind the batched
// validator: the vectorized tentative view must equal per-transaction rule
// replay bit for bit, including NaN propagation, infinities, extreme
// magnitudes and catastrophic cancellation in the effect sums.
func TestTxnViewMatchesReplayBitwise(t *testing.T) {
	adversarial := []float64{
		0, math.Copysign(0, -1), 1, -1, 25, 0.1,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1e308, -1e308, 5e-324, -5e-324, 1e-300, 1e300,
	}
	for seed := int64(0); seed < 25; seed++ {
		w := newWorld(t, txnMarketSrc, Options{})
		rt := w.classes["Trader"]
		_, _, dgold, dstock := traderIndices(t, rt)
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if rng.Intn(2) == 0 {
				return adversarial[rng.Intn(len(adversarial))]
			}
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		ids := make([]value.ID, 40)
		for i := range ids {
			id, err := w.Spawn("Trader", map[string]value.Value{
				"gold": value.Num(draw()), "stock": value.Num(draw()),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		// Dead rows must not disturb the live lanes around them.
		for i := 0; i < 5; i++ {
			if err := w.Kill("Trader", ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			row := rt.tab.Row(id)
			if row < 0 {
				continue
			}
			for k := rng.Intn(5); k > 0; k-- {
				rt.fx[dgold].add(row, value.Num(draw()), 0)
			}
			for k := rng.Intn(5); k > 0; k-- {
				rt.fx[dstock].add(row, value.Num(draw()), 0)
			}
		}
		checkViewMatchesReplay(t, w)
	}
}

// FuzzTxnViewReplay fuzzes the same property over raw float payloads.
func FuzzTxnViewReplay(f *testing.F) {
	f.Add(100.0, -25.0, 50.0, 3.0)
	f.Add(1e308, 1e308, -1e308, math.Inf(1))
	f.Add(math.NaN(), 1.0, 2.0, math.Copysign(0, -1))
	f.Add(5e-324, -5e-324, 1e-300, -1e308)
	f.Fuzz(func(t *testing.T, gold, d1, d2, stock float64) {
		w := newWorld(t, txnMarketSrc, Options{})
		rt := w.classes["Trader"]
		_, _, dgold, dstock := traderIndices(t, rt)
		id, err := w.Spawn("Trader", map[string]value.Value{
			"gold": value.Num(gold), "stock": value.Num(stock),
		})
		if err != nil {
			t.Fatal(err)
		}
		row := rt.tab.Row(id)
		rt.fx[dgold].add(row, value.Num(d1), 0)
		rt.fx[dgold].add(row, value.Num(d2), 0)
		rt.fx[dstock].add(row, value.Num(d1), 0)
		checkViewMatchesReplay(t, w)
	})
}

// TestBatchedAdmissionZeroAlloc pins the steady-state batched admission
// path at zero heap allocations per batch: all scratch (lane buffers,
// views, dense effect vectors, conflict-group state) must be retained and
// generation-stamped, never reallocated. The pooled arm's batch spans two
// kernel windows, so every admission pass fans out across the workers.
func TestBatchedAdmissionZeroAlloc(t *testing.T) {
	for _, arm := range []struct {
		name  string
		opts  Options
		pairs int
	}{
		{"serial", Options{Txn: plan.TxnBatched}, 8},
		{"workers=2/windows", Options{Txn: plan.TxnBatched, Workers: 2}, vexpr.BatchSize + 500},
	} {
		t.Run(arm.name, func(t *testing.T) { batchedAdmissionZeroAlloc(t, arm.opts, arm.pairs) })
	}
}

func batchedAdmissionZeroAlloc(t *testing.T, opts Options, pairs int) {
	w := newWorld(t, txnMarketSrc, opts)
	rt := w.classes["Trader"]
	_, _, dgold, dstock := traderIndices(t, rt)
	sellers := make([]value.ID, pairs)
	buyers := make([]value.ID, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		sellers[i], err = w.Spawn("Trader", map[string]value.Value{"stock": value.Num(5)})
		if err != nil {
			t.Fatal(err)
		}
		buyers[i], err = w.Spawn("Trader", map[string]value.Value{
			"gold": value.Num(1000), "seller": value.Ref(sellers[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var step *compile.AtomicStep
	for s := range w.txnSites {
		step = s
	}
	if step == nil || !w.txnSites[step].analyzable {
		t.Fatal("market atomic site missing or unanalyzable")
	}
	for i := range rt.fx {
		rt.fx[i].Grow(rt.tab.Cap())
	}
	txns := make([]*Txn, 0, pairs)
	for i := 0; i < pairs; i++ {
		txns = append(txns, siteIntent(t, w, step, buyers[i], []Emission{
			{Class: "Trader", Target: buyers[i], AttrIdx: dgold, Val: value.Num(-25)},
			{Class: "Trader", Target: sellers[i], AttrIdx: dgold, Val: value.Num(25)},
			{Class: "Trader", Target: buyers[i], AttrIdx: dstock, Val: value.Num(1)},
			{Class: "Trader", Target: sellers[i], AttrIdx: dstock, Val: value.Num(-1)},
		}))
	}
	badMode := false
	run := func() {
		for _, tx := range txns {
			tx.Aborted = false
		}
		if w.txnAdmitMode(txns) != plan.TxnBatched {
			badMode = true
			return
		}
		w.admitBatched(txns)
		for i := range rt.fx {
			rt.fx[i].reset()
		}
	}
	run() // warm: grow every retained buffer once
	run()
	if badMode {
		t.Fatal("forced batched mode fell back to serial")
	}
	if opts.Workers > 1 && (!w.parallelOK() || w.txnrt.nwin < 2) {
		t.Fatalf("%d transactions in %d windows (pool usable: %v): the admission passes never fanned out", len(txns), w.txnrt.nwin, w.parallelOK())
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("batched admission allocates %v times per batch, want 0", avg)
	}
	for _, tx := range txns {
		if tx.Aborted {
			t.Fatal("alloc-guard transactions unexpectedly aborted")
		}
	}
}

// A world whose effects are all payload combinators keeps its effect
// buffers unboxed — no Accumulator per (row, attr) — and its vectorized
// update kernels read the fold columns themselves rather than a copy.
func TestPayloadEffectBuffersUnboxed(t *testing.T) {
	w := newWorld(t, txnMarketSrc, Options{Exec: plan.ExecVectorized})
	var ids []value.ID
	for i := 0; i < 300; i++ {
		id, err := w.Spawn("Trader", map[string]value.Value{"gold": value.Num(100), "stock": value.Num(3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%2 == 1 {
			w.SetState("Trader", id, "seller", value.Ref(ids[i-1]))
			w.SetState("Trader", id, "wants", value.Num(1))
		}
	}
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	rt := w.classes["Trader"]
	for i := range rt.fx {
		if b := rt.fx[i].BoxedCells(); b != 0 {
			t.Errorf("effect %s holds %d boxed accumulators, want 0", rt.cls.Effects[i].Name, b)
		}
	}
	if rt.vec == nil || len(rt.vec.updateFx) == 0 {
		t.Fatal("trader update rules did not vectorize")
	}
	n := rt.tab.Cap()
	for _, ai := range rt.vec.updateFx {
		if &rt.fxVecs[ai][0] != &rt.fx[ai].ResultPayloads(nil, n)[0] {
			t.Errorf("update kernels read a copy of effect %s", rt.cls.Effects[ai].Name)
		}
	}
}
