package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/value"
)

// txnNullSrc is the market without the seller != null guard: a buyer with
// no seller still submits its own half of a purchase (the seller's half is
// skipped), and its second block, which only writes to the seller, has
// nothing left to admit.
const txnNullSrc = `
class Trader {
  state:
    number gold = 0;
    number stock = 0;
    number sold = 0;
    number wants = 0;
    number price = 25;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    number dstock : sum;
    number sales : count;
  update:
    gold = gold + dgold;
    stock = stock + dstock;
    sold = sold + sales;
  run {
    if (wants > 0 && gold >= price) {
      atomic (gold >= 0, seller.stock >= 0) {
        dgold <- 0 - price;
        seller.dgold <- price;
        dstock <- 1;
        seller.dstock <- 0 - 1;
      }
      atomic (seller.stock >= 0) {
        seller.sales <- 1;
        seller.dstock <- 0 - wants;
      }
    }
  }
}
`

// txnTwoPhaseSrc buys in both phases of a waitNextTick script. Two phases
// appending intents cannot share one ascending sink stream, so under
// forced kernels both stay on the scalar row loop.
const txnTwoPhaseSrc = `
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
    waitNextTick;
    if (wants > 0 && seller != null) {
      atomic (seller.stock >= 1) {
        seller.dstock <- 0 - 2;
        dstock <- 2;
      }
    }
  }
}
`

// intentRec is one admitted intent as a policy sees it.
type intentRec struct {
	Class   string
	Source  value.ID
	Aborted bool
	Cons    int
	Ems     []emRec
}

type emRec struct {
	Class  string
	Target value.ID
	Attr   int
	Kind   value.Kind
	Val    uint64
	Key    uint64
}

// intentRecorder admits through GreedyPolicy and copies out every intent
// of the tick's batch with its outcome, in the order the policy was handed
// them (GreedyPolicy sorts the slice by source id).
type intentRecorder struct{ cur []intentRec }

func (r *intentRecorder) Admit(ctx *UpdateCtx, txns []*Txn) error {
	handed := append([]*Txn(nil), txns...)
	err := GreedyPolicy{}.Admit(ctx, txns)
	for _, t := range handed {
		rec := intentRec{Class: t.Class, Source: t.Source, Aborted: t.Aborted, Cons: len(t.Constraints)}
		for _, e := range t.Emissions {
			rec.Ems = append(rec.Ems, emRec{Class: e.Class, Target: e.Target, Attr: e.AttrIdx,
				Kind: e.Val.Kind(), Val: math.Float64bits(payloadOf(e.Val)), Key: math.Float64bits(e.Key)})
		}
		r.cur = append(r.cur, rec)
	}
	return err
}

// txnKernelRun is one world's admission history, tick by tick, and its
// final state.
type txnKernelRun struct {
	ticks                  [][]intentRec
	fp                     []uint64
	scalarRows, vectorRows int64
}

// runTxnKernelWorld drives one market fixture: sellers with little stock,
// buyers of which every seventh has no seller, the second half of the
// buyers spawned one tick late (so a multi-phase script has rows in both
// phases), and every tick%10 == 5 a wave of sellers killed, whose buyers
// keep aiming at the dead rows.
func runTxnKernelWorld(t *testing.T, src string, opts Options) txnKernelRun {
	t.Helper()
	const ticks, sellers, buyers = 40, 150, 600
	w := newWorld(t, src, opts)
	var sids []value.ID
	for i := 0; i < sellers; i++ {
		id, _ := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(float64(20 + i%30))})
		sids = append(sids, id)
	}
	spawnBuyers := func(from, to int) {
		for i := from; i < to; i++ {
			init := map[string]value.Value{"gold": value.Num(float64(200 + 7*i)), "wants": value.Num(float64(1 + i%2))}
			if i%7 != 0 {
				init["seller"] = value.Ref(sids[(i*13)%sellers])
			}
			if _, err := w.Spawn("Trader", init); err != nil {
				t.Fatal(err)
			}
		}
	}
	spawnBuyers(0, buyers/2)
	rec := &intentRecorder{}
	w.SetTxnPolicy(rec)
	var run txnKernelRun
	for tick := 0; tick < ticks; tick++ {
		if tick == 1 {
			spawnBuyers(buyers/2, buyers)
		}
		if tick%10 == 5 {
			for i := tick; i < len(sids); i += 23 {
				if err := w.Kill("Trader", sids[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		run.ticks = append(run.ticks, rec.cur)
		rec.cur = nil
	}
	rt := w.classes["Trader"]
	for _, id := range w.IDs("Trader") {
		run.fp = append(run.fp, uint64(id))
		for _, a := range rt.cls.State {
			run.fp = append(run.fp, math.Float64bits(payloadOf(w.MustGet("Trader", id, a.Name))))
		}
	}
	run.scalarRows, run.vectorRows = w.ExecStats().ScalarRows, w.ExecStats().VectorRows
	return run
}

// TestTxnKernelIntentDifferential pins kernel-built intents to the scalar
// reference intent for intent: under forced kernels, every tick's
// admission batch holds the same intents in the same order — class,
// source, outcome, and each emission's class, target, attribute and
// payload bits — across Workers × Partitions × admission drivers. The
// fixtures cover null targets (skipped, and an intent left empty is
// recycled), dangling targets (kept, so the intent aborts), two blocks in
// one phase (intents row-major) and two intent-appending phases (demoted
// to the scalar loop).
func TestTxnKernelIntentDifferential(t *testing.T) {
	for _, fx := range []struct {
		name   string
		src    string
		phases int
	}{
		{"unguarded", txnNullSrc, 1},
		{"market", txnMarketSrc, 1},
		{"two-phase", txnTwoPhaseSrc, 2},
	} {
		t.Run(fx.name, func(t *testing.T) {
			ref := runTxnKernelWorld(t, fx.src, Options{Workers: 1, Exec: plan.ExecScalar, Txn: plan.TxnScalar})
			aborts, byCons := 0, map[int]int{}
			for _, tick := range ref.ticks {
				for _, in := range tick {
					if in.Aborted {
						aborts++
					}
					byCons[in.Cons]++
				}
			}
			if aborts == 0 {
				t.Fatal("the reference aborted nothing: the dangling-target path went unexercised")
			}
			if fx.src == txnNullSrc && byCons[1] >= byCons[2] {
				t.Fatalf("seller-only blocks %d, purchases %d: no all-null intent was recycled", byCons[1], byCons[2])
			}
			for _, mode := range []plan.TxnMode{plan.TxnScalar, plan.TxnBatched} {
				for _, workers := range []int{1, 4} {
					for _, parts := range []int{0, 2} {
						t.Run(fmt.Sprintf("%v/workers=%d/partitions=%d", mode, workers, parts), func(t *testing.T) {
							got := runTxnKernelWorld(t, fx.src, Options{Workers: workers, Partitions: parts, Txn: mode, Exec: plan.ExecVectorized})
							for tick := range ref.ticks {
								compareIntents(t, tick, got.ticks[tick], ref.ticks[tick])
							}
							if fmt.Sprint(got.fp) != fmt.Sprint(ref.fp) {
								t.Fatal("final tables differ from the reference")
							}
							if fx.phases == 1 && (got.scalarRows != 0 || got.vectorRows == 0) {
								t.Fatalf("forced kernels left %d rows on the scalar loop (%d vector rows)", got.scalarRows, got.vectorRows)
							}
							if fx.phases > 1 && got.scalarRows == 0 {
								t.Fatal("two intent-appending phases were not demoted to the scalar loop")
							}
						})
					}
				}
			}
		})
	}
}

func compareIntents(t *testing.T, tick int, got, want []intentRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tick %d: %d intents, want %d", tick, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("tick %d intent %d:\n got %+v\nwant %+v", tick, i, got[i], want[i])
		}
	}
}
