package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
}

// intentRecorder admits through its arm's policy and copies out every
// intent of the tick's batch with its outcome, in the order the policy was
// handed them. Arms: "greedy" (GreedyPolicy sorts the batch by source id);
// "priority" and "rotating", which reorder the handles as txn.PriorityPolicy
// (by descending source) and txn.RotatingPolicy do; "read", which reads
// every intent's emissions before delegating to GreedyPolicy; and "mixed",
// which appends one hand-crafted intent to the batch, so admission runs
// the serial loop over log-backed intents.
type intentRecorder struct {
	t   *testing.T
	arm string
	off int
	cur []intentRec
}

func (r *intentRecorder) Admit(ctx *UpdateCtx, txns []*Txn) error {
	handed := append([]*Txn(nil), txns...)
	var read [][]Emission
	switch r.arm {
	case "read":
		for _, t := range handed {
			read = append(read, t.Emissions())
		}
	case "mixed":
		rt := ctx.w.classes["Trader"]
		gift, err := ctx.w.NewTxn("Trader", handed[0].Source, make([]value.Value, rt.plan.NumSlots), nil,
			[]Emission{{Class: "Trader", Target: handed[0].Source, AttrIdx: rt.cls.EffectIndex("dgold"), Val: value.Num(0.5)}})
		if err != nil {
			return err
		}
		if handed = append(handed, gift); ctx.w.txnAdmitMode(handed) != plan.TxnScalar {
			r.t.Error("a batch holding a hand-crafted intent did not take the serial loop")
		}
	}
	batch := append([]*Txn(nil), handed...)
	var err error
	switch r.arm {
	case "priority":
		slices.SortStableFunc(batch, func(a, b *Txn) int { return cmp.Compare(b.Source, a.Source) })
		err = AdmitPrepared(ctx, batch)
	case "rotating":
		slices.SortStableFunc(batch, cmpTxn)
		k := r.off % len(batch)
		r.off++
		err = AdmitPrepared(ctx, append(batch[k:], batch[:k]...))
	default:
		err = GreedyPolicy{}.Admit(ctx, batch)
	}
	for i, t := range handed {
		rec := intentRec{Class: t.Class, Source: t.Source, Aborted: t.Aborted, Cons: len(t.Constraints())}
		ems := t.Emissions()
		if read != nil {
			ems = read[i]
		}
		for _, e := range ems {
			rec.Ems = append(rec.Ems, emRec{Class: e.Class, Target: e.Target, Attr: e.AttrIdx,
				Kind: e.Val.Kind(), Val: math.Float64bits(payloadOf(e.Val))})
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
func runTxnKernelWorld(t *testing.T, src string, opts Options, arm string, ticks int) txnKernelRun {
	t.Helper()
	const sellers, buyers = 150, 600
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
	rec := &intentRecorder{t: t, arm: arm}
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
// to the scalar loop). The one-phase fixtures also run the intentRecorder's
// policy arms over two kill waves, each against a reference under the same
// policy: handles reordered, emissions read before admission, and a batch
// mixing a hand-crafted intent into the kernel-built ones.
func TestTxnKernelIntentDifferential(t *testing.T) {
	type arm struct {
		name   string
		src    string
		phases int
		policy string
		ticks  int
	}
	var arms []arm
	for _, fx := range []arm{
		{"unguarded", txnNullSrc, 1, "greedy", 40},
		{"market", txnMarketSrc, 1, "greedy", 40},
		{"two-phase", txnTwoPhaseSrc, 2, "greedy", 40},
	} {
		arms = append(arms, fx)
		for _, p := range []string{"priority", "rotating", "read", "mixed"} {
			if fx.phases == 1 {
				arms = append(arms, arm{fx.name + "/" + p, fx.src, 1, p, 16})
			}
		}
	}
	for _, fx := range arms {
		t.Run(fx.name, func(t *testing.T) {
			ref := runTxnKernelWorld(t, fx.src, Options{Workers: 1, Exec: plan.ExecScalar, Txn: plan.TxnScalar}, fx.policy, fx.ticks)
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
							got := runTxnKernelWorld(t, fx.src, Options{Workers: workers, Partitions: parts, Txn: mode, Exec: plan.ExecVectorized}, fx.policy, fx.ticks)
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
