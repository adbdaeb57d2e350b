package txn_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/workload"
)

// The admission differential matrix: every combination of admission mode,
// worker count, partition count and policy must produce bit-identical
// world state and per-tick commit/abort sets on a contended marketplace
// with cross-tick churn (kills creating dangling emission targets, spawns,
// restocks). The serial unpartitioned single-worker run per policy is the
// reference.

// recorder wraps a policy and captures each tick's commit/abort outcome
// per transaction source.
type recorder struct {
	inner engine.TxnPolicy
	log   []map[value.ID]bool
}

func (r *recorder) Admit(ctx *engine.UpdateCtx, txns []*engine.Txn) error {
	err := r.inner.Admit(ctx, txns)
	m := make(map[value.ID]bool, len(txns))
	for _, t := range txns {
		m[t.Source] = t.Aborted
	}
	r.log = append(r.log, m)
	return err
}

var traderAttrs = []struct {
	name string
	ref  bool
}{
	{"gold", false}, {"stock", false}, {"wants", false},
	{"price", false}, {"seller", true},
}

// churnMarket builds the contended two-segment market: segment one is
// paired (one buyer per seller, conflict-free admission), segment two is
// contended (three buyers per seller, true conflict groups).
func churnMarket(t *testing.T, opts engine.Options) (*engine.World, []value.ID) {
	t.Helper()
	sc, err := core.LoadScenario("market", core.SrcMarket)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	paired, _, err := core.PopulateMarket(w, workload.Market{
		Sellers: 6, BuyersPerItem: 1, Stock: 3, Price: 25, Gold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = core.PopulateMarket(w, workload.Market{
		Sellers: 4, BuyersPerItem: 3, Stock: 2, Price: 25, Gold: 75,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, paired
}

// runChurnArm runs one matrix arm for a fixed number of ticks with a
// deterministic churn schedule and returns the world fingerprint plus the
// per-tick admission log.
func runChurnArm(t *testing.T, opts engine.Options, mk func() engine.TxnPolicy, ticks int) ([]uint64, []map[value.ID]bool, *engine.World) {
	t.Helper()
	w, paired := churnMarket(t, opts)
	rec := &recorder{inner: mk()}
	w.SetTxnPolicy(rec)
	for tick := 0; tick < ticks; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		switch tick {
		case 1:
			// Kill a paired seller: its buyer keeps emitting purchases at
			// the dead target every following tick — the dangling-abort
			// path stays hot for the rest of the run.
			if err := w.Kill("Trader", paired[0]); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Spawn a fresh seller/buyer pair mid-run.
			s, err := w.Spawn("Trader", map[string]value.Value{
				"stock": value.Num(2), "price": value.Num(25),
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = w.Spawn("Trader", map[string]value.Value{
				"gold": value.Num(50), "wants": value.Num(1),
				"price": value.Num(25), "seller": value.Ref(s),
			})
			if err != nil {
				t.Fatal(err)
			}
		case 3:
			// Restock a contended seller to keep conflict groups admitting.
			for _, id := range w.IDs("Trader") {
				if w.MustGet("Trader", id, "stock").AsNumber() == 0 {
					if err := w.SetState("Trader", id, "stock", value.Num(2)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	var fp []uint64
	for _, id := range w.IDs("Trader") {
		fp = append(fp, uint64(id))
		for _, a := range traderAttrs {
			v := w.MustGet("Trader", id, a.name)
			if a.ref {
				fp = append(fp, uint64(v.AsRef()))
			} else {
				fp = append(fp, math.Float64bits(v.AsNumber()))
			}
		}
	}
	return fp, rec.log, w
}

func TestAdmissionDifferentialMatrix(t *testing.T) {
	const ticks = 6
	policies := []struct {
		name string
		mk   func() engine.TxnPolicy
	}{
		{"Greedy", func() engine.TxnPolicy { return engine.GreedyPolicy{} }},
		{"Priority", func() engine.TxnPolicy {
			return txn.PriorityPolicy{Priority: func(t *engine.Txn) float64 { return float64(t.Source) }}
		}},
		{"Rotating", func() engine.TxnPolicy { return &txn.RotatingPolicy{} }},
	}
	modes := []plan.TxnMode{plan.TxnScalar, plan.TxnBatched}
	workers := []int{1, 4}
	partitions := []int{1, 2, 4}

	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			refFP, refLog, _ := runChurnArm(t, engine.Options{Txn: plan.TxnScalar}, pol.mk, ticks)
			if len(refLog) != ticks {
				t.Fatalf("reference admitted on %d ticks, want %d", len(refLog), ticks)
			}
			sawBatchedRows, sawCross := false, false
			for _, mode := range modes {
				for _, nw := range workers {
					for _, np := range partitions {
						name := fmt.Sprintf("%v_w%d_p%d", mode, nw, np)
						opts := engine.Options{Txn: mode, Workers: nw, Partitions: np}
						fp, log, w := runChurnArm(t, opts, pol.mk, ticks)
						if len(fp) != len(refFP) {
							t.Fatalf("%s: fingerprint length %d, want %d", name, len(fp), len(refFP))
						}
						for i := range fp {
							if fp[i] != refFP[i] {
								t.Fatalf("%s: state diverges from serial reference at word %d: %#x != %#x",
									name, i, fp[i], refFP[i])
							}
						}
						if len(log) != len(refLog) {
							t.Fatalf("%s: %d admission ticks, want %d", name, len(log), len(refLog))
						}
						for k := range log {
							if len(log[k]) != len(refLog[k]) {
								t.Fatalf("%s tick %d: %d transactions, want %d", name, k, len(log[k]), len(refLog[k]))
							}
							for src, aborted := range refLog[k] {
								got, ok := log[k][src]
								if !ok {
									t.Fatalf("%s tick %d: source %d missing", name, k, src)
								}
								if got != aborted {
									t.Fatalf("%s tick %d: source %d aborted=%v, want %v", name, k, src, got, aborted)
								}
							}
						}
						cs := w.ExecStats()
						if mode == plan.TxnBatched {
							if cs.TxnBatchedRows > 0 {
								sawBatchedRows = true
							}
							if np >= 2 && cs.TxnCrossPart > 0 {
								sawCross = true
							}
						} else if cs.TxnBatchedRows != 0 || cs.TxnParallelGroups != 0 || cs.TxnCrossPart != 0 {
							t.Fatalf("%s: serial arm reported batched counters %+v", name, cs)
						}
					}
				}
			}
			if !sawBatchedRows {
				t.Fatal("no batched arm validated transactions whole-batch (TxnBatchedRows stayed 0)")
			}
			if !sawCross {
				t.Fatal("no partitioned batched arm saw cross-partition transactions (TxnCrossPart stayed 0)")
			}
		})
	}
}

// TestParallelConflictGroups drives admission with many conflict groups:
// 100 sellers with 3 contending buyers each form 100 four-transaction
// groups, which the batched driver fans across the worker pool whether or
// not the world is partitioned. Outcomes must stay bit-identical to the
// serial loop and TxnParallelGroups must be nonzero in both arms.
func TestParallelConflictGroups(t *testing.T) {
	m := workload.Market{Sellers: 100, BuyersPerItem: 3, Stock: 1, Price: 25, Gold: 100}
	run := func(opts engine.Options) ([]uint64, txn.Stats, *engine.World) {
		sc, err := core.LoadScenario("market", core.SrcMarket)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.PopulateMarket(w, m); err != nil {
			t.Fatal(err)
		}
		counting := &txn.CountingPolicy{}
		w.SetTxnPolicy(counting)
		for tick := 0; tick < 3; tick++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		var fp []uint64
		for _, id := range w.IDs("Trader") {
			fp = append(fp, uint64(id),
				math.Float64bits(w.MustGet("Trader", id, "gold").AsNumber()),
				math.Float64bits(w.MustGet("Trader", id, "stock").AsNumber()))
		}
		return fp, counting.Stats, w
	}
	refFP, refStats, _ := run(engine.Options{Txn: plan.TxnScalar})
	if refStats.Aborted == 0 || refStats.Committed == 0 {
		t.Fatalf("fixture lost contention: %+v", refStats)
	}
	for _, cfg := range []struct {
		name string
		opts engine.Options
	}{
		{"pooled", engine.Options{Txn: plan.TxnBatched, Workers: 4}},
		{"pooled+4part", engine.Options{Txn: plan.TxnBatched, Workers: 4, Partitions: 4}},
	} {
		fp, st, w := run(cfg.opts)
		if st != refStats {
			t.Fatalf("%s: stats %+v, want %+v", cfg.name, st, refStats)
		}
		for i := range refFP {
			if fp[i] != refFP[i] {
				t.Fatalf("%s: state diverges at word %d", cfg.name, i)
			}
		}
		if g := w.ExecStats().TxnParallelGroups; g == 0 {
			t.Fatalf("%s: no conflict groups were pooled", cfg.name)
		}
	}
}

// TestDanglingTargetAborts pins the §3.1 atomicity fix: a transaction with
// any dead emission target aborts whole — the buyer pays nothing, gains
// nothing — identically on the serial and batched paths. (The pre-fix
// behaviour silently dropped the dead seller's contributions while still
// applying the buyer's own, duplicating goods.)
func TestDanglingTargetAborts(t *testing.T) {
	for _, mode := range []plan.TxnMode{plan.TxnScalar, plan.TxnBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			m := workload.Market{Sellers: 1, BuyersPerItem: 1, Stock: 5, Price: 25, Gold: 100}
			sc, err := core.LoadScenario("market", core.SrcMarket)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sc.NewWorld(engine.Options{Txn: mode})
			if err != nil {
				t.Fatal(err)
			}
			sellers, buyers, err := core.PopulateMarket(w, m)
			if err != nil {
				t.Fatal(err)
			}
			counting := &txn.CountingPolicy{}
			w.SetTxnPolicy(counting)
			if err := w.Kill("Trader", sellers[0]); err != nil {
				t.Fatal(err)
			}
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			if counting.Stats.Submitted != 1 || counting.Stats.Aborted != 1 {
				t.Fatalf("stats = %+v, want 1 submitted / 1 aborted", counting.Stats)
			}
			if got := w.MustGet("Trader", buyers[0], "gold").AsNumber(); got != 100 {
				t.Fatalf("buyer gold = %v after aborted purchase, want 100", got)
			}
			if got := w.MustGet("Trader", buyers[0], "stock").AsNumber(); got != 0 {
				t.Fatalf("buyer stock = %v after aborted purchase, want 0", got)
			}
		})
	}
}
