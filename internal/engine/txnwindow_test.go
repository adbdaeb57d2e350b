package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/combinator"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// admitSnap is one tick's admission outcome, taken inside the policy right
// after admission returns, before the update step consumes and resets the
// effect buffers.
type admitSnap struct {
	aborted map[value.ID]bool
	cells   [][]combinator.Cell // [effect][live trader, id order]
	touched []int               // len(touched) per effect column
	singles int                 // the fewest singletons a non-empty log held (batched arms)
}

// snapPolicy admits in (class, source id) order, or in its reverse, and
// snapshots every tick.
type snapPolicy struct {
	w       *World
	reverse bool
	ticks   []admitSnap
}

func (p *snapPolicy) Admit(ctx *UpdateCtx, txns []*Txn) error {
	if p.reverse {
		slices.SortStableFunc(txns, cmpTxn)
		slices.Reverse(txns)
		if err := AdmitPrepared(ctx, txns); err != nil {
			return err
		}
	} else if err := AdmitOrdered(ctx, txns); err != nil {
		return err
	}
	rt := p.w.classes["Trader"]
	snap := admitSnap{aborted: make(map[value.ID]bool, len(txns)), singles: math.MaxInt}
	for _, t := range txns {
		snap.aborted[t.Source] = t.Aborted
	}
	for ai := range rt.fx {
		col := &rt.fx[ai]
		cells := make([]combinator.Cell, 0, rt.tab.Len())
		for _, id := range p.w.IDs("Trader") {
			cells = append(cells, col.Save(rt.tab.Row(id)))
		}
		snap.cells = append(snap.cells, cells)
		snap.touched = append(snap.touched, len(col.touched))
	}
	if p.w.opts.Txn == plan.TxnBatched {
		s := &p.w.txnrt
		for o := range s.logs {
			n := 0
			for wi := 0; wi < s.nwin; wi++ {
				a, b := s.bucket(wi, o)
				n += b - a
			}
			if n > 0 {
				snap.singles = min(snap.singles, n)
			}
		}
	}
	p.ticks = append(p.ticks, snap)
	return nil
}

// windowMarket spawns a market whose every intent log spans several
// admission windows: 12000 buyer/seller pairs in chunks of 600 that
// alternate deep stock with stock 3 (sold out from the fourth tick, after
// which those buyers abort every tick), then 40 sellers with three buyers
// each (true conflict groups). It returns one paired seller to kill.
func windowMarket(t *testing.T, opts Options) (*World, value.ID) {
	t.Helper()
	w := newWorld(t, txnMarketSrc, opts)
	spawn := func(sellers, buyersPer int, stock, gold float64) value.ID {
		ids := make([]value.ID, sellers)
		for i := range ids {
			id, err := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(stock)})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		for i := 0; i < sellers*buyersPer; i++ {
			if _, err := w.Spawn("Trader", map[string]value.Value{
				"gold": value.Num(gold), "wants": value.Num(1), "seller": value.Ref(ids[i%sellers]),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return ids[0]
	}
	var victim value.ID
	for c := 0; c < 20; c++ {
		stock := float64(1 << 40)
		if c%2 == 1 {
			stock = 3
		}
		if id := spawn(600, 1, stock, 1e12); c == 5 {
			victim = id
		}
	}
	spawn(40, 3, 2, 75)
	return w, victim
}

// runWindowArm runs one arm for ticks ticks, killing the victim seller
// after the first, and returns its snapshots and per-tick state bits.
func runWindowArm(t *testing.T, opts Options, reverse bool, ticks int) ([]admitSnap, [][]uint64) {
	t.Helper()
	w, victim := windowMarket(t, opts)
	pol := &snapPolicy{w: w, reverse: reverse}
	w.SetTxnPolicy(pol)
	var states [][]uint64
	for tick := 0; tick < ticks; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		if tick == 0 {
			if err := w.Kill("Trader", victim); err != nil {
				t.Fatal(err)
			}
		}
		var bits []uint64
		for _, id := range w.IDs("Trader") {
			bits = append(bits, uint64(id))
			for _, a := range []string{"gold", "stock", "wants", "price"} {
				bits = append(bits, math.Float64bits(w.MustGet("Trader", id, a).AsNumber()))
			}
			bits = append(bits, uint64(w.MustGet("Trader", id, "seller").AsRef()))
		}
		states = append(states, bits)
	}
	return pol.ticks, states
}

// TestAdmissionWindowsDifferential is the wall of windowed admission: with
// more than two kernel windows of singleton intents in every log, the
// claim, place-and-fold, view and validation passes fan out over the pool,
// and every tick must match the serial TxnScalar loop on the commit/abort
// sets, the table bits, every effect cell before reset and the length of
// every effect column's touched list — under Greedy and a reversed custom
// order, at Workers {1, 2, 4} × Partitions {0, 2}.
func TestAdmissionWindowsDifferential(t *testing.T) {
	const ticks = 6
	for _, reverse := range []bool{false, true} {
		name := "greedy"
		if reverse {
			name = "reversed"
		}
		t.Run(name, func(t *testing.T) {
			refSnaps, refStates := runWindowArm(t, Options{Txn: plan.TxnScalar}, reverse, ticks)
			last := refSnaps[ticks-1]
			aborts := 0
			for _, a := range last.aborted {
				if a {
					aborts++
				}
			}
			if share := float64(aborts) / float64(len(last.aborted)); share < 0.4 || share > 0.6 {
				t.Fatalf("fixture abort share %.2f on the last tick, want about 0.5", share)
			}
			for _, nw := range []int{1, 2, 4} {
				for _, np := range []int{0, 2} {
					arm := fmt.Sprintf("w%d_p%d", nw, np)
					snaps, states := runWindowArm(t, Options{Txn: plan.TxnBatched, Workers: nw, Partitions: np}, reverse, ticks)
					for k := range ticks {
						want, got := refSnaps[k], snaps[k]
						if got.singles <= 2*vexpr.BatchSize {
							t.Fatalf("%s tick %d: a log holds only %d singletons, want more than two windows", arm, k, got.singles)
						}
						if len(got.aborted) != len(want.aborted) {
							t.Fatalf("%s tick %d: %d transactions, want %d", arm, k, len(got.aborted), len(want.aborted))
						}
						for src, a := range want.aborted {
							if g, ok := got.aborted[src]; !ok || g != a {
								t.Fatalf("%s tick %d: source %d aborted=%v (present %v), want %v", arm, k, src, g, ok, a)
							}
						}
						for ai := range want.cells {
							if got.touched[ai] != want.touched[ai] {
								t.Fatalf("%s tick %d effect %d: %d touched rows, want %d", arm, k, ai, got.touched[ai], want.touched[ai])
							}
							for r := range want.cells[ai] {
								if g, w := got.cells[ai][r], want.cells[ai][r]; g != w {
									t.Fatalf("%s tick %d effect %d trader %d: cell %+v, want %+v", arm, k, ai, r, g, w)
								}
							}
						}
						if !slices.Equal(states[k], refStates[k]) {
							t.Fatalf("%s tick %d: table state diverges from the serial loop", arm, k)
						}
					}
				}
			}
		})
	}
}
