package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// armSrc arms one unit of damage for the next tick from a handler, so every
// live object carries a pending effect across each tick boundary.
const armSrc = `
class A {
  state:
    number hp = 100;
  effects:
    number dmg : sum;
  update:
    hp = hp - dmg;
  handlers:
    when (hp > 0) {
      dmg <- 1;
    }
}
`

// killSpawnAt kills one object and spawns another during a tick, so both
// apply at the tick boundary after the handlers armed the victim's effects.
type killSpawnAt struct {
	tick   int64
	victim value.ID
	spawn  value.ID
}

func (k *killSpawnAt) TickStart(w *World, tick int64) {
	if tick != k.tick {
		return
	}
	if err := w.Kill("A", k.victim); err != nil {
		panic(err)
	}
	id, err := w.Spawn("A", nil)
	if err != nil {
		panic(err)
	}
	k.spawn = id
}

func (*killSpawnAt) TickEnd(*World, int64) {}

// A freed row's effect cells are emptied with the row, so an object spawned
// into it starts without the dead object's pending handler effects — for a
// kill between ticks and for one deferred to the tick boundary alike.
func TestSpawnIntoFreedRowStartsWithoutEffects(t *testing.T) {
	t.Run("between ticks", func(t *testing.T) {
		w := newWorld(t, armSrc, Options{})
		x, _ := w.Spawn("A", nil)
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		rowX := w.classes["A"].tab.Row(x)
		if err := w.Kill("A", x); err != nil {
			t.Fatal(err)
		}
		y, _ := w.Spawn("A", nil)
		if w.classes["A"].tab.Row(y) != rowX {
			t.Fatal("the spawn did not reuse the freed row")
		}
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		if hp := w.MustGet("A", y, "hp").AsNumber(); hp != 100 {
			t.Fatalf("y.hp = %v after its first tick, want 100", hp)
		}
	})
	t.Run("at the tick boundary", func(t *testing.T) {
		w := newWorld(t, armSrc, Options{})
		x, _ := w.Spawn("A", nil)
		k := &killSpawnAt{tick: 1, victim: x}
		w.AddInspector(k)
		if err := w.Run(3); err != nil {
			t.Fatal(err)
		}
		if hp := w.MustGet("A", k.spawn, "hp").AsNumber(); hp != 100 {
			t.Fatalf("y.hp = %v after its first tick, want 100", hp)
		}
	})
}

// A hand-crafted intent carries names and ids only; admission resolves it
// when it starts and admits it exactly like an engine intent, under both
// admission modes (it has no site, so both run the serial loop): a live
// purchase commits, one aimed at a dead seller aborts whole. The same
// purchases logged on the market's site, as runAtomic logs them, admit
// alike through the batched driver.
func TestHandCraftedTxnAdmits(t *testing.T) {
	for _, c := range []struct {
		mode   plan.TxnMode
		onSite bool
	}{{plan.TxnScalar, false}, {plan.TxnBatched, false}, {plan.TxnBatched, true}} {
		mode, name := c.mode, c.mode.String()
		if c.onSite {
			name = "site"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, txnMarketSrc, Options{Txn: mode})
			rt := w.classes["Trader"]
			_, _, dgold, dstock := traderIndices(t, rt)
			seller, _ := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(5)})
			dead, _ := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(5)})
			buyer, _ := w.Spawn("Trader", map[string]value.Value{"gold": value.Num(100)})
			if err := w.Kill("Trader", dead); err != nil {
				t.Fatal(err)
			}
			for i := range rt.fx {
				rt.fx[i].Grow(rt.tab.Cap())
			}
			step := anyAtomicStep(t, w)
			buy := func(from value.ID) *Txn {
				ems := []Emission{
					{Class: "Trader", Target: buyer, AttrIdx: dgold, Val: value.Num(-25)},
					{Class: "Trader", Target: from, AttrIdx: dgold, Val: value.Num(25)},
					{Class: "Trader", Target: buyer, AttrIdx: dstock, Val: value.Num(1)},
					{Class: "Trader", Target: from, AttrIdx: dstock, Val: value.Num(-1)},
				}
				if c.onSite {
					return siteIntent(t, w, step, buyer, ems)
				}
				tx, err := w.NewTxn("Trader", buyer, make([]value.Value, rt.plan.NumSlots), step.Constraints, ems)
				if err != nil {
					t.Fatal(err)
				}
				return tx
			}
			live, gone := buy(seller), buy(dead)
			for _, bad := range []Emission{{Class: "Nope"}, {Class: "Trader", AttrIdx: len(rt.fx)}} {
				if _, err := w.NewTxn("Trader", buyer, nil, nil, []Emission{bad}); err == nil {
					t.Errorf("NewTxn accepted an emission to %s effect %d", bad.Class, bad.AttrIdx)
				}
			}
			want := plan.TxnScalar // a hand-crafted intent has no site
			if c.onSite {
				want = plan.TxnBatched
			}
			if got := w.txnAdmitMode([]*Txn{live, gone}); got != want {
				t.Fatalf("admission mode %v under %v, want %v", got, mode, want)
			}
			if err := AdmitPrepared(w.updateCtx(""), []*Txn{live, gone}); err != nil {
				t.Fatal(err)
			}
			if live.Aborted || !gone.Aborted {
				t.Fatalf("aborted live=%v dead-target=%v, want false/true", live.Aborted, gone.Aborted)
			}
			for id, want := range map[value.ID]float64{buyer: -25, seller: 25} {
				if v, ok := w.EffectValue("Trader", id, "dgold"); !ok || v.AsNumber() != want {
					t.Errorf("dgold of %d = %v (%v), want %v", id, v, ok, want)
				}
			}
		})
	}
}

// marketRecorder is a pass-through policy recording each tick's admission
// outcome in admission order.
type marketRecorder struct {
	log [][]string
}

func (r *marketRecorder) Admit(ctx *UpdateCtx, txns []*Txn) error {
	err := GreedyPolicy{}.Admit(ctx, txns)
	var tick []string
	for _, t := range txns {
		tick = append(tick, fmt.Sprintf("%s/%d/%v", t.Class, t.Source, t.Aborted))
	}
	r.log = append(r.log, tick)
	return err
}

// The recycled, row-resolved intents are invisible: a contended market with
// sellers killed mid-run (their buyers keep aiming purchases at the dead
// rows, which must abort) admits the same transactions with the same
// outcomes every tick and ends in the same tables under every execution
// mode (scalar row loop or kernel-built intents), admission mode, worker
// count and partition count.
func TestTxnPoolDifferential(t *testing.T) {
	const ticks = 60
	run := func(opts Options) ([][]string, []uint64, int) {
		w := newWorld(t, txnMarketSrc, opts)
		// One buyer per seller, then three buyers per seller: conflict-free
		// singletons and true conflict groups.
		var sellers []value.ID
		for _, m := range []struct{ sellers, buyers, stock, gold int }{{300, 1, 40, 900}, {60, 3, 20, 600}} {
			first := len(sellers)
			for i := 0; i < m.sellers; i++ {
				id, _ := w.Spawn("Trader", map[string]value.Value{"stock": value.Num(float64(m.stock))})
				sellers = append(sellers, id)
			}
			for i := 0; i < m.sellers*m.buyers; i++ {
				w.Spawn("Trader", map[string]value.Value{"gold": value.Num(float64(m.gold)), "wants": value.Num(1),
					"seller": value.Ref(sellers[first+i%m.sellers])})
			}
		}
		rec := &marketRecorder{}
		w.SetTxnPolicy(rec)
		for tick := 0; tick < ticks; tick++ {
			if tick%10 == 5 {
				for i := tick; i < len(sellers); i += 37 {
					if err := w.Kill("Trader", sellers[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		var fp []uint64
		aborts := 0
		for _, tick := range rec.log {
			for _, s := range tick {
				if strings.HasSuffix(s, "true") {
					aborts++
				}
			}
		}
		for _, id := range w.IDs("Trader") {
			fp = append(fp, uint64(id))
			for _, a := range []string{"gold", "stock", "wants", "price", "seller"} {
				v := w.MustGet("Trader", id, a)
				if a == "seller" {
					fp = append(fp, uint64(v.AsRef()))
				} else {
					fp = append(fp, math.Float64bits(v.AsNumber()))
				}
			}
		}
		return rec.log, fp, aborts
	}
	refLog, refFP, aborts := run(Options{Workers: 1, Txn: plan.TxnScalar})
	if aborts == 0 {
		t.Fatal("the reference run aborted nothing; the dead-target path went unexercised")
	}
	for _, mode := range []plan.TxnMode{plan.TxnScalar, plan.TxnBatched} {
		for _, workers := range []int{1, 4} {
			for _, parts := range []int{0, 2} {
				name := fmt.Sprintf("%v/workers=%d/partitions=%d", mode, workers, parts)
				t.Run(name, func(t *testing.T) {
					for _, exec := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
						t.Run(exec.String(), func(t *testing.T) {
							log, fp, _ := run(Options{Workers: workers, Txn: mode, Partitions: parts, Exec: exec})
							if len(log) != len(refLog) {
								t.Fatalf("%d admissions, want %d", len(log), len(refLog))
							}
							for tick := range log {
								if fmt.Sprint(log[tick]) != fmt.Sprint(refLog[tick]) {
									t.Fatalf("tick %d admission differs from the reference", tick)
								}
							}
							if fmt.Sprint(fp) != fmt.Sprint(refFP) {
								t.Fatal("final tables differ from the reference")
							}
						})
					}
				})
			}
		}
	}
}

// siteIntent logs one intent on an atomic site, as runAtomic logs one for
// source src: its emissions fill the site's slots in order, and rows and
// base referents resolve now, so the world must not change before the
// intent is admitted.
func siteIntent(t *testing.T, w *World, step *compile.AtomicStep, src value.ID, ems []Emission) *Txn {
	t.Helper()
	site := w.txnSites[step]
	lg := site.newLog()
	if len(ems) != len(lg.slots) {
		t.Fatalf("%d emissions for %d slots", len(ems), len(lg.slots))
	}
	i := lg.open(1)
	row := site.rt.tab.Row(src)
	lg.src[i] = int32(row)
	for k, e := range ems {
		sl := lg.slots[k]
		if sl.rt.name != e.Class || sl.attr != e.AttrIdx {
			t.Fatalf("emission %d is %s.%d, slot %s.%d", k, e.Class, e.AttrIdx, sl.rt.name, sl.attr)
		}
		lg.tgt[k][i], lg.row[k][i], lg.val[k][i] = e.Target, int32(sl.rt.tab.Row(e.Target)), payloadOf(e.Val)
	}
	ctx := expr.Ctx{W: w, Class: site.rt.name, SelfID: src, Self: rowReader{rt: site.rt, row: row}, Frame: lg.frame}
	for b := range site.bases {
		lg.base[b][i] = -1
		if v := site.bases[b].fn(&ctx); !v.IsNullRef() {
			lg.base[b][i] = int32(site.baseRTs[b].tab.Row(v.AsRef()))
		}
	}
	return lg.handle(i)
}

func anyAtomicStep(t *testing.T, w *World) *compile.AtomicStep {
	t.Helper()
	for s := range w.txnSites {
		return s
	}
	t.Fatal("no atomic block")
	return nil
}
