package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// srcFxReset feeds every kind of effect fold the tick has: a self-emitting
// kernel effect (heal), targeted emissions within the class and across it
// (hit, glow), an atomic block whose intents commit and abort (dgold,
// dstock), and a handler that arms an effect on about one row in a hundred
// (armed) after the end-of-tick reset.
const srcFxReset = `
class Unit {
  state:
    number k = 0;
    number hp = 100;
    number gold = 0;
    number stock = 0;
    number price = 1;
    ref<Unit> seller = null;
    ref<Unit> mark = null;
    ref<Beacon> beacon = null;
  effects:
    number heal : sum;
    number hit : sum;
    number dgold : sum;
    number dstock : sum;
    number armed : sum;
  update:
    hp = hp + heal - hit - armed;
    gold = gold + dgold;
    stock = stock + dstock;
  handlers:
    when (k % 97 == 5) {
      armed <- 1;
    }
  run {
    heal <- 1;
    if (mark != null) {
      mark.hit <- 2;
    }
    if (beacon != null) {
      beacon.glow <- k;
    }
    if (seller != null && gold >= price) {
      atomic (gold >= 0, seller.stock >= 0) {
        dgold <- 0 - price;
        seller.dgold <- price;
        dstock <- 1;
        seller.dstock <- 0 - 1;
      }
    }
  }
}
class Beacon {
  state:
    number lit = 0;
  effects:
    number glow : max;
  update:
    lit = glow;
}
`

const fxResetUnits = 3*vexpr.BatchSize + 300

// fxResetWorld spawns the fixture: units k = 0..fxResetUnits-1, of which
// only those in the third kernel window [2×BatchSize, 3×BatchSize) carry a
// target for hit and glow. Every unit with k%8 = 0 or 4 is a seller; the
// buyer k%8 = 1 is its seller's only one (a singleton intent, sold out
// after three ticks) and the buyers k%8 = 5, 6, 7 share theirs (a conflict
// group, sold out in the second tick).
func fxResetWorld(t *testing.T, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("fx-reset", srcFxReset)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	beacons := make([]value.ID, 8)
	for i := range beacons {
		if beacons[i], err = w.Spawn("Beacon", nil); err != nil {
			t.Fatal(err)
		}
	}
	units := make([]value.ID, fxResetUnits)
	for k := range units {
		init := map[string]value.Value{"k": value.Num(float64(k))}
		switch m := k % 8; {
		case m == 0:
			init["stock"] = value.Num(3)
		case m == 4:
			init["stock"] = value.Num(4)
		case m == 1 || m >= 5:
			init["gold"] = value.Num(1e6)
			init["seller"] = value.Ref(units[k-m+4*(m/4)])
		}
		if k >= 2*vexpr.BatchSize && k < 3*vexpr.BatchSize {
			init["mark"] = value.Ref(units[k-1900])
			init["beacon"] = value.Ref(beacons[k%8])
		}
		if units[k], err = w.Spawn("Unit", init); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// unitByK returns the live unit whose k is k.
func unitByK(t *testing.T, w *engine.World, k int) value.ID {
	t.Helper()
	for _, id := range w.IDs("Unit") {
		if int(w.MustGet("Unit", id, "k").AsNumber()) == k {
			return id
		}
	}
	t.Fatalf("no unit with k = %d", k)
	return value.NullID
}

// killAt kills one object at the start of a tick, so the kill applies at
// the tick boundary after the handlers armed its effects.
type killAt struct {
	tick   int64
	victim value.ID
}

func (k *killAt) TickStart(w *engine.World, tick int64) {
	if tick == k.tick {
		if err := w.Kill("Unit", k.victim); err != nil {
			panic(err)
		}
	}
}

func (*killAt) TickEnd(*engine.World, int64) {}

// checkOnlyArmed fails unless the only filled effect cells of either class
// are the armed cells of exactly the live units with k%97 = 5.
func checkOnlyArmed(t *testing.T, w *engine.World, when string) {
	t.Helper()
	var want []value.ID
	for _, id := range w.IDs("Unit") {
		if int(w.MustGet("Unit", id, "k").AsNumber())%97 == 5 {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	for ai, ids := range w.FilledEffects("Unit") {
		if ai == 4 { // armed
			ids = slices.Sorted(slices.Values(ids))
			if !slices.Equal(ids, want) {
				t.Fatalf("%s: armed cells filled for %v, want %v", when, ids, want)
			}
			continue
		}
		if len(ids) > 0 {
			t.Fatalf("%s: Unit effect %d still holds %d cells (%v…)", when, ai, len(ids), ids[:min(len(ids), 4)])
		}
	}
	if ids := w.FilledEffects("Beacon")[0]; len(ids) > 0 {
		t.Fatalf("%s: Beacon glow still holds %d cells", when, len(ids))
	}
}

// runFxReset runs the fixture for ticks ticks, killing an armed unit
// between ticks before tick 2 and another at the boundary of tick 4 (each
// freed row taken by a new unit), and returns the checkpoint digest after
// every tick. After every tick and every kill, only handler-armed cells
// may hold a contribution.
func runFxReset(t *testing.T, opts engine.Options, ticks int) []string {
	t.Helper()
	w := fxResetWorld(t, opts)
	w.AddInspector(&killAt{tick: 4, victim: unitByK(t, w, 2139)})
	var digests []string
	for tick := 0; tick < ticks; tick++ {
		if tick == 2 {
			if err := w.Kill("Unit", unitByK(t, w, 5)); err != nil {
				t.Fatal(err)
			}
			checkOnlyArmed(t, w, "after the kill")
		}
		if tick == 2 || tick == 5 {
			if _, err := w.Spawn("Unit", map[string]value.Value{"k": value.Num(float64(3400 + 97*tick))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		checkOnlyArmed(t, w, fmt.Sprintf("tick %d", tick))
		digests = append(digests, checkpointDigest(t, w))
	}
	return digests
}

// TestEffectColumnsClearWholeEveryTick pins the end-of-tick reset: every
// effect column of every class clears whole after the update step, so
// after each tick the only filled cells are the ones the handlers armed
// for the next, and a killed object's armed cells go with its row. Every
// Workers × Partitions arm checkpoints equal to the scalar, serially
// admitted twin after every tick.
func TestEffectColumnsClearWholeEveryTick(t *testing.T) {
	const ticks = 8
	ref := runFxReset(t, engine.Options{Exec: plan.ExecScalar, Txn: plan.TxnScalar, Workers: 1}, ticks)

	// The fixture must reach kernels and abort intents, or it pins nothing.
	w := fxResetWorld(t, engine.Options{})
	if kernels, _ := w.EffectExec("Unit"); !kernels[0] {
		t.Fatal("Unit's run block does not run as kernels")
	}
	if err := w.Run(ticks); err != nil {
		t.Fatal(err)
	}
	buyers, bought := 0, 0.0
	for _, id := range w.IDs("Unit") {
		if w.MustGet("Unit", id, "seller").AsRef() != value.NullID {
			buyers++
			bought += w.MustGet("Unit", id, "stock").AsNumber()
		}
	}
	if bought >= float64(buyers*ticks) || bought == 0 {
		t.Fatalf("%d buyers bought %v times in %d ticks: want commits and aborts", buyers, bought, ticks)
	}

	for _, nw := range []int{1, 2} {
		for _, np := range []int{0, 2} {
			t.Run(fmt.Sprintf("w%d_p%d", nw, np), func(t *testing.T) {
				got := runFxReset(t, engine.Options{Workers: nw, Partitions: np}, ticks)
				for k := range ticks {
					if got[k] != ref[k] {
						t.Fatalf("tick %d: checkpoint diverges from the scalar twin", k)
					}
				}
			})
		}
	}
}
