package engine_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/workload"
)

// failOnce errors on its first admission and records how many intents
// every admission was handed.
type failOnce struct{ seen []int }

func (p *failOnce) Admit(ctx *engine.UpdateCtx, txns []*engine.Txn) error {
	p.seen = append(p.seen, len(txns))
	if len(p.seen) == 1 {
		return errors.New("injected admission failure")
	}
	return engine.GreedyPolicy{}.Admit(ctx, txns)
}

// failingMover owns `pos` and errors on its first update.
type failingMover struct{ calls int }

func (m *failingMover) Name() string { return "mover" }

func (m *failingMover) Update(*engine.UpdateCtx) error {
	m.calls++
	if m.calls == 1 {
		return errors.New("injected component failure")
	}
	return nil
}

const srcPush = `
class Acc {
  state:
    number v = 0;
    number pos = 0 by mover;
  effects:
    number push : sum;
  update:
    v = v + push;
  run {
    push <- 1;
  }
}
`

// TestFailedTickLeavesNoResidue: a tick that fails in transaction
// admission or in the update step must not leak its folded effects or its
// intents into the next tick. A 10-pair market whose policy errors once
// hands the retried tick 10 intents, not 20, and a world whose component
// errors once does not fold the failed tick's effects twice; either way the
// world then checkpoints exactly like a twin that ran one good tick.
func TestFailedTickLeavesNoResidue(t *testing.T) {
	newWorld := func(name, src string) *engine.World {
		sc, err := core.LoadScenario(name, src)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	market := func() *engine.World {
		w := newWorld("market", core.SrcMarket)
		if _, _, err := core.PopulateMarket(w, workload.Market{
			Sellers: 10, BuyersPerItem: 1, Stock: 100, Price: 25, Gold: 1000,
		}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	push := func(mover *failingMover) *engine.World {
		w := newWorld("push", srcPush)
		if err := w.Register(mover); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := w.Spawn("Acc", map[string]value.Value{}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	sameAsTwin := func(name string, w, twin *engine.World) {
		t.Helper()
		if err := twin.RunTick(); err != nil {
			t.Fatal(err)
		}
		a, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: failed+good tick and one good tick checkpoint differently", name)
		}
	}

	w, policy := market(), &failOnce{}
	w.SetTxnPolicy(policy)
	if err := w.RunTick(); err == nil {
		t.Fatal("market: the injected admission failure did not surface")
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(policy.seen, []int{10, 10}) {
		t.Fatalf("market: admissions saw %v intents, want [10 10]", policy.seen)
	}
	sameAsTwin("market", w, market())

	w = push(&failingMover{})
	if err := w.RunTick(); err == nil {
		t.Fatal("push: the injected component failure did not surface")
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	sameAsTwin("push", w, push(&failingMover{calls: 1})) // the twin's mover never fails
}
