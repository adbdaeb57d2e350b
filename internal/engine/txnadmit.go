package engine

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// AdmitOrdered is the core greedy admission algorithm (§3.1): transactions
// are considered in deterministic (class, source id) order. Each candidate's
// emissions are applied tentatively to the effect accumulators; its
// constraints are then evaluated against the *tentative post-update state*
// (old state with expression update rules replayed over the accumulated
// effects, including every previously committed transaction). If any
// constraint fails, the candidate's emissions are rolled back and the
// transaction aborts — none of its effects apply, giving atomicity.
func AdmitOrdered(ctx *UpdateCtx, txns []*Txn) error {
	// The effect phase collects intents in row order, which is usually id
	// order already: check before paying for a sort.
	if !slices.IsSortedFunc(txns, cmpTxn) {
		slices.SortStableFunc(txns, cmpTxn)
	}
	return AdmitPrepared(ctx, txns)
}

// cmpTxn orders by (class, source id); a class's intents share its name.
func cmpTxn(a, b *Txn) int {
	if a.Class != b.Class {
		return strings.Compare(a.Class, b.Class)
	}
	return cmp.Compare(a.Source, b.Source)
}

// AdmitPrepared runs greedy admission over transactions in the exact order
// given. Custom policies (priority, fairness rotation) order the slice
// themselves and delegate here.
//
// How the order executes is an engine decision (Options.Txn): the serial
// loop validates one transaction at a time by rule replay; the batched
// driver (txnbatch.go) runs in vexpr.BatchSize windows of the batch on the
// worker pool, validates non-conflicting transactions whole-batch against a
// columnar tentative view, and fans conflict groups across the pool whether
// the world is partitioned or not (cross-partition transactions are only
// counted). Both produce bit-identical admission outcomes for any policy
// order, worker count and partition count.
func AdmitPrepared(ctx *UpdateCtx, txns []*Txn) error {
	if len(txns) == 0 {
		return nil
	}
	w := ctx.w
	if w.txnAdmitMode(txns) == plan.TxnBatched {
		w.admitBatched(txns)
		return nil
	}
	w.admitSerial(txns)
	return nil
}

func (w *World) admitSerial(txns []*Txn) {
	w.resolveTxns(txns)
	w.growSlots(1)
	tw := &w.slots[0].tw
	for _, t := range txns {
		if !t.live() {
			t.Aborted = true
			continue
		}
		t.apply(nil)
		if !tw.constraintsHold(t) {
			t.rollback()
		}
	}
}

// resolveTxns resolves hand-crafted intents' source and targets to rows (-1
// for a dead object, which aborts the intent). Engine intents carry theirs
// from emit time, but nothing pins the rows of an intent the engine did not
// collect this tick, so this runs each time admission starts.
func (w *World) resolveTxns(txns []*Txn) {
	for _, t := range txns {
		if lg := t.log; lg.site == nil {
			lg.src[0] = int32(lg.rt.tab.Row(t.Source))
			for k := range lg.slots {
				lg.row[k][0] = int32(lg.slots[k].rt.tab.Row(lg.tgt[k][0]))
			}
		}
	}
}

// tentWorld serves tentative post-update state: for attributes with an
// expression update rule, the rule is replayed over the currently
// accumulated effects; other attributes read their tick-start value.
// Update rules by definition read *old* state plus combined effects
// (new = f(old, fx)), so rule replay evaluates against the committed
// snapshot — there is no recursion through the tentative view. A tentWorld
// owns the contexts it evaluates in, so a read boxes nothing; each serves
// one goroutine at a time.
type tentWorld struct {
	w *World

	rule expr.Ctx // update-rule replay over committed state
	self rowReader
	fx   fxReader

	cons expr.Ctx // constraint evaluation over the tentative view
	tent tentRowReader
}

func (t *tentWorld) StateValue(class string, id value.ID, attrIdx int) (value.Value, bool) {
	rt, row := t.w.lookup(class, id)
	if row < 0 {
		return value.Value{}, false
	}
	return t.at(rt, row, attrIdx), true
}

// at reads one attribute of a live row through the tentative view.
func (t *tentWorld) at(rt *classRT, row, attrIdx int) value.Value {
	if rt.hasRule[attrIdx] {
		for _, u := range rt.plan.Updates {
			if u.AttrIdx == attrIdx {
				t.self, t.fx = rowReader{rt: rt, row: row}, fxReader{rt: rt, row: row}
				t.rule = expr.Ctx{W: t.w, Class: rt.name, SelfID: rt.tab.ID(row),
					Self: &t.self, Effects: &t.fx, EffectZero: rt.effectZero}
				return u.Fn(&t.rule) // rules read old state
			}
		}
	}
	return rt.tab.At(row, attrIdx)
}

// bindTxn points the constraint context at a transaction's source row, so
// constraints like `gold >= 0` see the post-update balance.
func (t *tentWorld) bindTxn(txn *Txn) {
	t.tent = tentRowReader{tw: t, rt: txn.log.rt, row: int(txn.log.src[txn.idx])}
	t.cons = expr.Ctx{W: t, Class: txn.Class, SelfID: txn.Source, Self: &t.tent, Frame: txn.Frame()}
}

func (t *tentWorld) constraintsHold(txn *Txn) bool {
	t.bindTxn(txn)
	for _, c := range txn.Constraints() {
		if !c(&t.cons).AsBool() {
			return false
		}
	}
	return true
}

// tentRowReader reads the executing object's attributes through the
// tentative view.
type tentRowReader struct {
	tw  *tentWorld
	rt  *classRT
	row int
}

func (r *tentRowReader) Attr(attrIdx int) value.Value { return r.tw.at(r.rt, r.row, attrIdx) }
