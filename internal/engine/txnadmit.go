package engine

import (
	"sort"

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
	sort.SliceStable(txns, func(i, j int) bool {
		if txns[i].Class != txns[j].Class {
			return txns[i].Class < txns[j].Class
		}
		return txns[i].Source < txns[j].Source
	})
	return AdmitPrepared(ctx, txns)
}

// AdmitPrepared runs greedy admission over transactions in the exact order
// given. Custom policies (priority, fairness rotation) order the slice
// themselves and delegate here.
//
// How the order executes is an engine decision (Options.Txn): the serial
// loop validates one transaction at a time by rule replay; the batched
// driver (txnbatch.go) groups conflicting transactions, validates
// non-conflicting ones whole-batch against a columnar tentative view, fans
// conflict groups across the worker pool and routes single-partition
// groups partition-locally. Both produce bit-identical admission outcomes
// for any policy order, worker count and partition count.
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
	tw := &tentWorld{w: w}
	for _, t := range txns {
		admitOne(w, tw, t)
	}
}

// admitOne admits a single transaction: §3.1 atomicity means a dead source
// *or any dead emission target* aborts the whole transaction before
// anything applies — a half-applied purchase from a despawned seller would
// otherwise duplicate goods. Targets are resolved up front; only a fully
// resolvable transaction applies, then validates, then rolls back on
// constraint failure by restoring every cell it touched.
func admitOne(w *World, tw *tentWorld, t *Txn) {
	if w.classes[t.Class].tab.Row(t.Source) < 0 {
		t.Aborted = true
		return
	}
	for i := range t.Emissions {
		e := &t.Emissions[i]
		if w.classes[e.Class].tab.Row(e.Target) < 0 {
			t.Aborted = true
			return
		}
	}
	saved := w.txnrt.cells[:0]
	for i := range t.Emissions {
		e := &t.Emissions[i]
		rt := w.classes[e.Class]
		row := rt.tab.Row(e.Target)
		saved = append(saved, rt.fx[e.AttrIdx].Save(row))
		rt.fx[e.AttrIdx].add(row, e.Val, e.Key)
	}
	w.txnrt.cells = saved
	if constraintsHold(w, tw, t) {
		return
	}
	for i := len(t.Emissions) - 1; i >= 0; i-- {
		e := &t.Emissions[i]
		rt := w.classes[e.Class]
		rt.fx[e.AttrIdx].Restore(rt.tab.Row(e.Target), saved[i])
	}
	t.Aborted = true
}

func constraintsHold(w *World, tw *tentWorld, t *Txn) bool {
	rt := w.classes[t.Class]
	row := rt.tab.Row(t.Source)
	if row < 0 {
		return false // source died; abort
	}
	ectx := expr.Ctx{
		W:      tw,
		Class:  t.Class,
		SelfID: t.Source,
		Self:   tentRowReader{tw: tw, rt: rt, row: row},
		Frame:  t.Frame,
	}
	for _, c := range t.Constraints {
		if !c(&ectx).AsBool() {
			return false
		}
	}
	return true
}

// tentWorld serves tentative post-update state: for attributes with an
// expression update rule, the rule is replayed over the currently
// accumulated effects; other attributes read their tick-start value.
// Update rules by definition read *old* state plus combined effects
// (new = f(old, fx)), so rule replay evaluates against the committed
// snapshot — there is no recursion through the tentative view.
type tentWorld struct {
	w *World
}

func (t *tentWorld) StateValue(class string, id value.ID, attrIdx int) (value.Value, bool) {
	rt, ok := t.w.classes[class]
	if !ok {
		return value.Value{}, false
	}
	row := rt.tab.Row(id)
	if row < 0 {
		return value.Value{}, false
	}
	if !rt.hasRule[attrIdx] {
		return rt.tab.At(row, attrIdx), true
	}
	for _, u := range rt.plan.Updates {
		if u.AttrIdx != attrIdx {
			continue
		}
		ectx := expr.Ctx{
			W:          t.w, // rules read old state
			Class:      class,
			SelfID:     id,
			Self:       rowReader{rt: rt, row: row},
			Effects:    fxReader{rt: rt, row: row},
			EffectZero: rt.effectZero,
		}
		return u.Fn(&ectx), true
	}
	return rt.tab.At(row, attrIdx), true
}

// tentRowReader reads the executing object's attributes through the
// tentative view, so that constraints like `gold >= 0` see the post-update
// balance.
type tentRowReader struct {
	tw  *tentWorld
	row int
	rt  *classRT
}

func (r tentRowReader) Attr(attrIdx int) value.Value {
	id := r.rt.tab.ID(r.row)
	v, _ := r.tw.StateValue(r.rt.name, id, attrIdx)
	return v
}
