package engine

import (
	"fmt"

	"repro/internal/value"
)

// RunTick executes one complete state-effect cycle:
//
//  1. per-tick index builds, each site on the index its predicate's shape
//     names (§4.1);
//  2. the query/effect phase: every object's current script phase runs,
//     reading frozen state and emitting effect contributions (§2);
//  3. transaction admission over the collected atomic intents (§3.1);
//  4. the update step: expression rules, then registered update components,
//     each over old state + combined effects, write next-epoch columns that
//     commit atomically (§2.2);
//  5. program-counter advance and reactive interrupts (§3.2);
//  6. reactive handlers evaluate on the new state and emit effects for the
//     next tick (§3.2);
//  7. deferred spawns/kills apply and statistics fold (§4.1).
func (w *World) RunTick() error {
	if missing := w.MissingOwners(); len(missing) > 0 {
		return fmt.Errorf("engine: unregistered owner components: %v", missing)
	}
	w.acquireArena()
	defer w.releaseArena()
	w.inTick = true
	for _, ins := range w.inspectors {
		ins.TickStart(w, w.tick)
	}
	w.prepareSites()

	// (2) Query/effect phase, through the sharded driver (shard.go).
	w.runEffectPhase()

	// (3) Transaction admission, then (4) the update step.
	var err error
	if len(w.txns) > 0 {
		err = w.admitTxns()
	}
	if err == nil {
		err = w.runUpdateStep()
	}
	if err == nil {
		w.advancePCs() // (5) pc advance + interrupts
	}

	// Effects and intents are consumed — by a failed tick too, so none
	// leak into the next; clear before handlers arm next tick's buffers.
	for _, rt := range w.order {
		for i := range rt.fx {
			rt.fx[i].reset()
		}
	}
	w.clearTxns()
	if err != nil {
		w.inTick = false
		return err
	}

	// (6) Reactive handlers on the new state.
	w.runHandlers()

	// (7) Tick boundary.
	if w.parts != nil {
		w.foldPartitionLoads()
	}
	w.inTick = false
	w.applyPending()
	w.tick++
	for _, ins := range w.inspectors {
		ins.TickEnd(w, w.tick-1)
	}
	return nil
}

// clearTxns empties the tick's transaction list and rewinds the sinks'
// intent pools: admission has returned, so no intent is referenced any more.
func (w *World) clearTxns() {
	w.txns = w.txns[:0]
	for _, s := range w.sinks {
		s.txnUsed = 0
	}
}

// Run executes n ticks.
func (w *World) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := w.RunTick(); err != nil {
			return fmt.Errorf("tick %d: %w", w.tick, err)
		}
	}
	return nil
}

// admitTxns delegates to the registered transaction policy, or the built-in
// greedy arrival-order policy.
func (w *World) admitTxns() error {
	uctx := w.updateCtx("")
	if w.txnPolicy != nil {
		return w.txnPolicy.Admit(uctx, w.txns)
	}
	return GreedyPolicy{}.Admit(uctx, w.txns)
}

// SetTxnPolicy installs the transaction admission policy (§3.1). Nil
// restores the default greedy policy.
func (w *World) SetTxnPolicy(p TxnPolicy) { w.txnPolicy = p }

func (w *World) runUpdateStep() error {
	// Discard any staging left over from a tick that errored out before the
	// commit; stale values must never apply later.
	for _, rt := range w.order {
		for i := range rt.stage {
			rt.stage[i].full, rt.stage[i].rows = false, rt.stage[i].rows[:0]
		}
	}
	// (a) Expression rules (shard.go).
	for _, rt := range w.order {
		if len(rt.plan.Updates) > 0 {
			w.runUpdateRules(rt)
		}
	}
	// (b) Owner components.
	for _, c := range w.comps {
		uctx := w.updateCtx(c.Name())
		if err := c.Update(uctx); err != nil {
			return fmt.Errorf("component %q: %w", c.Name(), err)
		}
	}
	// (c) Commit every next-epoch column atomically.
	for _, rt := range w.order {
		rt.commitStaged()
	}
	return nil
}

// stageColumn returns attribute i's next-epoch payload column for
// ClassCols.Stage, prefilled on the tick's first call (see there).
func (rt *classRT) stageColumn(i int) []float64 {
	col := &rt.stage[i]
	if !col.full {
		col.ensure(rt.tab.Cap())
		keep := make([]float64, len(col.rows)) // cells staged before: rare, mixed use
		for j, r := range col.rows {
			keep[j] = col.num[r]
		}
		copy(col.num, rt.tab.NumColumn(i))
		for j, r := range col.rows {
			col.num[r] = keep[j]
		}
		col.rows, col.full = col.rows[:0], true
	}
	return col.num[:rt.tab.Cap()]
}

// commitStaged writes the next-epoch columns back. A full payload column is
// swapped in whole, and the table's old storage becomes the next tick's
// staging buffer; a cell-staged one writes its listed rows, as do boxed
// columns (every live row when full). Changefeed marks diff on raw payload
// bits, old against new over live rows, so rows rewritten to the same
// payload stay out of the feed (a whole-column write is not a whole-column
// change); a set write always counts, its identity being a mutable pointer.
func (rt *classRT) commitStaged() {
	for i := range rt.stage {
		col := &rt.stage[i]
		switch {
		case col.boxed:
			if col.full {
				col.rows = rt.tab.LiveRows(col.rows[:0])
			}
			for _, r := range col.rows {
				row, v := int(r), col.vals[r]
				if rt.vlog != nil && (v.Kind() == value.KindSet || rt.tab.At(row, i).AsString() != v.AsString()) {
					rt.vlog.mark(row)
				}
				rt.tab.SetAt(row, i, v)
			}
		case col.full:
			old := rt.tab.SwapNumColumn(i, col.num)
			if rt.vlog != nil {
				cur := rt.tab.NumColumn(i)
				for r, ok := range rt.tab.AliveMask() {
					if ok && !sameBits(old[r], cur[r]) {
						rt.vlog.mark(r)
					}
				}
			}
			col.num = old
		default:
			for _, r := range col.rows {
				if rt.vlog != nil && !sameBits(rt.tab.NumColumn(i)[r], col.num[r]) {
					rt.vlog.mark(int(r))
				}
				rt.tab.SetNumAt(int(r), i, col.num[r])
			}
		}
	}
}

func (w *World) advancePCs() {
	for _, rt := range w.order {
		if n := rt.plan.NumPhases; n > 1 {
			pcs := rt.tab.NumColumn(rt.pcCol)
			for r, ok := range rt.tab.AliveMask() {
				if ok {
					rt.tab.SetNumAt(r, rt.pcCol, float64((int(pcs[r])+1)%n))
				}
			}
		}
	}
	for _, in := range w.interrupts {
		rt := w.classes[in.class]
		for r, ok := range rt.tab.AliveMask() {
			if ok && in.cond(w, rt.tab.ID(r)) {
				rt.tab.SetNumAt(r, rt.pcCol, float64(in.phase))
			}
		}
	}
}

func (w *World) applyPending() {
	for _, p := range w.pendingKill {
		w.classes[p.class].kill(p.id)
	}
	w.pendingKill = w.pendingKill[:0]
	for _, p := range w.pendingSpawn {
		w.doSpawn(w.classes[p.class], p.id, p.init)
	}
	w.pendingSpawn = w.pendingSpawn[:0]
}

// GreedyPolicy is the default transaction admission policy: transactions
// are considered in deterministic (class, source id) order; each commits if
// its constraints hold on the tentative state including all previously
// committed transactions, otherwise it aborts (§3.1).
type GreedyPolicy struct{}

// Admit implements TxnPolicy.
func (GreedyPolicy) Admit(ctx *UpdateCtx, txns []*Txn) error {
	return AdmitOrdered(ctx, txns)
}
