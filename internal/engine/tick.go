package engine

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/value"
)

// RunTick executes one complete state-effect cycle:
//
//  1. adaptive plan selection and per-tick index builds (§4.1);
//  2. the query/effect phase: every object's current script phase runs,
//     reading frozen state and emitting effect contributions (§2);
//  3. transaction admission over the collected atomic intents (§3.1);
//  4. the update step: expression rules, then registered update components,
//     each over old state + combined effects; staged writes apply
//     atomically (§2.2);
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

	// (3) Transaction admission.
	if len(w.txns) > 0 {
		if err := w.admitTxns(); err != nil {
			w.inTick = false
			return err
		}
	}

	// (4) Update step.
	if err := w.runUpdateStep(); err != nil {
		w.inTick = false
		return err
	}

	// (5) pc advance + interrupts.
	w.advancePCs()

	// Effects are consumed; clear before handlers arm next tick's buffers.
	for _, rt := range w.order {
		for i := range rt.fx {
			rt.fx[i].reset()
		}
	}
	w.clearTxns()

	// (6) Reactive handlers on the new state.
	w.runHandlers()

	// (7) Tick boundary.
	if w.parts != nil {
		w.foldPartitionLoads()
	}
	w.inTick = false
	w.applyPending()
	for _, site := range w.sites {
		site.stats.EndTick()
	}
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
	// apply step; stale values must never apply later.
	for _, rt := range w.order {
		for i := range rt.stage {
			rt.stage[i].full, rt.stage[i].rows = false, rt.stage[i].rows[:0]
		}
		if rt.vec != nil {
			rt.vec.staged = false
		}
	}
	// (a) Expression rules, evaluated over old state + combined effects.
	// Rules that compiled to batch kernels run over the columns when the
	// cost model (or Options.Exec) picks the vectorized path; the rest
	// interpret closures row-at-a-time. Both stage their results, applied
	// together in (c).
	for _, rt := range w.order {
		if len(rt.plan.Updates) == 0 {
			continue
		}
		rules := rt.plan.Updates
		if rt.vec != nil && len(rt.vec.updates) > 0 &&
			w.execCosts.ChooseExec(w.opts.Exec, rt.tab.Len(), rt.tab.Cap(), rt.vec.updateKernels) == plan.ExecVectorized {
			w.runVecUpdates(rt)
			rules = rt.vec.scalarUpdates
		}
		if len(rules) > 0 {
			w.runScalarUpdates(rt, rules)
		}
	}
	// (b) Owner components.
	for _, c := range w.comps {
		uctx := w.updateCtx(c.Name())
		if err := c.Update(uctx); err != nil {
			return fmt.Errorf("component %q: %w", c.Name(), err)
		}
	}
	// (c) Apply all staged writes atomically: the staging columns of scalar
	// rules and components, then the result vectors of the vectorized rules
	// (disjoint attributes by strict ownership).
	for _, rt := range w.order {
		rt.applyStaged()
		rt.applyVecUpdates()
	}
	return nil
}

// applyStaged writes the staging columns back: every live row of a rule-
// filled column, the listed rows of a component-staged one.
func (rt *classRT) applyStaged() {
	for attrIdx := range rt.stage {
		col := &rt.stage[attrIdx]
		if col.full {
			for row, ok := range rt.tab.AliveMask() {
				if ok {
					rt.commit(row, attrIdx, col.vals[row])
				}
			}
		}
		for _, row := range col.rows {
			rt.commit(int(row), attrIdx, col.vals[row])
		}
	}
}

// commit applies one staged cell. Changefeed marks diff on raw bits so rows
// rewritten to the same payload stay out of the feed.
func (rt *classRT) commit(row, attrIdx int, v value.Value) {
	if rt.vlog != nil && changedValue(rt.tab.At(row, attrIdx), v) {
		rt.vlog.mark(row)
	}
	rt.tab.SetAt(row, attrIdx, v)
}

func (w *World) advancePCs() {
	for _, rt := range w.order {
		if rt.plan.NumPhases <= 1 {
			continue
		}
		tab := rt.tab
		n := float64(rt.plan.NumPhases)
		for r := 0; r < tab.Cap(); r++ {
			if !tab.Alive(r) {
				continue
			}
			pc := tab.At(r, rt.pcCol).AsNumber()
			pc = pc + 1
			if pc >= n {
				pc = 0
			}
			tab.SetAt(r, rt.pcCol, value.Num(pc))
		}
	}
	for _, in := range w.interrupts {
		rt := w.classes[in.class]
		tab := rt.tab
		for r := 0; r < tab.Cap(); r++ {
			if !tab.Alive(r) {
				continue
			}
			if in.cond(w, tab.ID(r)) {
				tab.SetAt(r, rt.pcCol, value.Num(float64(in.phase)))
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
