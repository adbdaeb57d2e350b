package engine

// The intent log (§3.1). A tick's transaction intents live in
// struct-of-arrays lanes, one txnLog per shard sink and atomic site: per
// intent the source row; per emission slot the target id, target row and
// float64 payload (atomic blocks admit only sum, avg and count, so the
// payload is the whole contribution); per stable constraint base the
// referent row. Kernels fill the lanes from their own (appendIntents), the
// interpreter row by row (runAtomic), and a hand-crafted intent is a
// one-intent log of its own. Admission reads nothing else; a *Txn is a
// pooled handle on one entry.

import (
	"fmt"
	"slices"

	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/value"
)

// Txn is a transaction intent collected from an atomic block (§3.1): a
// handle on one entry of an intent log.
//
// The engine recycles intents: a *Txn handed to a TxnPolicy is valid only
// until admission returns. Policies must not retain the pointers; copy out
// what must outlive the tick.
type Txn struct {
	Class  string
	Source value.ID
	// Aborted is set by the admission policy during the update step.
	Aborted bool

	log *txnLog
	idx int32
}

// Emission is one effect contribution inside a Txn.
type Emission struct {
	Class   string
	Target  value.ID
	AttrIdx int
	Val     value.Value
}

// NewTxn builds a hand-crafted intent; each emission must go to an effect
// whose combinator folds a payload (a rollback restores its cell). Admission
// resolves its ids to rows each time it starts, since nothing pins them
// across ticks, and admits it through the serial loop.
func (w *World) NewTxn(class string, source value.ID, frame []value.Value, constraints []expr.Fn, ems []Emission) (*Txn, error) {
	lg := &txnLog{rt: w.classes[class], cons: constraints, fw: len(frame)}
	if lg.rt == nil {
		return nil, fmt.Errorf("engine: NewTxn: unknown class %q", class)
	}
	for _, e := range ems {
		dst := w.classes[e.Class]
		if dst == nil || e.AttrIdx < 0 || e.AttrIdx >= len(dst.fx) {
			return nil, fmt.Errorf("engine: NewTxn: no effect %d in class %q", e.AttrIdx, e.Class)
		}
		if c := dst.cls.Effects[e.AttrIdx].Comb; c == combinator.MinBy || c == combinator.MaxBy || c == combinator.SetUnion {
			return nil, fmt.Errorf("engine: NewTxn: effect %s.%s folds with %s, not a payload combinator", e.Class, dst.cls.Effects[e.AttrIdx].Name, c)
		}
		lg.slots = append(lg.slots, txnSlot{rt: dst, attr: e.AttrIdx})
	}
	lg.shape(lg.slots, 0)
	lg.open(1)
	copy(lg.frame, frame)
	for k, e := range ems {
		lg.tgt[k][0], lg.val[k][0] = e.Target, payloadOf(e.Val)
	}
	return &Txn{Class: class, Source: source, log: lg}, nil
}

// Emissions lists the intent's contributions in block order, built from
// the log on each call; a null target's emission is not listed.
func (t *Txn) Emissions() []Emission {
	lg, i := t.log, t.idx
	var out []Emission
	for k, sl := range lg.slots {
		if lg.row[k][i] != txnNull {
			out = append(out, Emission{Class: sl.rt.name, Target: lg.tgt[k][i], AttrIdx: sl.attr,
				Val: payloadValue(sl.rt.cls.Effects[sl.attr].Kind, lg.val[k][i])})
		}
	}
	return out
}

// Frame is the executing row's frame as the block started.
func (t *Txn) Frame() []value.Value {
	lo, hi := int(t.idx)*t.log.fw, int(t.idx+1)*t.log.fw
	return t.log.frame[lo:hi:hi]
}

// Constraints are the block's constraints.
func (t *Txn) Constraints() []expr.Fn { return t.log.cons }

// txnNull is the target row of a null target, whose emission is skipped. A
// dangling target is row -1, which aborts the intent.
const txnNull = -2

// txnSlot is one emission slot: the effect column it folds into. A site's
// slots are its block's emission steps in pre-order, which is execution
// order; sem keeps each step to one write per intent.
type txnSlot struct {
	rt   *classRT // target class
	attr int
	step *compile.EmitStep // nil for hand-crafted emissions
	self bool              // the target is the source row
}

func (s *txnSlot) col() *combinator.Column { return &s.rt.fx[s.attr] }

// txnLog is one intent log. Lanes are indexed [slot or base][intent]; each
// takes its length from src, so open resizes them all and reset truncates
// src alone.
type txnLog struct {
	site  *txnSite // nil: hand-crafted, rows resolve when admission starts
	rt    *classRT // source class
	cons  []expr.Fn
	slots []txnSlot
	fw    int // frame width

	src   []int32 // -1: a dead hand-crafted source
	tgt   [][]value.ID
	row   [][]int32
	val   [][]float64
	cell  [][]combinator.Cell // saved before the fold, for rollback
	base  [][]int32           // < 0: none (null or dangling)
	frame []value.Value       // intent i's is [i*fw, (i+1)*fw)

	handles []*Txn
	nh      int

	// The batched admission that last collected the log (txnbatch.go): its
	// generation, the log's index in txnRuntime.logs, and the lanes of rows
	// its intents claim.
	gen    uint64
	ord    int
	claims []txnClaimLane
}

func (site *txnSite) newLog() *txnLog {
	lg := &txnLog{site: site, rt: site.rt, cons: site.step.Constraints, fw: site.rt.plan.NumSlots}
	lg.shape(site.emSlots, len(site.bases))
	return lg
}

func (lg *txnLog) shape(slots []txnSlot, bases int) {
	n := len(slots)
	lg.slots = slots
	lg.tgt, lg.row, lg.val, lg.cell = make([][]value.ID, n), make([][]int32, n), make([][]float64, n), make([][]combinator.Cell, n)
	lg.base = make([][]int32, bases)
}

// open appends n intents with unwritten lanes and returns the first index.
func (lg *txnLog) open(n int) int {
	i := len(lg.src)
	m := i + n
	lg.src = resize(lg.src, m)
	for k := range lg.slots {
		lg.tgt[k], lg.row[k], lg.val[k], lg.cell[k] = resize(lg.tgt[k], m), resize(lg.row[k], m), resize(lg.val[k], m), resize(lg.cell[k], m)
	}
	for b := range lg.base {
		lg.base[b] = resize(lg.base[b], m)
	}
	lg.frame = resize(lg.frame, m*lg.fw)
	return i
}

func (lg *txnLog) reset() { lg.src, lg.nh = lg.src[:0], 0 }

// empty reports that every target of intent i was null: it has nothing to
// admit and gets no handle.
func (lg *txnLog) empty(i int) bool {
	for k := range lg.slots {
		if lg.row[k][i] != txnNull {
			return false
		}
	}
	return true
}

// handle returns a pooled handle on intent i.
func (lg *txnLog) handle(i int) *Txn {
	if lg.nh == len(lg.handles) {
		lg.handles = append(lg.handles, &Txn{log: lg})
	}
	t := lg.handles[lg.nh]
	lg.nh++
	t.Class, t.Source, t.Aborted, t.idx = lg.rt.name, lg.rt.tab.ID(int(lg.src[i])), false, int32(i)
	return t
}

// resize returns s at length n; elements past the old length are stale.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// live reports whether the source and every emission target are live rows.
// §3.1 atomicity means a dead source *or any dead emission target* aborts
// the whole transaction before anything applies — a half-applied purchase
// from a despawned seller would otherwise duplicate goods.
func (t *Txn) live() bool {
	lg, i := t.log, t.idx
	if lg.src[i] < 0 {
		return false
	}
	for k := range lg.slots {
		if lg.row[k][i] == -1 {
			return false
		}
	}
	return true
}

// apply folds the transaction's payloads into their cells, saving each
// cell first for rollback.
func (t *Txn) apply() {
	lg, i := t.log, t.idx
	for k := range lg.slots {
		if r := lg.row[k][i]; r >= 0 {
			col := lg.slots[k].col()
			lg.cell[k][i] = col.Save(int(r))
			col.Add(int(r), value.Num(lg.val[k][i]), 0)
		}
	}
}

// rollback aborts the transaction, restoring its cells in reverse
// application order so a cell it folded into twice ends at its saved state.
func (t *Txn) rollback() {
	lg, i := t.log, t.idx
	for k := len(lg.slots) - 1; k >= 0; k-- {
		if r := lg.row[k][i]; r >= 0 {
			lg.slots[k].col().Restore(int(r), lg.cell[k][i])
		}
	}
	t.Aborted = true
}
