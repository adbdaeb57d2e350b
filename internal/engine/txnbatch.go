package engine

// The batched transaction-admission driver (§3.1 scaled across the three
// execution axes). Serial greedy admission validates object-at-a-time,
// replaying update rules per constraint read; this driver instead reads the
// intent logs (txnlog.go) lane by lane:
//
//  1. claims every transaction's touched rows from the log's row lanes —
//     source, emission targets and stable-base referents, all resolved
//     when the intent was logged — aborting transactions with dead rows up
//     front, and unions transactions sharing any row into conflict groups.
//     Transactions in different groups commute, because a group's admission
//     outcome and effect-buffer residue depend only on committed state plus
//     the group's own accumulator cells;
//  2. admits all singleton groups whole-batch: each log saves its
//     singletons' cells once and folds every emission slot with one scatter
//     fold (Column.AddPayloadAt); a columnar tentative post-update view is
//     built once per affected (class, attr) by running the attr's
//     vectorized update rule over the dense combined-effect vectors, and
//     constraints evaluate as vexpr mask kernels over per-lane gathers of
//     that view (string/set/iterator constraints fall back to per-lane
//     closures over tentWorld); failed lanes restore their cells;
//  3. runs true conflict groups through the serial greedy loop group-at-a-
//     time — in admission order within each group — fanned out across the
//     worker pool, partitioned or not: groups commute.
//
// Every path preserves bit-identity with the serial loop: group
// disjointness keeps each accumulator cell's add/remove sequence identical
// (singletons touch disjoint cells, so folding slot by slot instead of
// intent by intent changes no cell), the vectorized tentative view is
// bitwise equal to per-row rule replay (vexpr ≡ expr by construction), and
// constraint evaluation is total and side-effect-free, so evaluation order
// cannot change outcomes.

import (
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// fxTouch records one accumulator cell's empty→non-empty transition made by
// a pooled conflict group; the logs merge into the shared touched lists in
// group order after the barrier.
type fxTouch struct {
	col *fxColumn
	row int32
}

// txnGroup is one multi-transaction conflict group: members are
// s.gmem[off:off+n] in admission order.
type txnGroup struct {
	off  int32
	n    int32
	fill int32
}

// txnRuntime is the retained scratch of the batched admission driver,
// generation-stamped so nothing clears between admissions.
type txnRuntime struct {
	gen   uint64
	parts bool // classify transactions by partition this pass (TxnCrossPart)

	foldRows []int32 // foldSingles scratch
	foldVals []float64

	machine vexpr.Machine

	gatherTent func(class string, attrIdx int, refs, out []float64, zero float64)
	viewEnv    vexpr.Env
	viewIDs    []float64

	sites []*txnSite

	// Per-transaction state, indexed by admission-order position.
	parent []int32
	root   []int32
	gsize  []int32
	gfirst []int32
	part   []int32
	cross  []bool

	groups []txnGroup
	gmem   []int32
	gtouch [][]fxTouch
}

func (s *txnRuntime) init(w *World) {
	s.gatherTent = func(class string, attrIdx int, refs, out []float64, zero float64) {
		rt := w.classes[class]
		col := rt.tab.NumColumn(attrIdx)
		if attrIdx < len(rt.txnViewGen) && rt.txnViewGen[attrIdx] == s.gen {
			col = rt.txnViewCols[attrIdx]
		}
		gatherRows(rt, col, refs, out, zero)
	}
	s.viewEnv.Gather = w.gatherFn
}

// txnAdmitMode picks this batch's admission mode: the serial loop when
// Options.Txn forces it or any transaction lacks an analyzable site, else
// the batched driver. As a side effect it stamps and collects the batch's
// distinct sites, and each site's logs, for the batched driver.
func (w *World) txnAdmitMode(txns []*Txn) plan.TxnMode {
	if w.opts.Txn == plan.TxnScalar {
		return plan.TxnScalar
	}
	s := &w.txnrt
	s.gen++
	s.sites = s.sites[:0]
	for _, t := range txns {
		lg := t.log
		site := lg.site
		if site == nil || !site.analyzable {
			return plan.TxnScalar
		}
		if site.gen != s.gen {
			site.gen = s.gen
			site.lanes, site.laneRows, site.logs = site.lanes[:0], site.laneRows[:0], site.logs[:0]
			s.sites = append(s.sites, site)
		}
		if lg.gen != s.gen {
			lg.gen, lg.pick = s.gen, lg.pick[:0]
			site.logs = append(site.logs, lg)
		}
	}
	return plan.TxnBatched
}

func (s *txnRuntime) find(i int32) int32 {
	p := s.parent
	for p[i] != i {
		p[i] = p[p[i]]
		i = p[i]
	}
	return i
}

func (s *txnRuntime) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.parent[ra] = rb
	}
}

// txnClaim adds one touched row to transaction i's conflict set, unioning
// with whichever transaction claimed the row before, and folds the row's
// partition into i's classification: a transaction whose rows span
// partitions is a cross-partition one (§4.2's accounting, TxnCrossPart).
func (w *World) txnClaim(i int, rt *classRT, row int) {
	s := &w.txnrt
	if rt.txnRowGen[row] == s.gen {
		o := rt.txnRowOwner[row]
		if o == int32(i) {
			return // i's already, partition folded
		}
		s.union(int32(i), o)
	} else {
		rt.txnRowGen[row] = s.gen
	}
	rt.txnRowOwner[row] = int32(i)
	if s.parts {
		p := int32(-1)
		if rt.prt != nil && row < len(rt.prt.assign) {
			p = rt.prt.assign[row]
		}
		switch {
		case p < 0 || (s.part[i] >= 0 && s.part[i] != p):
			s.part[i] = -1
			s.cross[i] = true
		case s.part[i] == -2:
			s.part[i] = p
		}
	}
}

// admitBatched is the batched/parallel admission driver.
// txnAdmitMode must have stamped the current generation and collected the
// batch's sites; every transaction carries an analyzable site.
func (w *World) admitBatched(txns []*Txn) {
	w.resolveTxns(txns)
	s := &w.txnrt
	n := len(txns)

	// (1) Pre-abort dead transactions, group conflicts over the rows the
	// intents resolved at emit time.
	s.parent = grow(s.parent, n)
	s.root = grow(s.root, n)
	s.gsize = grow(s.gsize, n)
	s.gfirst = grow(s.gfirst, n)
	s.part = grow(s.part, n)
	s.cross = grow(s.cross, n)
	s.parts = w.parts != nil && w.parts.ready
	crossCount := 0
	for _, rt := range w.order {
		if len(rt.txnRowGen) < rt.tab.Cap() {
			rt.txnRowGen = extend(rt.txnRowGen, rt.tab.Cap())
			rt.txnRowOwner = grow(rt.txnRowOwner, rt.tab.Cap())
		}
	}
	for i, t := range txns {
		s.parent[i], s.root[i] = int32(i), int32(i)
		s.part[i] = -2
		s.cross[i] = false
		if !t.live() {
			// A dead source or dead emission target aborts the whole
			// transaction before anything applies (§3.1 atomicity), exactly
			// like the serial loop.
			s.root[i] = -1
			t.Aborted = true
			continue
		}
		lg, j := t.log, t.idx
		w.txnClaim(i, lg.rt, int(lg.src[j]))
		for k := range lg.slots {
			if r := lg.row[k][j]; r >= 0 && !lg.slots[k].self {
				w.txnClaim(i, lg.slots[k].rt, int(r))
			}
		}
		for b := range lg.base {
			if r := lg.base[b][j]; r >= 0 {
				w.txnClaim(i, lg.site.baseRTs[b], int(r))
			}
		}
	}
	for i := range txns {
		s.gsize[i] = 0
		if s.root[i] >= 0 {
			s.root[i] = s.find(int32(i))
		}
	}
	for i := range txns {
		if r := s.root[i]; r >= 0 {
			s.gsize[r]++
			if s.cross[i] {
				crossCount++
			}
		}
	}

	// (2) Singleton groups: bucket lanes per site and intents per log, fold
	// each log's emission slots, validate whole-batch against the tentative
	// view.
	singles := 0
	for i, t := range txns {
		r := s.root[i]
		if r < 0 || s.gsize[r] != 1 {
			continue
		}
		singles++
		lg := t.log
		lg.site.lanes, lg.site.laneRows = append(lg.site.lanes, int32(i)), append(lg.site.laneRows, lg.src[t.idx])
		lg.pick = append(lg.pick, t.idx)
	}
	if singles > 0 {
		for _, site := range s.sites {
			for _, lg := range site.logs {
				w.foldSingles(lg)
			}
		}
		for _, site := range s.sites {
			for _, va := range site.views {
				w.buildTxnView(va)
			}
		}
		for _, site := range s.sites {
			w.runTxnSiteLanes(site, txns)
		}
	}

	// (3) Multi-transaction groups: serial greedy within each group,
	// groups fanned out across the pool.
	s.groups = s.groups[:0]
	total := 0
	for i := range txns {
		if r := s.root[i]; r >= 0 && s.gsize[r] > 1 {
			total++
		}
	}
	if total > 0 {
		for i := range txns {
			s.gfirst[i] = -1
		}
		for i := range txns {
			r := s.root[i]
			if r < 0 || s.gsize[r] <= 1 {
				continue
			}
			if s.gfirst[r] < 0 {
				s.gfirst[r] = int32(len(s.groups))
				s.groups = append(s.groups, txnGroup{})
			}
			s.groups[s.gfirst[r]].n++
		}
		off := int32(0)
		for gi := range s.groups {
			g := &s.groups[gi]
			g.off, g.fill = off, off
			off += g.n
		}
		s.gmem = grow(s.gmem, total)
		for i := range txns {
			r := s.root[i]
			if r < 0 || s.gsize[r] <= 1 {
				continue
			}
			g := &s.groups[s.gfirst[r]]
			s.gmem[g.fill] = int32(i)
			g.fill++
		}
	}
	pooled := w.runTxnGroups(txns)

	if !w.opts.DisableStats {
		w.execStats.TxnBatchedRows += int64(singles)
		w.execStats.TxnParallelGroups += int64(pooled)
		w.execStats.TxnCrossPart += int64(crossCount)
	}
}

// foldSingles saves the cells of a log's singleton intents and folds their
// payloads, one scatter fold per emission slot. Singletons touch disjoint
// cells, so no policy order can change what a cell receives; within an
// intent, slot order is execution order, and a cell the intent writes
// twice is saved again before its second fold.
func (w *World) foldSingles(lg *txnLog) {
	s := &w.txnrt
	for k := range lg.slots {
		col, row, val, cells := lg.slots[k].col(), lg.row[k], lg.val[k], lg.cell[k]
		rows, vals := s.foldRows[:0], s.foldVals[:0]
		for _, i := range lg.pick {
			if r := row[i]; r >= 0 {
				cells[i] = col.Save(int(r))
				rows, vals = append(rows, r), append(vals, val[i])
			}
		}
		col.AddPayloadAt(rows, vals, &col.touched)
		s.foldRows, s.foldVals = rows, vals
	}
}

// buildTxnView materializes the tentative post-update column for one
// (class, attr): the attr's vectorized update rule runs over committed
// columns plus dense combined-effect vectors — bitwise equal to
// tentWorld.StateValue's per-row rule replay.
func (w *World) buildTxnView(va txnViewAttr) {
	s := &w.txnrt
	rt := va.rt
	if len(rt.txnViewGen) < len(rt.cls.State) {
		rt.txnViewGen = extend(rt.txnViewGen, len(rt.cls.State))
		rt.txnViewCols = extend(rt.txnViewCols, len(rt.cls.State))
	}
	if rt.txnViewGen[va.attr] == s.gen {
		return
	}
	rt.txnViewGen[va.attr] = s.gen
	n := rt.tab.Cap()
	rt.txnFxGen = extend(rt.txnFxGen, len(rt.fx))
	for _, ai := range va.prog.FxUsed() {
		if rt.txnFxGen[ai] == s.gen {
			continue
		}
		rt.txnFxGen[ai] = s.gen
		rt.bindFxVec(ai, n)
	}
	out := grow(rt.txnViewCols[va.attr], n)
	rt.txnViewCols[va.attr] = out
	s.viewEnv.Cols = rt.tab.NumColumns()
	s.viewEnv.Fx = rt.fxVecs
	if va.prog.NeedIDs() {
		s.viewIDs = grow(s.viewIDs, n)
		for r := 0; r < n; r++ {
			s.viewIDs[r] = float64(rt.tab.ID(r))
		}
		s.viewEnv.IDs = s.viewIDs
	}
	va.prog.Run(&s.machine, &s.viewEnv, 0, n, out)
}

// runTxnSiteLanes validates one site's singleton lanes: kernel constraints
// run whole-batch over gathered lane vectors (self attrs read the tentative
// view for rule attrs, committed columns otherwise; frame slots broadcast
// per lane; cross-object reads gather through the view), closure
// constraints evaluate per lane over tentWorld. Failed lanes roll their
// emissions back and abort.
func (w *World) runTxnSiteLanes(site *txnSite, txns []*Txn) {
	nl := len(site.lanes)
	if nl == 0 {
		return
	}
	s := &w.txnrt
	rt := site.rt
	if len(site.envCols) < len(rt.cls.State) {
		site.envCols = make([][]float64, len(rt.cls.State))
	}
	site.colBufs = extend(site.colBufs, len(site.cols))
	for bi, a := range site.cols {
		vec := grow(site.colBufs[bi], nl)
		site.colBufs[bi] = vec
		col := rt.tab.NumColumn(a)
		if rt.hasRule[a] && a < len(rt.txnViewGen) && rt.txnViewGen[a] == s.gen {
			col = rt.txnViewCols[a]
		}
		for k, r := range site.laneRows {
			vec[k] = col[r]
		}
		site.envCols[a] = vec
	}
	site.slotBufs = extend(site.slotBufs, len(site.slots))
	for bi, sl := range site.slots {
		vec := grow(site.slotBufs[bi], nl)
		site.slotBufs[bi] = vec
		site.slotVecs = extend(site.slotVecs, sl+1)
		for k, li := range site.lanes {
			// String txn args broadcast dictionary codes (interned, so
			// slot-vs-slot equality matches the closure evaluator).
			if v := txns[li].Frame()[sl]; v.Kind() == value.KindString {
				vec[k] = w.dict.Code(v.AsString())
			} else {
				vec[k] = payloadOf(v)
			}
		}
		site.slotVecs[sl] = vec
	}
	if site.needIDs {
		site.idBuf = grow(site.idBuf, nl)
		for k, li := range site.lanes {
			site.idBuf[k] = float64(txns[li].Source)
		}
	}
	env := &site.env
	env.Cols = site.envCols
	env.Slots = site.slotVecs
	env.IDs = site.idBuf
	env.Gather = s.gatherTent
	site.outBuf = grow(site.outBuf, nl)
	site.passBuf = grow(site.passBuf, nl)
	pass := site.passBuf
	for k := range pass {
		pass[k] = true
	}
	for ci := range site.cons {
		c := &site.cons[ci]
		if c.prog != nil {
			c.prog.Run(&s.machine, env, 0, nl, site.outBuf)
			for k := range pass {
				if site.outBuf[k] == 0 {
					pass[k] = false
				}
			}
			continue
		}
		// Closure fallback: exact per-lane evaluation over the tentative
		// world — group disjointness confines its reads to the lane's own
		// accumulators. Constraints are total and side-effect-free, so
		// skipping already-failed lanes cannot change outcomes.
		tw := &w.slots[0].tw
		for k, li := range site.lanes {
			if !pass[k] {
				continue
			}
			tw.bindTxn(txns[li])
			if !c.fn(&tw.cons).AsBool() {
				pass[k] = false
			}
		}
	}
	for k, li := range site.lanes {
		if !pass[k] {
			txns[li].rollback()
		}
	}
}

// runTxnGroups executes the multi-transaction conflict groups, returning
// how many were dispatched to the worker pool.
func (w *World) runTxnGroups(txns []*Txn) int {
	s := &w.txnrt
	if len(s.groups) == 0 {
		return 0
	}
	// runGroup is the serial greedy loop over one conflict group, with the
	// tentative view of the worker slot it runs on (log as for Txn.apply).
	runGroup := func(gi, slot int, log *[]fxTouch) {
		g := &s.groups[gi]
		tw := &w.slots[slot].tw
		for _, m := range s.gmem[g.off : g.off+g.n] {
			t := txns[m]
			t.apply(log)
			if !tw.constraintsHold(t) {
				t.rollback()
			}
		}
	}
	nw := 1
	if w.parallelOK() {
		nw = min(w.opts.Workers, len(s.groups))
	}
	if nw <= 1 {
		for gi := range s.groups {
			runGroup(gi, 0, nil)
		}
		return 0
	}
	w.growSlots(nw)
	w.resetGroupLogs(len(s.groups))
	w.runPool(len(s.groups), nw, func(slot, gi int) {
		runGroup(gi, slot, &s.gtouch[gi])
	})
	w.mergeGroupLogs(len(s.groups))
	return len(s.groups)
}

func (w *World) resetGroupLogs(n int) {
	s := &w.txnrt
	s.gtouch = extend(s.gtouch, n)
	for gi := 0; gi < n; gi++ {
		s.gtouch[gi] = s.gtouch[gi][:0]
	}
}

func (w *World) mergeGroupLogs(n int) {
	s := &w.txnrt
	for gi := 0; gi < n; gi++ {
		for _, t := range s.gtouch[gi] {
			t.col.touched = append(t.col.touched, int(t.row))
		}
	}
}
