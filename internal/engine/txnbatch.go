package engine

// The batched transaction-admission driver (§3.1 scaled across the three
// execution axes). Serial greedy admission validates object-at-a-time,
// replaying update rules per constraint read; this driver instead reads the
// intent logs (txnlog.go) lane by lane, in vexpr.BatchSize windows of the
// batch on the world's worker pool:
//
//  1. claims: each window aborts its transactions with a dead row up front,
//     classifies the live ones by partition, and counts each one's rows
//     — source, emission targets and stable-base referents, all resolved when
//     the intent was logged; a transaction's repeated rows count once — on
//     generation-stamped per-row claim words with atomic compare-and-swap. A
//     live transaction all of whose rows count one shares none: it is a
//     singleton. Only the others union over their shared rows, serially in
//     admission order, into conflict groups. Singletons share no row, so the
//     groups, their order and their members' order are those of a union-find
//     over the whole batch. Transactions in different groups commute, because a
//     group's admission outcome and effect-buffer residue depend only on
//     committed state plus the group's own accumulator cells;
//  2. admits all singletons whole-batch: each window buckets its singletons
//     by log and folds every emission slot of every bucket with one scatter
//     fold (Column.SaveFoldAt), saving each cell first. A columnar tentative
//     post-update view is built per affected (class, attr) by running the
//     attr's vectorized update rule window by window over the dense
//     combined-effect vectors; then each window of a site's lanes evaluates
//     the constraints as vexpr mask kernels over per-lane gathers of that
//     view on the worker's machine (string/set/iterator constraints fall
//     back to per-lane closures over the worker's tentWorld); failed lanes
//     restore their cells;
//  3. runs true conflict groups through the serial greedy loop group-at-a-
//     time — in admission order within each group — fanned out across the
//     worker pool, partitioned or not: groups commute.
//
// A batch of at most one window runs steps 1 and 2 inline, as runPass runs a
// one-batch extent. Every path preserves bit-identity with the serial loop:
// group disjointness keeps each accumulator cell's add/remove sequence
// identical (singletons touch disjoint cells, so neither folding slot by
// slot nor any window schedule changes a cell), the vectorized tentative
// view is bitwise equal to per-row rule replay (vexpr ≡ expr by
// construction), and constraint evaluation is total and side-effect-free,
// so evaluation order cannot change outcomes.

import (
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// txnGroup is one multi-transaction conflict group: members are
// s.gmem[off:off+n] in admission order.
type txnGroup struct {
	off  int32
	n    int32
	fill int32
}

// txnClaimLane is one lane of rows an intent log's intents claim: the
// sources, a non-self emission slot's targets or a stable base's
// referents. A row < 0 claims nothing.
type txnClaimLane struct {
	rt   *classRT
	rows []int32
}

// txnWin is one window [lo, hi) of a view column (s.views[of]) or of a
// site's lanes (s.sites[of]) inside one window of the batch.
type txnWin struct{ of, lo, hi int32 }

// Per-transaction admission states.
const (
	txnDead   uint8 = iota // aborted before anything applied
	txnLive                // claimed, not yet sorted
	txnSingle              // shares no row
	txnShared              // in a conflict group
)

// Row claim states, the low two bits of classRT.txnRowClaim under the
// admission's generation (gen<<2).
const (
	claimOne   = 1 // one transaction touches the row
	claimMany  = 2 // several do
	claimOwned = 3 // grouping reached it; txnRowOwner names the last claimant
)

// txnRuntime is the retained scratch of the batched admission driver,
// generation-stamped so nothing clears between admissions.
type txnRuntime struct {
	gen   uint64
	parts bool // classify transactions by partition this pass (TxnCrossPart)

	gatherTent func(class string, attrIdx int, refs, out []float64, zero float64)

	sites []*txnSite
	logs  []*txnLog     // every site's logs, site by site; txnLog.ord indexes it
	views []txnViewAttr // the view columns this admission builds
	wins  []txnWin      // the view or check pass's windows

	// The batch in flight and its window count, and the window bodies bound
	// once so a fan-out allocates nothing.
	txns                            []*Txn
	nwin                            int
	claimFn, placeFn, viewFn, chkFn func(slot, i int)
	groupFn                         func(slot, i int)

	state []uint8 // per transaction, by admission-order position

	// The window layout: window [lo, hi) of pos holds the batch positions
	// of that window's singletons, bucketed by log in log order and in
	// admission order within a bucket, then its shared transactions; idx
	// holds each placed transaction's intent index in its log (until the
	// check pass compacts a bucket's failed intents to its front).
	pos, idx []int32
	// wcnt holds per window, stride len(logs)+3: where each log's bucket
	// starts relative to the window, where the shared transactions start
	// and end, and the window's cross-partition count.
	wcnt []int32

	// Conflict groups over the shared transactions, indexed by position in
	// shared (admission order).
	shared []int32
	parent []int32
	root   []int32
	gfirst []int32
	groups []txnGroup
	gmem   []int32
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
	s.claimFn, s.placeFn, s.viewFn, s.chkFn = w.txnClaimWindow, w.txnPlaceWindow, w.txnViewWindow, w.txnCheckWindow
	s.groupFn = w.txnRunGroup
}

// poolWidth is how many workers admission's passes fan out to.
func (w *World) poolWidth() int {
	if w.parallelOK() {
		return w.opts.Workers
	}
	return 1
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
			site.logs = site.logs[:0]
			s.sites = append(s.sites, site)
		}
		if lg.gen != s.gen {
			lg.gen = s.gen
			site.logs = append(site.logs, lg)
		}
	}
	s.logs = s.logs[:0]
	for _, site := range s.sites {
		for _, lg := range site.logs {
			lg.ord = len(s.logs)
			s.logs = append(s.logs, lg)
			lg.bindClaims()
		}
	}
	return plan.TxnBatched
}

// bindClaims lists the log's claim lanes over its current row lanes: the
// sources, each non-self emission slot's targets (a self slot's is the
// source), each stable base's referents.
func (lg *txnLog) bindClaims() {
	lg.claims = append(lg.claims[:0], txnClaimLane{rt: lg.rt, rows: lg.src})
	for k := range lg.slots {
		if !lg.slots[k].self {
			lg.claims = append(lg.claims, txnClaimLane{rt: lg.slots[k].rt, rows: lg.row[k]})
		}
	}
	for b := range lg.base {
		lg.claims = append(lg.claims, txnClaimLane{rt: lg.site.baseRTs[b], rows: lg.base[b]})
	}
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

// window returns the bounds of window wi of the batch.
func (s *txnRuntime) window(wi int) (lo, hi int) {
	lo = wi * vexpr.BatchSize
	return lo, min(lo+vexpr.BatchSize, len(s.txns))
}

// stride is the row length of wcnt.
func (s *txnRuntime) stride() int { return len(s.logs) + 3 }

// bucket returns where log ord's singletons lie in window wi's layout,
// as absolute positions; ord len(logs) is the shared transactions.
func (s *txnRuntime) bucket(wi, ord int) (a, b int) {
	c := s.wcnt[wi*s.stride()+ord:]
	lo := wi * vexpr.BatchSize
	return lo + int(c[0]), lo + int(c[1])
}

// admitBatched is the batched/parallel admission driver.
// txnAdmitMode must have stamped the current generation and collected the
// batch's sites; every transaction carries an analyzable site.
func (w *World) admitBatched(txns []*Txn) {
	s := &w.txnrt
	n := len(txns)
	s.txns, s.nwin = txns, (n+vexpr.BatchSize-1)/vexpr.BatchSize
	nw := 1
	if s.nwin > 1 {
		nw = w.poolWidth()
	}
	w.growSlots(nw)
	s.state, s.pos, s.idx = grow(s.state, n), grow(s.pos, n), grow(s.idx, n)
	s.wcnt = grow(s.wcnt, s.nwin*s.stride())
	s.parts = w.parts != nil && w.parts.ready
	for _, rt := range w.order {
		if len(rt.txnRowClaim) < rt.tab.Cap() {
			rt.txnRowClaim = extend(rt.txnRowClaim, rt.tab.Cap())
			rt.txnRowOwner = grow(rt.txnRowOwner, rt.tab.Cap())
		}
	}

	// (1) Pre-abort dead transactions and count claims over the rows the
	// intents resolved at emit time; then split the live ones into
	// singletons and shared transactions, and fold the singletons.
	w.runPool(s.nwin, nw, s.claimFn)
	w.runPool(s.nwin, nw, s.placeFn)
	singles, cross := s.layoutTotals()

	// (2) Singletons: validate whole-batch against the tentative view.
	if singles > 0 {
		w.buildTxnViews(nw)
		w.checkTxnLanes(nw)
	}

	// (3) Shared transactions: conflict groups, serial greedy within each
	// group, groups fanned out across the pool.
	s.groupShared()
	pooled := w.runTxnGroups()
	s.txns = nil

	if !w.opts.DisableStats {
		w.execStats.TxnBatchedRows += int64(singles)
		w.execStats.TxnParallelGroups += int64(pooled)
		w.execStats.TxnCrossPart += int64(cross)
	}
}

// countClaim counts one more transaction touching the row whose claim word
// is c: claimOne for the first this admission (stamp), claimMany after.
// Windows may count concurrently, so it counts with a CAS loop.
func countClaim(c *uint64, stamp uint64) {
	for {
		old := atomic.LoadUint64(c)
		nw := stamp | claimOne
		if old&^3 == stamp {
			if old&3 != claimOne {
				return
			}
			nw = stamp | claimMany
		}
		if atomic.CompareAndSwapUint64(c, old, nw) {
			return
		}
	}
}

// txnClaimWindow is pass (1a) over window wi: dead transactions abort
// (§3.1 atomicity: a dead source or emission target aborts the whole
// transaction before anything applies, exactly like the serial loop), and
// every live one counts its distinct rows and folds their partitions: a
// transaction whose rows span partitions is a cross-partition one (§4.2's
// accounting, TxnCrossPart).
func (w *World) txnClaimWindow(_, wi int) {
	s := &w.txnrt
	stamp := s.gen << 2
	cross := int32(0)
	lo, hi := s.window(wi)
	for i := lo; i < hi; i++ {
		t := s.txns[i]
		if !t.live() {
			s.state[i], t.Aborted = txnDead, true
			continue
		}
		s.state[i] = txnLive
		lg, j := t.log, t.idx
		part := int32(-2)
	claims:
		for q, c := range lg.claims {
			r := c.rows[j]
			if r < 0 {
				continue
			}
			for _, p := range lg.claims[:q] {
				if p.rows[j] == r && p.rt == c.rt {
					continue claims
				}
			}
			countClaim(&c.rt.txnRowClaim[r], stamp)
			if s.parts {
				p := int32(-1)
				if c.rt.prt != nil && int(r) < len(c.rt.prt.assign) {
					p = c.rt.prt.assign[r]
				}
				switch {
				case p < 0 || (part >= 0 && part != p):
					part = -1
				case part == -2:
					part = p
				}
			}
		}
		if part == -1 {
			cross++
		}
	}
	s.wcnt[(wi+1)*s.stride()-1] = cross
}

// txnPlaceWindow is pass (1b) over window wi, after every claim is counted:
// a live transaction is a singleton when each of its rows counts one. The
// window lays its singletons out by log and its shared transactions after
// them, then folds each log's singletons slot by slot, saving every cell
// first. Singletons touch disjoint cells, so the windows fold concurrently
// and no schedule changes a cell.
func (w *World) txnPlaceWindow(_, wi int) {
	s := &w.txnrt
	one := s.gen<<2 | claimOne
	nl := len(s.logs)
	start := s.wcnt[wi*s.stride() : wi*s.stride()+nl+2]
	clear(start)
	lo, hi := s.window(wi)
	for i := lo; i < hi; i++ {
		if s.state[i] != txnLive {
			continue
		}
		t := s.txns[i]
		lg, j := t.log, t.idx
		st, b := txnSingle, lg.ord
		for _, c := range lg.claims {
			if r := c.rows[j]; r >= 0 && c.rt.txnRowClaim[r] != one {
				st, b = txnShared, nl
				break
			}
		}
		s.state[i] = st
		start[b]++
	}
	// The counts become bucket starts and serve as placement cursors; each
	// cursor ends at its bucket's end, the next bucket's start.
	off := int32(0)
	for b := range start[:nl+1] {
		start[b], off = off, off+start[b]
	}
	for i := lo; i < hi; i++ {
		b := nl
		switch s.state[i] {
		case txnSingle:
			b = s.txns[i].log.ord
		case txnShared:
		default:
			continue
		}
		p := lo + int(start[b])
		start[b]++
		s.pos[p], s.idx[p] = int32(i), s.txns[i].idx
	}
	copy(start[1:], start[:nl+1])
	start[0] = 0
	for o, lg := range s.logs {
		if a, b := s.bucket(wi, o); a < b {
			for k := range lg.slots {
				lg.slots[k].col().SaveFoldAt(s.idx[a:b], lg.row[k], lg.val[k], lg.cell[k])
			}
		}
	}
}

// layoutTotals counts the singletons per site (txnSite.lanes) and returns
// the batch's singleton and cross-partition totals.
func (s *txnRuntime) layoutTotals() (singles, cross int) {
	nl := len(s.logs)
	for _, site := range s.sites {
		site.lanes = 0
	}
	for wi := 0; wi < s.nwin; wi++ {
		c := s.wcnt[wi*s.stride():]
		singles += int(c[nl])
		cross += int(c[nl+2])
		for _, lg := range s.logs {
			lg.site.lanes += int(c[lg.ord+1] - c[lg.ord])
		}
	}
	return singles, cross
}

// buildTxnViews materializes the tentative post-update columns the
// batch's lanes read, one (class, attr) at a time: the attr's vectorized
// update rule runs over committed columns plus dense combined-effect
// vectors — bitwise equal to tentWorld.StateValue's per-row rule replay —
// window by window on the pool.
func (w *World) buildTxnViews(nw int) {
	s := &w.txnrt
	s.views, s.wins = s.views[:0], s.wins[:0]
	for _, site := range s.sites {
		if site.lanes > 0 {
			for _, va := range site.views {
				w.stageTxnView(va)
			}
		}
	}
	w.runPool(len(s.wins), nw, s.viewFn)
}

// stageTxnView prepares one view column for the windowed build: it stamps
// the column, binds the dense effect vectors the rule reads and its class's
// kernel environment, and queues the column's windows. A column another
// site already staged this admission is skipped.
func (w *World) stageTxnView(va txnViewAttr) {
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
	rt.txnViewCols[va.attr] = grow(rt.txnViewCols[va.attr], n)
	env := &rt.txnEnv
	env.Cols, env.Fx, env.Gather = rt.tab.NumColumns(), rt.fxVecs, w.gatherFn
	if va.prog.NeedIDs() {
		rt.txnIDs = grow(rt.txnIDs, n)
		for r := 0; r < n; r++ {
			rt.txnIDs[r] = float64(rt.tab.ID(r))
		}
		env.IDs = rt.txnIDs
	}
	s.views = append(s.views, va)
	for lo := 0; lo < n; lo += vexpr.BatchSize {
		s.wins = append(s.wins, txnWin{of: int32(len(s.views) - 1), lo: int32(lo), hi: int32(min(lo+vexpr.BatchSize, n))})
	}
}

// txnViewWindow runs one window of a staged view column's rule.
func (w *World) txnViewWindow(slot, i int) {
	s := &w.txnrt
	win := s.wins[i]
	va := s.views[win.of]
	va.prog.Run(&w.slots[slot].machine, &va.rt.txnEnv, int(win.lo), int(win.hi), va.rt.txnViewCols[va.attr])
}

// checkTxnLanes validates every site's singleton lanes, one window of the
// batch at a time on the pool, and rolls the failed ones back. A site's
// lanes in a window are its logs' buckets, which lie side by side.
func (w *World) checkTxnLanes(nw int) {
	s := &w.txnrt
	s.wins = s.wins[:0]
	for si, site := range s.sites {
		if site.lanes == 0 {
			continue
		}
		w.bindTxnLanes(site)
		first, last := site.logs[0].ord, site.logs[len(site.logs)-1].ord
		for wi := 0; wi < s.nwin; wi++ {
			a, _ := s.bucket(wi, first)
			_, b := s.bucket(wi, last)
			if a < b {
				s.wins = append(s.wins, txnWin{of: int32(si), lo: int32(a), hi: int32(b)})
			}
		}
	}
	w.runPool(len(s.wins), nw, s.chkFn)
}

// bindTxnLanes sizes a site's lane vectors to the batch and binds its
// kernel environment over them. Frame-slot lanes fill here, serially,
// because a string argument may intern its dictionary code (interned, so
// slot-vs-slot equality matches the closure evaluator).
func (w *World) bindTxnLanes(site *txnSite) {
	s := &w.txnrt
	rt, n := site.rt, len(s.txns)
	if len(site.envCols) < len(rt.cls.State) {
		site.envCols = make([][]float64, len(rt.cls.State))
	}
	site.colBufs = extend(site.colBufs, len(site.cols))
	for bi, a := range site.cols {
		site.colBufs[bi] = grow(site.colBufs[bi], n)
		site.envCols[a] = site.colBufs[bi]
	}
	site.slotBufs = extend(site.slotBufs, len(site.slots))
	for bi, sl := range site.slots {
		vec := grow(site.slotBufs[bi], n)
		site.slotBufs[bi] = vec
		site.slotVecs = extend(site.slotVecs, sl+1)
		for _, lg := range site.logs {
			for wi := 0; wi < s.nwin; wi++ {
				a, b := s.bucket(wi, lg.ord)
				for p := a; p < b; p++ {
					if v := s.txns[s.pos[p]].Frame()[sl]; v.Kind() == value.KindString {
						vec[p] = w.dict.Code(v.AsString())
					} else {
						vec[p] = payloadOf(v)
					}
				}
			}
		}
		site.slotVecs[sl] = vec
	}
	if site.needIDs {
		site.idBuf = grow(site.idBuf, n)
	}
	env := &site.env
	env.Cols, env.Slots, env.IDs, env.Gather = site.envCols, site.slotVecs, site.idBuf, s.gatherTent
	site.outBuf = grow(site.outBuf, n)
	site.passBuf = grow(site.passBuf, n)
}

// txnCheckWindow admits one window of a site's lanes on worker slot's
// machine and tentative world. Kernel constraints run over gathered lane
// vectors (self attrs read the tentative view for rule attrs, committed
// columns otherwise; cross-object reads gather through the view) and
// closure constraints evaluate per lane over tentWorld. Failed lanes roll
// their emissions back and abort. Lanes touch disjoint cells, so windows
// validate and roll back concurrently.
func (w *World) txnCheckWindow(slot, i int) {
	s := &w.txnrt
	win := s.wins[i]
	site := s.sites[win.of]
	lo, hi := int(win.lo), int(win.hi)
	wi := lo / vexpr.BatchSize
	rt := site.rt
	for _, lg := range site.logs {
		a, b := s.bucket(wi, lg.ord)
		idx := s.idx[a:b]
		for bi, at := range site.cols {
			col := rt.tab.NumColumn(at)
			if rt.hasRule[at] && at < len(rt.txnViewGen) && rt.txnViewGen[at] == s.gen {
				col = rt.txnViewCols[at]
			}
			vec := site.colBufs[bi][a:b]
			for q, j := range idx {
				vec[q] = col[lg.src[j]]
			}
		}
	}
	if site.needIDs {
		for p := lo; p < hi; p++ {
			site.idBuf[p] = float64(s.txns[s.pos[p]].Source)
		}
	}
	pass := site.passBuf[lo:hi]
	for k := range pass {
		pass[k] = true
	}
	for ci := range site.cons {
		c := &site.cons[ci]
		if c.prog != nil {
			c.prog.Run(&w.slots[slot].machine, &site.env, lo, hi, site.outBuf)
			for k, v := range site.outBuf[lo:hi] {
				if v == 0 {
					pass[k] = false
				}
			}
			continue
		}
		// Closure fallback: exact per-lane evaluation over the tentative
		// world — group disjointness confines its reads to the lane's own
		// accumulators. Constraints are total and side-effect-free, so
		// skipping already-failed lanes cannot change outcomes.
		tw := &w.slots[slot].tw
		for k, p := range s.pos[lo:hi] {
			if !pass[k] {
				continue
			}
			tw.bindTxn(s.txns[p])
			if !c.fn(&tw.cons).AsBool() {
				pass[k] = false
			}
		}
	}
	// Failed lanes abort and roll back column-wise: each log's failed
	// intents, compacted to the front of its bucket in idx, restore their
	// cells slot by slot in reverse fold order (Txn.rollback's order).
	for _, lg := range site.logs {
		a, b := s.bucket(wi, lg.ord)
		m := a
		for p := a; p < b; p++ {
			if !pass[p-lo] {
				s.idx[m] = s.idx[p]
				s.txns[s.pos[p]].Aborted = true
				m++
			}
		}
		for k := len(lg.slots) - 1; k >= 0 && m > a; k-- {
			col, row, cell := lg.slots[k].col(), lg.row[k], lg.cell[k]
			for _, j := range s.idx[a:m] {
				if r := row[j]; r >= 0 {
					col.Restore(int(r), cell[j])
				}
			}
		}
	}
}

// groupShared unions the shared transactions, in admission order, over the
// rows they share into conflict groups: groups in first-member order, each
// group's members in admission order. Rows one transaction claims alone
// union nothing and are skipped.
func (s *txnRuntime) groupShared() {
	s.groups, s.shared = s.groups[:0], s.shared[:0]
	for wi := 0; wi < s.nwin; wi++ {
		a, b := s.bucket(wi, len(s.logs))
		s.shared = append(s.shared, s.pos[a:b]...)
	}
	ns := len(s.shared)
	if ns == 0 {
		return
	}
	s.parent, s.root, s.gfirst = grow(s.parent, ns), grow(s.root, ns), grow(s.gfirst, ns)
	for m := range ns {
		s.parent[m], s.gfirst[m] = int32(m), -1
	}
	stamp := s.gen << 2
	for m, i := range s.shared {
		lg, j := s.txns[i].log, s.txns[i].idx
		for _, c := range lg.claims {
			r := c.rows[j]
			if r < 0 {
				continue
			}
			switch cw := &c.rt.txnRowClaim[r]; *cw {
			case stamp | claimOne:
				continue
			case stamp | claimOwned:
				s.union(int32(m), c.rt.txnRowOwner[r])
			default:
				*cw = stamp | claimOwned
			}
			c.rt.txnRowOwner[r] = int32(m)
		}
	}
	for m := range ns {
		r := s.find(int32(m))
		s.root[m] = r
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
	s.gmem = grow(s.gmem, ns)
	for m, i := range s.shared {
		g := &s.groups[s.gfirst[s.root[m]]]
		s.gmem[g.fill] = i
		g.fill++
	}
}

// runTxnGroups executes the multi-transaction conflict groups, returning
// how many were dispatched to the worker pool.
func (w *World) runTxnGroups() int {
	s := &w.txnrt
	ng := len(s.groups)
	if ng == 0 {
		return 0
	}
	nw := min(w.poolWidth(), ng)
	if nw <= 1 {
		for gi := range ng {
			w.txnRunGroup(0, gi)
		}
		return 0
	}
	w.growSlots(nw)
	w.runPool(ng, nw, s.groupFn)
	return ng
}

// txnRunGroup is the serial greedy loop over conflict group gi, with the
// tentative view of the worker slot it runs on.
func (w *World) txnRunGroup(slot, gi int) {
	s := &w.txnrt
	g := &s.groups[gi]
	tw := &w.slots[slot].tw
	for _, m := range s.gmem[g.off : g.off+g.n] {
		t := s.txns[m]
		t.apply()
		if !tw.constraintsHold(t) {
			t.rollback()
		}
	}
}
