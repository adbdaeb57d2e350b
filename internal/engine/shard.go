package engine

// The sharded tick driver. The paper's §4.2 observation is a single one:
// during the query/effect steps all tables are read-only, so per-object work
// needs no synchronization and only the effect merge must be ordered. The
// engine implements it once. Every row loop of the tick — script phases,
// reactive handlers, update rules — is a pass over one class, split into
// shards; every shard runs the same body on some worker of the pool and
// emits into its own sink; after the barrier the sinks fold into the world
// in (shard, row) order, which is the order of the plain row loop.
//
// What differs between configurations is only how a pass is split:
//
//   - Workers <= 1 (or a tracer is installed): one shard spanning the
//     extent, run inline on the calling goroutine.
//   - Workers > 1: contiguous row ranges aligned to the vexpr batch size,
//     as many as plan.Costs.ChooseWorkers says the modeled work amortizes —
//     often one, so small extents never pay a goroutine.
//   - Partitions > 0: one shard per partition over that partition's owned
//     row span, executing only the rows the partition owns; spans may
//     interleave (hash layouts, drifted ownership). Update rules write
//     row-disjoint state and probe nothing, so they stay contiguous.
//
// Determinism: vectorized phases emit only to the executing object, so
// shards write row-disjoint accumulator cells directly and log the rows they
// touched first; everything else — scalar emissions, transaction intents —
// is logged in the sink tagged with the emitting row and replayed by the
// merge in ascending row order. Partitioned probes canonicalize candidates
// to physical-row order (exec.go), so the fold order per accumulator is
// independent of the split, the layout epoch and the worker schedule: every
// Workers × Partitions cell is bit-identical to Workers=1, Partitions=1, and
// without partitions to the serial row loop.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// shard is one unit of a pass: the physical rows [lo, hi) of the pass's
// class, restricted to the rows partition owner owns when owner >= 0.
type shard struct {
	lo, hi int
	owner  int32 // -1: every live row of the range
}

// shardRows partitions [0, capRows) into at most maxShards contiguous
// shards whose boundaries fall on vexpr.BatchSize multiples, so no kernel
// invocation pays a split batch. buf is reused when capacious enough.
func shardRows(capRows, maxShards int, buf []shard) []shard {
	buf = buf[:0]
	if capRows <= 0 {
		return buf
	}
	if maxShards < 1 {
		maxShards = 1
	}
	size := (capRows + maxShards - 1) / maxShards
	if rem := size % vexpr.BatchSize; rem != 0 {
		size += vexpr.BatchSize - rem
	}
	for lo := 0; lo < capRows; lo += size {
		hi := lo + size
		if hi > capRows {
			hi = capRows
		}
		buf = append(buf, shard{lo: lo, hi: hi, owner: -1})
	}
	return buf
}

// stepsCost is the crude per-row work weight of a compiled step list used
// by the parallelism axis: lets, ifs and emissions count one unit, accum
// loops count far more because each probes an index (or scans an extent)
// and runs its body per match. It only has to rank extents against the
// fan-out overhead, not predict wall time.
func stepsCost(steps []compile.Step) float64 {
	c := 0.0
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.IfStep:
			c += 1 + stepsCost(s.Then) + stepsCost(s.Else)
		case *compile.AtomicStep:
			c += 1 + stepsCost(s.Body)
		case *compile.AccumStep:
			c += 64 + stepsCost(s.Body)
			if s.Join != nil {
				c += stepsCost(s.Join.Inner)
			}
		default:
			c++
		}
	}
	return c
}

// shardSink is what one shard produces during a pass: effect emissions and
// transaction intents, each tagged with the emitting physical row, the rows
// whose accumulators its vectorized sweeps touched first, and its row
// counters. Rows are appended in ascending order (the shard's row loop),
// which makes the merge a k-way merge of sorted streams. A sink belongs to
// exactly one worker for the duration of a pass, so nothing here needs
// atomics.
//
// txnPool recycles the sink's intents across ticks: the first txnUsed are
// this tick's, and clearTxns rewinds the cursor once admission is over.
// extents queues the shard's probe-extent samples for the grid cell EMA.
type shardSink struct {
	curRow  int32
	ems     []sinkEm
	rows    []int32
	txns    []*Txn
	txnRows []int32
	txnPool []*Txn
	txnUsed int
	extents []extSample

	touched     touchedLog // vectorized-phase empty→touched transitions
	vecRows     int64
	scalarRows  int64
	handlerRows int64
	load        int64 // row visits + join matches, the owning partition's load
}

// sinkEm is one logged effect contribution, its target already resolved
// to a live (class runtime, row) at emit time.
type sinkEm struct {
	rt   *classRT
	row  int32
	attr int32
	val  value.Value
	key  float64
}

// extSample is one probe's mean box width, for site's grid cell size.
type extSample struct {
	site *siteRT
	ext  float64
}

func (s *shardSink) emit(rt *classRT, row, attr int, val value.Value, key float64) {
	s.ems = append(s.ems, sinkEm{rt: rt, row: int32(row), attr: int32(attr), val: val, key: key})
	s.rows = append(s.rows, s.curRow)
}

// takeTxn returns a recycled intent for the row being executed.
func (s *shardSink) takeTxn() *Txn {
	if s.txnUsed == len(s.txnPool) {
		s.txnPool = append(s.txnPool, &Txn{})
	}
	s.txnUsed++
	return s.txnPool[s.txnUsed-1]
}

func (s *shardSink) addTxn(t *Txn) {
	s.txns = append(s.txns, t)
	s.txnRows = append(s.txnRows, s.curRow)
}

func (s *shardSink) reset() {
	s.ems = s.ems[:0]
	s.rows = s.rows[:0]
	s.txns = s.txns[:0]
	s.txnRows = s.txnRows[:0]
	s.extents = s.extents[:0]
	s.touched.reset()
	s.vecRows, s.scalarRows, s.handlerRows, s.load = 0, 0, 0, 0
}

// workerSlot is the private execution state of one pool worker, re-armed
// per shard and retained across ticks: the step interpreter's context, a
// kernel machine (slot 0 runs on the tick arena's instead, so a world that
// never fans out shares its machine with the pool), and kernel scratch for
// ownership-masked shards, whose interleaving spans cannot share the
// class's range-disjoint scratch. pvecGen names the pass pvec was last
// prepared for.
type workerSlot struct {
	x       execCtx
	machine vexpr.Machine
	pvec    vecScratch
	pvecGen uint64

	// Update-rule evaluation context; its readers live here so that binding
	// a row is two stores, not two interface allocations.
	rule expr.Ctx
	self rowReader
	fx   fxReader

	// tw evaluates transaction constraints for admission running on this
	// slot (txnadmit.go).
	tw tentWorld
}

// growSlots makes worker slots [0, n) exist. Slots are created only here,
// before any fan-out, never concurrently.
func (w *World) growSlots(n int) {
	for len(w.slots) < max(n, 1) {
		ws := &workerSlot{}
		ws.x.w, ws.x.ctx.W, ws.tw.w = w, w, w
		w.slots = append(w.slots, ws)
	}
}

// passKind selects the row body a pass runs. The kinds that emit effects
// (and therefore follow partition ownership and merge sinks) come first.
type passKind uint8

const (
	passEffect   passKind = iota // script phases: kernel sweeps, then the scalar row loop
	passHandlers                 // reactive handlers on the new state
	passRules                    // closure update rules into the staging columns
	passVecRules                 // kernel update rules into the dense result vectors
)

// classPass is the state of the pass in flight, written by runPass before
// the shards start and read-only while they run.
type classPass struct {
	kind   passKind
	rt     *classRT
	vecSel []bool               // passEffect: phases that run as batch kernels, nil = none
	rules  []compile.UpdatePlan // passRules

	shards  []shard
	private bool   // kernel sweeps use the worker's scratch, not the class's
	gen     uint64 // identifies the pass to workerSlot.pvecGen
}

// parallelOK reports whether this tick may use the worker pool at all.
// Tracing forces serial execution so the per-emission hook fires in row
// order.
func (w *World) parallelOK() bool { return w.opts.Workers > 1 && w.tracer == nil }

// runPool dispatches fn(slot, i) for every i in [0, n) across up to nw
// worker goroutines pulling from a shared worklist, and waits for the
// barrier; slot identifies the worker's private state. nw <= 1 runs inline.
// Workers take their slot from a counter rather than an argument so that a
// fan-out costs the same few allocations whatever nw is.
func (w *World) runPool(n, nw int, fn func(slot, i int)) {
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next, slots int64
		wg          sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		slot := int(atomic.AddInt64(&slots, 1)) - 1
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(slot, i)
		}
	}
	wg.Add(nw)
	for s := 0; s < nw; s++ {
		go worker()
	}
	wg.Wait()
}

// runPass drives one pass: it splits the class extent into shards, runs
// them — inline when one worker suffices, else across the pool — and folds
// their sinks back in (shard, row) order. work is the pass's modeled cost,
// the input of the parallelism axis.
func (w *World) runPass(p classPass, work float64) {
	rt := p.rt
	capRows := rt.tab.Cap()
	emits := p.kind <= passHandlers
	masked := emits && w.parts != nil
	nw := 1
	shards := w.shardBuf[:0]
	if masked {
		for o := 0; o < w.parts.n; o++ {
			lo, hi := rt.prt.span(o, capRows)
			shards = append(shards, shard{lo: lo, hi: hi, owner: int32(o)})
		}
		if w.tracer == nil {
			nw = min(w.opts.Workers, len(shards))
		}
	} else {
		if w.parallelOK() {
			nw = w.execCosts.ChooseWorkers(w.opts.Workers, work)
		}
		shards = shardRows(capRows, nw, shards)
		nw = len(shards)
	}
	w.shardBuf = shards
	w.growSlots(nw)
	for len(w.sinks) < len(shards) {
		w.sinks = append(w.sinks, &shardSink{})
	}
	for _, s := range w.sinks[:len(shards)] {
		s.reset()
	}
	p.shards = shards
	p.private = masked && nw > 1
	p.gen = w.pass.gen + 1
	w.pass = p
	if p.vecSel != nil && !p.private {
		// Pre-sized here, the class's scratch is only ever written in
		// range-disjoint slices; lazy growth inside a worker would race.
		w.prepareVecScratch(rt, &rt.vec.sc, p.vecSel, capRows)
	}
	if nw <= 1 {
		for si := range shards {
			w.runShard(0, si)
		}
	} else {
		w.runPool(len(shards), nw, w.runShardFn)
		if !w.opts.DisableStats {
			w.execStats.ParallelShards += int64(len(shards))
		}
	}
	if emits {
		w.mergeSinks(rt, w.sinks[:len(shards)], masked)
	}
}

// runShard executes shard si of the pass in flight on worker slot.
func (w *World) runShard(slot, si int) {
	p := &w.pass
	rt, sh := p.rt, p.shards[si]
	if sh.lo >= sh.hi {
		return
	}
	ws := w.slots[slot]
	m := &ws.machine
	if slot == 0 {
		m = w.arenaMachine()
	}
	switch p.kind {
	case passVecRules:
		v := rt.vec
		for i, u := range v.updates {
			u.prog.Run(m, &v.sc.env, sh.lo, sh.hi, v.outVecs[i])
		}
		return
	case passRules:
		w.runRuleRange(ws, rt, p.rules, sh.lo, sh.hi)
		return
	}

	sink := w.sinks[si]
	var assign []int32 // ownership mask; nil = every live row
	if sh.owner >= 0 {
		assign = rt.prt.assign
	}
	if p.vecSel != nil {
		sc := &rt.vec.sc
		if p.private {
			if ws.pvecGen != p.gen {
				w.prepareVecScratch(rt, &ws.pvec, p.vecSel, rt.tab.Cap())
				ws.pvecGen = p.gen
			}
			sc = &ws.pvec
		}
		sink.touched.ensure(len(rt.fx))
		for ph, on := range p.vecSel {
			if on {
				sink.vecRows += int64(w.vecPhaseRange(rt, ph, rt.vec.phases[ph], sh, assign, sc, m, &sink.touched))
			}
		}
	}

	x := &ws.x
	x.arm(sink, m, rt.plan.NumSlots)
	x.part = max(sh.owner, 0)
	tab := rt.tab
	rows := int64(0)
	hoist := p.kind == passEffect && len(rt.hoist) > 0
	for r := sh.lo; r < sh.hi; r++ {
		if hoist && r >= x.winHi {
			// A new window of probing rows: probe the hoisted sites for
			// all of it at once.
			x.joinWindow(rt, r, min(r+vexpr.BatchSize, sh.hi), assign, sh.owner)
		}
		if assign != nil {
			if assign[r] != sh.owner {
				continue
			}
		} else if !tab.Alive(r) {
			continue
		}
		if p.kind == passHandlers {
			sink.curRow = int32(r)
			x.bindRow(rt, r)
			for _, h := range rt.plan.Handlers {
				if h.Cond(&x.ctx).AsBool() {
					x.runSteps(h.Body)
				}
			}
			rows++
			continue
		}
		pc := int(tab.At(r, rt.pcCol).AsNumber())
		if p.vecSel != nil && p.vecSel[pc] {
			continue
		}
		steps := rt.plan.Phases[pc]
		if len(steps) == 0 {
			continue
		}
		sink.curRow = int32(r)
		x.bindRow(rt, r)
		x.runSteps(steps)
		rows++
	}
	if p.kind == passHandlers {
		sink.handlerRows = rows
		sink.load = rows
	} else {
		sink.scalarRows = rows
		sink.load = sink.vecRows + rows + x.joinMatches
	}
	x.flushJoinStats()
}

// nextRun advances the (shard, row) merge by one run. streams are the
// sinks' row tags, each ascending, and no row appears in two streams (a row
// runs in exactly one shard); idx holds the read positions. It picks the
// stream whose next row is smallest and returns the span [from, to) of it
// that precedes every other stream's next row, or si < 0 when all streams
// are drained. Streams whose row ranges do not overlap — contiguous shards,
// spatial partitions that have not drifted — are each consumed whole without
// looking at their elements.
func nextRun(streams [][]int32, idx []int) (si, from, to int) {
	si = -1
	var head, limit int32 = 0, math.MaxInt32
	for i, rs := range streams {
		if idx[i] >= len(rs) {
			continue
		}
		switch r := rs[idx[i]]; {
		case si < 0:
			si, head = i, r
		case r < head:
			si, head, limit = i, r, head
		case r < limit:
			limit = r
		}
	}
	if si < 0 {
		return -1, 0, 0
	}
	rs := streams[si]
	from, to = idx[si], len(rs)
	if rs[to-1] >= limit {
		for to = from + 1; rs[to] < limit; to++ {
		}
	}
	idx[si] = to
	return si, from, to
}

// mergeSinks folds a pass's sinks into the world after the barrier: the
// vectorized touched-row logs and row counters in shard order, then the
// emission and transaction logs in ascending source-row order — the order
// the plain row loop would have produced them in. For one sink that is a
// straight replay and for contiguous shards a concatenation. The sinks'
// probe-extent samples fold in shard order, on contiguous shards row order. The merged
// touched lists are deterministic but row-sorted only while spans do not
// interleave; every consumer treats them as a set (accumulator resets, dense
// effect-vector scatter). On ownership-masked passes each shard's visits
// are charged to its partition's load, and an emission whose target row
// another partition owns counts as a cross-partition effect message.
func (w *World) mergeSinks(rt *classRT, sinks []*shardSink, masked bool) {
	track := !w.opts.DisableStats
	streams, idx := w.mergeRows[:0], w.mergeIdx[:0]
	for si, s := range sinks {
		// Sinks are reused across classes and the log only grows: slots past
		// this class's effects exist but stay empty.
		for ai, rows := range s.touched.rows {
			if len(rows) > 0 {
				rt.fx[ai].touched = append(rt.fx[ai].touched, rows...)
			}
		}
		if track {
			w.execStats.VectorRows += s.vecRows
			w.execStats.ScalarRows += s.scalarRows
			w.execStats.HandlerRows += s.handlerRows
		}
		if masked {
			rt.prt.loads[si] += s.load
		}
		for _, e := range s.extents {
			e.site.boxExtent.Add(e.ext)
		}
		streams, idx = append(streams, s.rows), append(idx, 0)
	}
	w.mergeRows, w.mergeIdx = streams, idx

	for {
		si, from, to := nextRun(streams, idx)
		if si < 0 {
			break
		}
		for i := from; i < to; i++ {
			e := &sinks[si].ems[i]
			e.rt.fx[e.attr].add(int(e.row), e.val, e.key)
			if masked && track && e.rt.prt.assign[e.row] != int32(si) {
				w.execStats.PartMsgsEffect++
				w.execStats.PartBytes += cluster.BytesPerEffect
			}
		}
	}
	for si, s := range sinks {
		streams[si], idx[si] = s.txnRows, 0
	}
	for {
		si, from, to := nextRun(streams, idx)
		if si < 0 {
			break
		}
		w.txns = append(w.txns, sinks[si].txns[from:to]...)
	}
}

// runEffectPhase executes the query/effect phase: per class, the phases the
// cost model vectorizes run as batch kernels over each shard's lanes and
// every other row runs the scalar step interpreter. The exec-axis decision
// is taken before the extent is split, so every split vectorizes alike.
func (w *World) runEffectPhase() {
	for _, rt := range w.order {
		if rt.plan.Decl.Run == nil || rt.tab.Len() == 0 {
			continue
		}
		vecSel, work := w.chooseEffectExec(rt)
		w.runPass(classPass{kind: passEffect, rt: rt, vecSel: vecSel}, work)
	}
}

// runHandlers evaluates reactive handlers on the new state, emitting
// effects for the next tick (§3.2). Handler accum sites probe post-update
// state, so partitioned worlds resolve them against the shared index.
func (w *World) runHandlers() {
	for _, rt := range w.order {
		if len(rt.plan.Handlers) == 0 || rt.tab.Len() == 0 {
			continue
		}
		work := w.execCosts.ScalarVisit * float64(rt.tab.Len()) * rt.handlerCost
		w.runPass(classPass{kind: passHandlers, rt: rt}, work)
	}
}

// runScalarUpdates evaluates a class's closure-path update rules into the
// staging columns. Every live row stages every rule attribute, so the
// columns are marked full and the shards just write their own rows' cells.
func (w *World) runScalarUpdates(rt *classRT, rules []compile.UpdatePlan) {
	for _, u := range rules {
		col := &rt.stage[u.AttrIdx]
		col.ensure(rt.tab.Cap())
		col.full = true
	}
	work := w.execCosts.ScalarVisit * float64(rt.tab.Len()*len(rules))
	w.runPass(classPass{kind: passRules, rt: rt, rules: rules}, work)
	if !w.opts.DisableStats {
		w.execStats.ScalarRows += int64(rt.tab.Len() * len(rules))
	}
}

// runRuleRange evaluates every rule for the live rows in [lo, hi) over old
// state + combined effects, through the worker's pooled context.
func (w *World) runRuleRange(ws *workerSlot, rt *classRT, rules []compile.UpdatePlan, lo, hi int) {
	tab := rt.tab
	ws.rule = expr.Ctx{W: w, Class: rt.name, EffectZero: rt.effectZero, Self: &ws.self, Effects: &ws.fx}
	for r := lo; r < hi; r++ {
		if !tab.Alive(r) {
			continue
		}
		ws.rule.SelfID = tab.ID(r)
		ws.self = rowReader{rt: rt, row: r}
		ws.fx = fxReader{rt: rt, row: r}
		for _, u := range rules {
			rt.stage[u.AttrIdx].vals[r] = u.Fn(&ws.rule)
		}
	}
}
