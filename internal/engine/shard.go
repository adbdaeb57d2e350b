package engine

// The sharded tick driver. The paper's §4.2 observation is a single one:
// during the query/effect steps all tables are read-only, so per-object work
// needs no synchronization and only the effect merge must be ordered. The
// engine implements it once. Every row loop of the tick — script phases,
// reactive handlers, update rules — is a pass over one class, split into
// shards; every shard runs the same body on some worker of the pool, one
// vexpr.BatchSize window of rows at a time on that worker's kernel lanes,
// and emits into its own sink; after the barrier the sinks fold into the
// world in (shard, row) order, which is the order of the plain row loop.
//
// What differs between configurations is only how a pass is split:
//
//   - Workers <= 1 (or a tracer is installed): one shard spanning the
//     extent, run inline on the calling goroutine.
//   - Workers > 1: contiguous row ranges aligned to the vexpr batch size,
//     min(Workers, batch-aligned shards) of them (shardRows), so an extent
//     of one batch or less never pays a goroutine.
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
// independent of the split, the layout and the worker schedule: every
// Workers × Partitions cell is bit-identical to Workers=1, Partitions=1, and
// without partitions to the serial row loop.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/plan"
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

// shardSink is what one shard produces during a pass: effect emissions and
// transaction intents, each tagged with the emitting physical row, the rows
// whose accumulators its vectorized sweeps touched first, and its row
// counters. Rows are appended in ascending order (the shard's row loop),
// which makes the merge a k-way merge of sorted streams. A sink belongs to
// exactly one worker for the duration of a pass, so nothing here needs
// atomics.
//
// txns are handles on the intents in logs, one intent log per atomic site
// (by txnSite.ord), kept across passes and ticks: clearTxns rewinds them
// once admission is over. extents queues the shard's probe-extent samples
// for the grid cell EMA.
type shardSink struct {
	curRow   int32
	ems      []sinkEm
	rows     []int32
	txns     []*Txn
	txnRows  []int32
	logs     []*txnLog
	open     []*txnLog      // appendIntents scratch: the window's logs
	starts   []int          // and where its intents start in each
	resolved []resolvedLane // and the target lanes it resolved to rows
	extents  []extSample

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

// txnLog returns the sink's intent log of one atomic site.
func (s *shardSink) txnLog(site *txnSite) *txnLog {
	s.logs = extend(s.logs, site.ord+1)
	if s.logs[site.ord] == nil {
		s.logs[site.ord] = site.newLog()
	}
	return s.logs[site.ord]
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
// kernel machine and kernel lanes (slot 0 runs on the tick arena's instead,
// so a world that never fans out shares both with the pool).
type workerSlot struct {
	x       execCtx
	machine vexpr.Machine
	vec     vecScratch

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
	passRules                    // update rules (kernels, then closures) into the next-epoch columns
)

// classPass is the state of the pass in flight, written by runPass before
// the shards start and read-only while they run.
type classPass struct {
	kind   passKind
	rt     *classRT
	vecSel []bool               // passEffect: phases that run as batch kernels, nil = none
	vecAll bool                 // passEffect: no row is left for the scalar loop, skip it
	rules  []compile.UpdatePlan // passRules: the closure-path rules
	vecOn  bool                 // passRules: rt.vec.updates run as kernels

	shards []shard
}

// parallelOK reports whether this tick may use the worker pool at all.
// Tracing forces serial execution so the per-emission hook fires in row
// order.
func (w *World) parallelOK() bool { return w.opts.Workers > 1 && w.tracer == nil }

// workPool is the retained state of the world's fan-out (runPool): the
// body in flight, the shared worklist counter, the slot counter and the
// barrier. worker is the pre-bound poolWorker method value, so starting a
// worker captures nothing.
type workPool struct {
	fn          func(slot, i int)
	n           int64
	next, slots atomic.Int64
	wg          sync.WaitGroup
	worker      func()
}

// runPool dispatches fn(slot, i) for every i in [0, n) across up to nw
// worker goroutines pulling from a shared worklist, and waits for the
// barrier; slot identifies the worker's private state. nw <= 1 runs inline.
// The fan-out's state lives on the World and workers take their slot from a
// counter rather than an argument, so a fan-out allocates nothing whatever
// nw is. Fan-outs never nest: fn must not fan out again on the same world
// (runPool panics if it does), and a world runs one fan-out at a time.
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
	p := &w.pool
	if p.fn != nil {
		panic("engine: nested worker-pool fan-out")
	}
	p.fn, p.n = fn, int64(n)
	p.next.Store(0)
	p.slots.Store(0)
	p.wg.Add(nw)
	for s := 0; s < nw; s++ {
		go p.worker()
	}
	p.wg.Wait()
	p.fn = nil
}

// poolWorker is one fan-out goroutine: it takes a slot, then pulls
// worklist items until none are left.
func (p *workPool) poolWorker() {
	defer p.wg.Done()
	slot := int(p.slots.Add(1)) - 1
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(slot, int(i))
	}
}

// Workers returns the size of the world's worker pool (Options.Workers).
func (w *World) Workers() int { return w.opts.Workers }

// RunParallel runs fn(worker, i) for every i in [0, n) on the world's
// worker pool and returns when all have finished; worker, in [0, Workers()),
// names the goroutine's private state, and one worker runs every i inline
// in order. It is for read-only phases between ticks, such as view
// maintenance: fn must not write the world.
func (w *World) RunParallel(n int, fn func(worker, i int)) { w.runPool(n, w.opts.Workers, fn) }

// runPass drives one pass: it splits the class extent into shards, runs
// them — inline when one worker suffices, else across the pool — and folds
// their sinks back in (shard, row) order.
func (w *World) runPass(p classPass) {
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
			nw = w.opts.Workers
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
	w.pass = p
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

// runShard executes shard si of the pass in flight on worker slot, one
// vexpr.BatchSize window of rows at a time, on the slot's kernel machine
// and lanes (slot 0: the tick arena's).
func (w *World) runShard(slot, si int) {
	p := &w.pass
	rt, sh := p.rt, p.shards[si]
	if sh.lo >= sh.hi {
		return
	}
	ws := w.slots[slot]
	m, sc := &ws.machine, &ws.vec
	if slot == 0 {
		m, sc = w.arena.machine, &w.arena.vec
	}
	if p.kind == passRules {
		for lo := sh.lo; lo < sh.hi; lo += vexpr.BatchSize {
			hi := min(lo+vexpr.BatchSize, sh.hi)
			if p.vecOn {
				w.ruleWindow(m, sc, rt, lo, hi)
			}
			if len(p.rules) > 0 {
				w.runRuleRange(ws, rt, p.rules, lo, hi)
			}
		}
		return
	}

	sink := w.sinks[si]
	var assign []int32 // ownership mask; nil = every live row
	if sh.owner >= 0 {
		assign = rt.prt.assign
	}
	x := &ws.x
	x.arm(sink, m, sc, rt.plan.NumSlots)
	x.part = max(sh.owner, 0)
	if p.vecSel != nil {
		sink.touched.ensure(len(rt.fx))
	}

	// Window by window: hoisted join sites probe the window's probing rows
	// (joinWindow), then kernel sweeps and the scalar loop read the result.
	tab := rt.tab
	pcs := tab.NumColumn(rt.pcCol)
	rows := int64(0)
	hoist := p.kind == passEffect && len(rt.hoist) > 0
	for lo := sh.lo; lo < sh.hi; lo += vexpr.BatchSize {
		win := shard{lo: lo, hi: min(lo+vexpr.BatchSize, sh.hi), owner: sh.owner}
		if hoist || p.vecSel != nil {
			sc.bindWindow(w, rt, win.lo, win.hi)
		}
		if hoist {
			x.joinWindow(rt, win, assign)
		}
		for ph, on := range p.vecSel {
			if on {
				sink.vecRows += int64(w.vecPhaseRange(x, rt, ph, rt.vec.phases[ph], win, assign))
			}
		}
		if p.vecAll {
			continue
		}
		for r := win.lo; r < win.hi; r++ {
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
			pc := int(pcs[r])
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
		if masked && track {
			w.parts.loads[si] += s.load
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

// runEffectPhase executes the query/effect phase: per class, the phases
// chooseEffectExec selects run as batch kernels over each shard's lanes and
// every other row runs the scalar step interpreter. The exec decision is
// taken before the extent is split, so every split vectorizes alike.
func (w *World) runEffectPhase() {
	for _, rt := range w.order {
		if rt.plan.Decl.Run == nil || rt.tab.Len() == 0 {
			continue
		}
		vecSel, vecAll := w.chooseEffectExec(rt)
		w.runPass(classPass{kind: passEffect, rt: rt, vecSel: vecSel, vecAll: vecAll})
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
		w.runPass(classPass{kind: passHandlers, rt: rt})
	}
}

// runUpdateRules evaluates a class's update rules over old state + combined
// effects into their next-epoch columns in one pass: batch kernels for the
// rules that compiled to them (unless Options.Exec is ExecScalar), closures
// for the rest. Every live row stages every rule attribute, so the columns
// are full and each shard writes just its own rows' cells.
func (w *World) runUpdateRules(rt *classRT) {
	v, n := rt.vec, rt.tab.Cap()
	p := classPass{kind: passRules, rt: rt, rules: rt.plan.Updates}
	p.vecOn = v != nil && len(v.updates) > 0 && w.opts.Exec != plan.ExecScalar && rt.tab.Len() > 0
	if p.vecOn {
		for _, ai := range v.updateFx {
			rt.bindFxVec(ai, n)
		}
		for _, u := range v.updates {
			rt.stage[u.attrIdx].ensure(n)
			rt.stage[u.attrIdx].full = true
		}
		p.rules = v.scalarUpdates
		if !w.opts.DisableStats {
			w.execStats.VectorRows += int64(rt.tab.Len() * len(v.updates))
		}
	}
	for _, u := range p.rules {
		rt.stage[u.AttrIdx].ensure(n)
		rt.stage[u.AttrIdx].full = true
	}
	if !w.opts.DisableStats {
		w.execStats.ScalarRows += int64(rt.tab.Len() * len(p.rules))
	}
	w.runPass(p)
}

// ruleWindow runs the class's update-rule kernels over rows [lo, hi) of
// old state + combined effects into their next-epoch columns.
func (w *World) ruleWindow(m *vexpr.Machine, sc *vecScratch, rt *classRT, lo, hi int) {
	v, n := rt.vec, hi-lo
	sc.bindWindow(w, rt, lo, hi)
	sc.fx = grow(sc.fx, len(rt.fxVecs))
	for _, ai := range v.updateFx {
		sc.fx[ai] = rt.fxVecs[ai][lo:hi]
	}
	sc.env.Fx = sc.fx
	if v.updateNeedIDs {
		sc.fillIDs(rt, n)
	}
	for _, u := range v.updates {
		u.prog.Run(m, &sc.env, 0, n, rt.stage[u.attrIdx].num[lo:hi])
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
			col := &rt.stage[u.AttrIdx]
			if v := u.Fn(&ws.rule); col.boxed {
				col.vals[r] = v
			} else {
				col.num[r] = payloadOf(v)
			}
		}
	}
}
