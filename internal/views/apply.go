package views

// Per-tick maintenance. Apply drains the engine changefeed once and then
// maintains each subscription that has anything to do. Every subscription's
// delta is a pure function of committed state, so the emitted stream is
// bit-identical across Workers/Partitions/Exec configurations (the feed
// itself is) and across maintenance paths (index probe, delta and rescan
// compute membership from the same compares; updates are defined as member
// ∩ candidate ∩ pass in all three).
//
// A subscription takes the first rung of this ladder that applies:
//
//  1. index probe (subindex.go): subscriptions whose predicate is a box in
//     slot space are found by the touched rows instead of filtering them.
//     A subscription no touched row entered, left or stayed in is never
//     visited at all;
//  2. version skip: the class structure version and every watched column
//     version are unchanged since the previous Apply — nothing the
//     subscription can observe moved, skip without evaluating anything;
//  3. delta maintain: run the mask kernel over the gathered candidate
//     lanes (the feed's rows), visit them in id order and test membership
//     with a forward finger over the sorted member set;
//  4. rescan: evaluate over the whole extent — for a two-attribute box
//     group, a range query on a grid over the class's live rows instead —
//     and diff memberships in one merge that also picks out the updates —
//     chosen by plan.Costs.ChooseView when candidates approach the live
//     count, forced by unstable predicates, resyncs and fresh
//     subscriptions.
//
// Rungs 2–4 are the per-subscription path: forced-mode and ineligible
// subscriptions always take it, and so does a whole index group on a tick
// where plan.Costs.ChooseViewIndex prices the probes above it. TopK rankings
// are kept by selection: a bounded heap of K entries, over the whole
// membership only when a ranked row retracts, then a sort of the K
// survivors.
//
// Maintenance is a read-only query phase over committed state (§4.2), so it
// runs on the world's worker pool (engine.World.RunParallel, at
// Options.Workers) in five steps:
//
//  1. plan (serial): drain the feed, diff versions, decide per index group
//     and queue the per-subscription work; build the id order and any stale
//     subscription grid the probes read;
//  2. probe (parallel): each probe task probes one range of a group's
//     touched rows into its own event list, bucketed by slot; the same
//     fan-out rebuilds the data grids the rescans of step 4 will read;
//  3. prepare (serial): queue the probed subscriptions, sort the worklist by
//     SubID, pick each subscription's rung and build every shared
//     structure that rung reads — candidate order, ids and lanes, the
//     rescan stamps — so nothing shared is written from here until the
//     fan-out ends;
//  4. maintain (parallel): the worklist is cut into contiguous SubID
//     chunks, several per worker and claimed as workers free up, since an
//     aggregate costs far more than a box. Every scratch buffer a
//     subscription's maintenance writes is its worker's, and each chunk
//     logs its deltas as rows, removed ids and rankings;
//  5. emit (serial): the chunks' logs are replayed through fn in ascending
//     SubID order, one delta at a time, with the bytes one goroutine would
//     have produced.
//
// One worker is the same path with one task per group and one chunk, run
// inline.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// chunksPerWorker is how many maintain chunks the worklist is cut into per
// worker beyond the first: enough that a chunk holding the costly
// aggregates does not leave the other workers idle at the barrier, few
// enough that a chunk amortizes its claim.
const chunksPerWorker = 8

// worker is one pool worker's private maintenance state: everything a probe
// task or a subscription's maintenance writes, so the fan-outs share nothing
// writable.
type worker struct {
	r *Registry

	d         Delta       // the delta every subscription on this worker builds in
	slotLanes [][]float64 // constant lanes, indexed by canonical slot
	slotSub   *Sub        // whose constants currently fill slotLanes
	slotLen   int
	mach      vexpr.Machine
	env       vexpr.Env // retained: a per-call Env escapes to the heap
	mask      []float64
	addPairs  []idRow
	updPairs  []idRow
	fullPairs []idRow
	gridRows  []int32
	topCand   []TopEntry // TopK selection heap, then the sorted ranking
	idLane    []float64  // whole-extent id lane for rescanning kernels
	probe     probeScratch

	scratch []slotEvent // the running probe task's events before bucketing

	deltaRows, rescans int64
}

// chunk is one contiguous SubID range [lo, hi) of the worklist and the
// deltas its maintenance produced: what it keeps depends on its range, not
// on which worker maintained it.
type chunk struct {
	lo, hi int
	log    deltaLog
}

// deltaLog holds deltas until their turn to be emitted, struct-of-arrays:
// one record per delta, the physical rows of its adds then its updates in
// rows, its removed ids in rem, its ranking in top. Rows stand for their
// ids and payload cells, which replay reads from the table: committed state
// does not move between the maintain fan-out and the emit.
type deltaLog struct {
	recs []deltaRec
	rows []int32
	rem  []value.ID
	top  []TopEntry
}

type deltaRec struct {
	sub                    *Sub
	nAdd, nUpd, nRem, nTop int
	resync, aggChanged     bool
	agg                    float64
}

func (l *deltaLog) reset() {
	clear(l.recs) // drop the *Sub references
	l.recs, l.rows, l.rem, l.top = l.recs[:0], l.rows[:0], l.rem[:0], l.top[:0]
}

// add logs the delta worker w just maintained for s.
func (l *deltaLog) add(s *Sub, w *worker) {
	d := &w.d
	l.recs = append(l.recs, deltaRec{
		sub: s, nAdd: len(w.addPairs), nUpd: len(w.updPairs), nRem: len(d.RemIDs), nTop: len(d.Top),
		resync: d.Resync, aggChanged: d.AggChanged, agg: d.Agg,
	})
	for _, pairs := range [2][]idRow{w.addPairs, w.updPairs} {
		for _, p := range pairs {
			l.rows = append(l.rows, p.row)
		}
	}
	l.rem = append(l.rem, d.RemIDs...)
	l.top = append(l.top, d.Top...)
}

// replay builds the logged deltas in d, in log order, hands each to fn
// (when non-nil) and returns their total Delta.Bytes.
func (l *deltaLog) replay(d *Delta, tick int64, fn func(*Delta)) (bytes int64) {
	rows, rem, top := l.rows, l.rem, l.top
	for _, rec := range l.recs {
		s := rec.sub
		d.reset(s, tick)
		d.Resync, d.AggChanged, d.Agg = rec.resync, rec.aggChanged, rec.agg
		add, upd := rows[:rec.nAdd], rows[rec.nAdd:rec.nAdd+rec.nUpd]
		rows = rows[rec.nAdd+rec.nUpd:]
		tab := s.cs.tab
		raw := tab.RawIDs()
		for _, row := range add {
			d.AddIDs = append(d.AddIDs, raw[row])
		}
		for _, row := range upd {
			d.UpdIDs = append(d.UpdIDs, raw[row])
		}
		for j, a := range s.payload {
			col := tab.NumColumn(a)
			for _, row := range add {
				d.AddCols[j] = append(d.AddCols[j], col[row])
			}
			for _, row := range upd {
				d.UpdCols[j] = append(d.UpdCols[j], col[row])
			}
		}
		d.RemIDs = append(d.RemIDs, rem[:rec.nRem]...)
		d.Top = append(d.Top, top[:rec.nTop]...)
		rem, top = rem[rec.nRem:], top[rec.nTop:]
		bytes += d.Bytes()
		if fn != nil {
			fn(d)
		}
	}
	return bytes
}

// Apply consumes the tick's changefeed and maintains every subscription,
// invoking fn (when non-nil) with each subscription's delta, serially and
// in ascending SubID order. Deltas alias registry buffers: copy to retain.
// fn must not change the world, whose committed state the later deltas are
// read from. Call between ticks, after engine.RunTick; a detached registry
// is a no-op.
func (r *Registry) Apply(fn func(*Delta)) {
	if r.eng == nil {
		return
	}
	start := time.Now()
	r.seq++
	r.tick = r.eng.Tick()
	nw := r.eng.Workers()
	for len(r.workers) < nw {
		r.workers = append(r.workers, &worker{r: r})
	}
	for _, w := range r.workers {
		w.slotSub = nil
		w.deltaRows, w.rescans, w.probe.probes = 0, 0, 0
	}
	for _, cs := range r.classList {
		cs.drained = false
		cs.lanesBuilt = false
		cs.idsBuilt = false
		cs.ordered = false
		cs.stamped = false
		cs.rows = cs.rows[:0]
		cs.killed = cs.killed[:0]
		cs.resync = false
	}
	r.eng.DrainChangeFeed(r.drainFn)

	// The worklist: every subscription off the index, every one a probe
	// produces an event for, and the ones that must rescan regardless.
	r.work = r.work[:0]
	r.nTasks = 0
	r.gridJobs = r.gridJobs[:0]
	for _, s := range r.fresh {
		s.grp.freshSeq = r.seq
	}
	for _, cs := range r.classList {
		cs.diffVersions()
		for _, s := range cs.slow {
			r.queue(s)
		}
		if cs.resync {
			cs.each(r.queueFn)
			cs.dropGrids()
		}
		r.planProbes(cs, nw)
	}
	for _, s := range r.fresh {
		r.queue(s)
	}
	clear(r.fresh)
	r.fresh = r.fresh[:0]

	probeStart := time.Now()
	r.eng.RunParallel(len(r.gridJobs)+r.nTasks, r.probeFn)
	r.queueProbed()
	probeEnd := time.Now()

	slices.SortFunc(r.work, func(a, b *Sub) int { return cmp.Compare(a.id, b.id) })
	r.prepare()
	r.cutChunks(nw)

	maintainStart := time.Now()
	r.eng.RunParallel(len(r.chunks), r.maintainFn)
	emitStart := time.Now()
	r.deltaBytes = 0
	for i := range r.chunks {
		r.deltaBytes += r.chunks[i].log.replay(&r.out, r.tick, fn)
	}
	emitEnd := time.Now()

	clear(r.work)
	for _, cs := range r.classList {
		cs.syncImage()
		cs.storeVersions()
	}
	var deltaRows, probes int64
	r.rescans = 0
	for _, w := range r.workers {
		deltaRows += w.deltaRows
		probes += w.probe.probes
		r.rescans += w.rescans
	}
	end := time.Now()
	r.split = [4]time.Duration{
		probeStart.Sub(start) + maintainStart.Sub(probeEnd) + end.Sub(emitEnd),
		probeEnd.Sub(probeStart), emitStart.Sub(maintainStart), emitEnd.Sub(emitStart),
	}
	r.eng.NoteViewStats(engine.ViewTick{
		Subs: int64(len(r.byID)), IndexedSubs: r.indexed,
		DeltaRows: deltaRows, Rescans: r.rescans, IndexProbes: probes,
		Nanos:      end.Sub(start).Nanoseconds(),
		ProbeNanos: r.split[1].Nanoseconds(), MaintainNanos: r.split[2].Nanoseconds(),
		EmitNanos: r.split[3].Nanoseconds(),
	})
}

// queue puts s on this Apply's worklist once.
func (r *Registry) queue(s *Sub) {
	if s.queued != r.seq {
		s.queued = r.seq
		r.work = append(r.work, s)
	}
}

// DeltaBytes reports the total Delta.Bytes emitted by the last Apply.
func (r *Registry) DeltaBytes() int64 { return r.deltaBytes }

// Rescans reports how many subscriptions took the rescan path in the last
// Apply.
func (r *Registry) Rescans() int64 { return r.rescans }

// copyFeed is the DrainChangeFeed callback: the engine's slices are scratch
// valid only during the callback, so the per-class state copies them out.
func (r *Registry) copyFeed(d engine.ClassDelta) {
	cs := r.classes[d.Class]
	if cs == nil || len(cs.slow)+len(cs.groupList) == 0 {
		return
	}
	cs.rows = append(cs.rows[:0], d.Rows...)
	cs.killed = append(cs.killed[:0], d.Killed...)
	cs.resync = d.Resync
	cs.drained = true
}

// A subscription's rung this Apply, picked by prepare.
const (
	pathSkip   uint8 = iota // version skip: nothing it watches moved
	pathEvents              // its index group probed: apply its events
	pathDelta               // per-subscription delta over the candidates
	pathRescan              // full-extent rescan (resync when resync is set)
)

// prepare picks each queued subscription's rung and builds, once, every
// shared structure the rungs read, so the maintain fan-out writes nothing
// it shares.
func (r *Registry) prepare() {
	for _, s := range r.work {
		cs := s.cs
		s.resync = cs.resync || s.fresh
		switch {
		case !s.resync && s.versionsUnchanged(cs):
			s.path = pathSkip
		case !s.resync && s.grp != nil && s.grp.probed:
			s.path = pathEvents
		case !s.resync && s.sh.stable &&
			r.costs.ChooseView(s.def.Mode, cs.tab.Len(), len(cs.rows)) == plan.ViewDelta:
			s.path = pathDelta
			cs.buildOrder()
			if s.sh.prog != nil {
				cs.buildLanes()
			}
		default:
			s.path = pathRescan
			if !s.resync {
				cs.stampRows(r.seq)
			}
			if g := s.grp; g != nil && len(g.attrs) == 2 {
				g.scan = cs.dataGrid(g)
			}
		}
	}
}

// cutChunks cuts the sorted worklist into the maintain fan-out's chunks:
// one with one worker, else chunksPerWorker per worker (at most one per
// subscription).
func (r *Registry) cutChunks(nw int) {
	n, c := len(r.work), 1
	if nw > 1 {
		c = nw * chunksPerWorker
	}
	c = min(c, n)
	all := r.chunks[:cap(r.chunks)]
	for i := range all {
		all[i].log.reset() // the ones past c too: their logs hold *Subs
	}
	for len(all) < c {
		all = append(all, chunk{})
	}
	r.chunks = all[:c]
	for i := range r.chunks {
		r.chunks[i].lo, r.chunks[i].hi = i*n/c, (i+1)*n/c
	}
	r.maxChunks = max(r.maxChunks, c)
}

// runChunk is the maintain fan-out's body: chunk ci on worker wk.
func (r *Registry) runChunk(wk, ci int) {
	w, c := r.workers[wk], &r.chunks[ci]
	for _, s := range r.work[c.lo:c.hi] {
		if w.maintain(s) && w.d.changed {
			c.log.add(s, w)
		}
	}
}

// maintain runs one subscription into w.d on its prepared rung; false
// reports the version skip (no evaluation happened).
func (w *worker) maintain(s *Sub) bool {
	if s.path == pathSkip {
		return false
	}
	cs := s.cs
	w.d.reset(s, w.r.tick)
	w.addPairs, w.updPairs = w.addPairs[:0], w.updPairs[:0]
	switch s.path {
	case pathEvents:
		if s.grp.evSeq[s.slot] == w.r.seq {
			w.applyEvents(s, cs)
		}
	case pathDelta:
		w.applyDelta(s, cs)
	default:
		w.applyRescan(s, cs, s.resync)
		w.rescans++
	}
	s.fresh = false
	w.deltaRows += int64(len(w.addPairs) + len(w.updPairs) + len(w.d.RemIDs))
	return true
}

// diffVersions records which of the class's columns (and whether its
// structure) were written since the previous Apply.
func (cs *classState) diffVersions() {
	n := len(cs.cls.State)
	if cs.lastColVer == nil {
		cs.lastColVer = make([]uint64, n)
		cs.colChanged = make([]bool, n)
	}
	cs.structChanged = !cs.versValid || cs.tab.StructVersion() != cs.lastStruct
	for c := range cs.colChanged {
		cs.colChanged[c] = !cs.versValid || cs.tab.ColVersion(c) != cs.lastColVer[c]
	}
}

func (cs *classState) storeVersions() {
	cs.lastStruct = cs.tab.StructVersion()
	for c := range cs.lastColVer {
		cs.lastColVer[c] = cs.tab.ColVersion(c)
	}
	cs.versValid = true
}

// versionsUnchanged reports nothing the subscription watches moved since
// the previous Apply.
func (s *Sub) versionsUnchanged(cs *classState) bool {
	if cs.structChanged {
		return false
	}
	for _, c := range s.cols {
		if cs.colChanged[c] {
			return false
		}
	}
	return true
}

// buildCandIDs fills the candidate id lane and id list for the drained rows.
func (cs *classState) buildCandIDs() {
	if cs.idsBuilt {
		return
	}
	cs.idsBuilt = true
	raw := cs.tab.RawIDs()
	cs.candIDs = cs.candIDs[:0]
	cs.idLane = growFloats(cs.idLane, len(cs.rows))
	for i, row := range cs.rows {
		id := raw[row]
		cs.candIDs = append(cs.candIDs, id)
		cs.idLane[i] = float64(id)
	}
}

// buildOrder sorts the candidates' indexes by id, once per Apply: the order
// the delta path merges them against memberships in and the index probes
// visit them in, so both produce id-sorted lists.
func (cs *classState) buildOrder() {
	if cs.ordered {
		return
	}
	cs.ordered = true
	cs.buildCandIDs()
	cs.order = cs.order[:0]
	for i := range cs.rows {
		cs.order = append(cs.order, int32(i))
	}
	slices.SortFunc(cs.order, func(a, b int32) int { return cmp.Compare(cs.candIDs[a], cs.candIDs[b]) })
}

// stampRows marks the feed's rows with this Apply's sequence, once per
// Apply, so a rescan's diff can tell candidates from other rows.
func (cs *classState) stampRows(seq uint64) {
	if cs.stamped {
		return
	}
	cs.stamped = true
	for len(cs.stamp) < cs.tab.Cap() {
		cs.stamp = append(cs.stamp, 0)
	}
	for _, row := range cs.rows {
		cs.stamp[row] = seq
	}
}

// buildLanes gathers the watched columns into dense candidate lanes shared
// by every subscription on the class this Apply.
func (cs *classState) buildLanes() {
	if cs.lanesBuilt {
		return
	}
	cs.lanesBuilt = true
	cs.buildCandIDs()
	k := len(cs.rows)
	for len(cs.lanes) < len(cs.cls.State) {
		cs.lanes = append(cs.lanes, nil)
	}
	for _, a := range cs.gatherCols {
		src := cs.tab.NumColumn(a)
		lane := growFloats(cs.lanes[a], k)
		cs.lanes[a] = lane
		for i, row := range cs.rows {
			lane[i] = src[row]
		}
	}
}

// fillSlots materializes the subscription's constants across n lanes of the
// worker's slot vectors (skipped when they already hold them).
func (w *worker) fillSlots(s *Sub, n int) {
	if w.slotSub == s && w.slotLen >= n {
		return
	}
	for len(w.slotLanes) < len(s.consts) {
		w.slotLanes = append(w.slotLanes, nil)
	}
	for i, v := range s.consts {
		lane := growFloats(w.slotLanes[i], n)
		w.slotLanes[i] = lane
		for j := 0; j < n; j++ {
			lane[j] = v
		}
	}
	w.slotSub = s
	w.slotLen = n
}

// evalCandidates produces the pass mask over the class's candidate lanes
// (built by prepare).
func (w *worker) evalCandidates(s *Sub, cs *classState) []float64 {
	k := len(cs.rows)
	mask := growFloats(w.mask, k)
	w.mask = mask
	if k == 0 {
		return mask
	}
	if s.sh.prog != nil {
		w.fillSlots(s, k)
		w.env = vexpr.Env{Cols: cs.lanes, IDs: cs.idLane, Slots: w.slotLanes}
		s.sh.prog.Run(&w.mach, &w.env, 0, k, mask)
		return mask
	}
	ctx := expr.Ctx{W: w.r.eng, Class: cs.name, Frame: s.frame}
	for i, row := range cs.rows {
		ctx.SelfID = cs.candIDs[i]
		ctx.Self = tabRow{cs.tab, int(row)}
		if s.sh.scalarFn(&ctx).AsBool() {
			mask[i] = 1
		} else {
			mask[i] = 0
		}
	}
	return mask
}

// tabRow adapts a physical table row to expr.RowReader.
type tabRow struct {
	tab *table.Table
	row int
}

func (t tabRow) Attr(attrIdx int) value.Value { return t.tab.At(t.row, attrIdx) }

// applyDelta maintains membership from the feed's candidates only. They are
// visited in id order, so membership is a forward search and the add and
// update lists come out sorted.
func (w *worker) applyDelta(s *Sub, cs *classState) {
	mask := w.evalCandidates(s, cs)
	d := &w.d
	w.addPairs = w.addPairs[:0]
	w.updPairs = w.updPairs[:0]
	m, at := s.members, 0
	for _, i := range cs.order {
		id, row := cs.candIDs[i], cs.rows[i]
		at = seek(m, at, id)
		in := at < len(m) && m[at] == id
		if mask[i] != 0 {
			if in {
				w.updPairs = append(w.updPairs, idRow{id, row})
			} else {
				w.addPairs = append(w.addPairs, idRow{id, row})
			}
		} else if in {
			d.RemIDs = append(d.RemIDs, id)
		}
	}
	for _, id := range cs.killed {
		if _, in := slices.BinarySearch(m, id); in {
			d.RemIDs = append(d.RemIDs, id)
		}
	}
	slices.Sort(d.RemIDs)
	w.finishRowDelta(s, cs)
}

// seek returns the first index at or after from whose id is not below id:
// an exponential search from the finger, then a binary search.
func seek(m []value.ID, from int, id value.ID) int {
	lo, hi := from, from
	for step := 1; hi < len(m) && m[hi] < id; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	j, _ := slices.BinarySearch(m[lo:min(hi, len(m))], id)
	return lo + j
}

// applyRescan recomputes membership from the full extent and diffs.
func (w *worker) applyRescan(s *Sub, cs *classState, resync bool) {
	newPairs := w.evalFull(s, cs) // ascending id
	d := &w.d
	w.addPairs = w.addPairs[:0]
	w.updPairs = w.updPairs[:0]
	if resync {
		// Full refresh: the whole result ships as adds and the client
		// replaces its state, so prior membership is irrelevant.
		d.Resync = true
		w.addPairs = append(w.addPairs, newPairs...)
		s.setMembers(newPairs)
		if s.def.Kind == Select {
			d.changed = true
		}
		w.recomputeAgg(s, cs, true)
		w.dropAggRows(s)
		return
	}
	// Diff old vs new membership. Updates are member ∩ candidate ∩ pass —
	// the same set the delta path derives, so both modes emit identical
	// streams: the rows in both lists that the feed stamped.
	old := s.members
	i, j := 0, 0
	for i < len(old) || j < len(newPairs) {
		switch {
		case j == len(newPairs) || (i < len(old) && old[i] < newPairs[j].id):
			d.RemIDs = append(d.RemIDs, old[i])
			i++
		case i == len(old) || newPairs[j].id < old[i]:
			w.addPairs = append(w.addPairs, newPairs[j])
			j++
		default:
			if cs.stamp[newPairs[j].row] == w.r.seq {
				w.updPairs = append(w.updPairs, newPairs[j])
			}
			i++
			j++
		}
	}
	s.setMembers(newPairs)
	w.finishAfterMembership(s, cs)
}

// setMembers replaces the membership with the ids of pairs (ascending).
// Growth leaves headroom, so a box whose population drifts upward as movers
// pass through does not reallocate on every new high.
func (s *Sub) setMembers(pairs []idRow) {
	s.members = growIDs(s.members[:0], len(pairs))
	for i, p := range pairs {
		s.members[i] = p.id
	}
}

// growIDs resizes ids to n, keeping the contents that fit.
func growIDs(ids []value.ID, n int) []value.ID {
	if cap(ids) < n {
		grown := make([]value.ID, n, n+n/4+8)
		copy(grown, ids)
		return grown
	}
	return ids[:n]
}

// finishRowDelta merges the sorted add and remove lists into the sorted
// membership in place and emits; the tail shared by the delta path and the
// index path. Only the stretch of the membership at or above the smallest
// changed id moves.
func (w *worker) finishRowDelta(s *Sub, cs *classState) {
	if rem := w.d.RemIDs; len(rem) > 0 {
		m := s.members
		w, _ := slices.BinarySearch(m, rem[0])
		k := 0
		for i := w; i < len(m); i++ {
			if k < len(rem) && rem[k] == m[i] {
				k++
				continue
			}
			m[w] = m[i]
			w++
		}
		s.members = m[:w]
	}
	if add := w.addPairs; len(add) > 0 {
		i := len(s.members) - 1
		m := growIDs(s.members, len(s.members)+len(add))
		for j, k := len(add)-1, len(m)-1; j >= 0; k-- {
			if i >= 0 && m[i] > add[j].id {
				m[k] = m[i]
				i--
			} else {
				m[k] = add[j].id
				j--
			}
		}
		s.members = m
	}
	w.finishAfterMembership(s, cs)
}

// finishAfterMembership settles the delta once s.members is final: the
// add and update pairs and the remove list for Select, the aggregate for
// the others. The fold runs before dropAggRows: it consults the lists.
func (w *worker) finishAfterMembership(s *Sub, cs *classState) {
	d := &w.d
	if s.def.Kind == Select &&
		(len(w.addPairs) > 0 || len(w.updPairs) > 0 || len(d.RemIDs) > 0) {
		d.changed = true
	}
	w.recomputeAgg(s, cs, false)
	w.dropAggRows(s)
}

// dropAggRows empties the row lists of an aggregate subscription: its
// clients consume Agg/Top, and membership is registry-internal.
func (w *worker) dropAggRows(s *Sub) {
	if s.def.Kind != Select {
		w.addPairs = w.addPairs[:0]
		w.updPairs = w.updPairs[:0]
		w.d.RemIDs = w.d.RemIDs[:0]
	}
}

// recomputeAgg folds the aggregate kinds after membership settles. Sum
// refolds over members in ascending-id order — the same fold a fresh
// rescan performs, so the bits match by construction. TopK selects the K
// best of its ranking and the candidates, or of the whole membership when
// a ranked row retracts (leaves, or changes key).
func (w *worker) recomputeAgg(s *Sub, cs *classState, force bool) {
	d := &w.d
	membersTouched := len(w.addPairs) > 0 || len(d.RemIDs) > 0 || d.Resync
	switch s.def.Kind {
	case Select:
		return
	case Count:
		agg := float64(len(s.members))
		if force || !sameBits(agg, s.agg) {
			s.agg = agg
			d.AggChanged = true
			d.Agg = agg
			d.changed = true
		}
	case Sum:
		if !force && !membersTouched && len(w.updPairs) == 0 {
			return
		}
		col := cs.tab.NumColumn(s.aggAttr)
		agg := 0.0
		for _, id := range s.members {
			agg += col[cs.tab.Row(id)]
		}
		if force || !sameBits(agg, s.agg) {
			s.agg = agg
			d.AggChanged = true
			d.Agg = agg
			d.changed = true
		}
	case TopK:
		if !force && !membersTouched && len(w.updPairs) == 0 {
			return
		}
		w.maintainTopK(s, cs, force)
	}
}

func (w *worker) maintainTopK(s *Sub, cs *classState, force bool) {
	d := &w.d
	col := cs.tab.NumColumn(s.aggAttr)
	// A ranked row leaving, or changing key, can promote an arbitrary
	// unranked member: recompute from the full membership. Both lists are
	// sorted by id, so each ranked row is a search in each.
	retract := force || d.Resync
	for i := 0; !retract && i < len(s.top); i++ {
		e := s.top[i]
		_, gone := slices.BinarySearch(d.RemIDs, e.ID)
		j, upd := slices.BinarySearchFunc(w.updPairs, idRow{id: e.ID}, comparePairs)
		retract = gone || upd && !sameBits(e.Key, col[w.updPairs[j].row])
	}
	// Select the K best with a heap whose root is the worst kept entry: of
	// every member on a retract, else of the ranking (worst first is a heap)
	// and the adds and unranked updates. The order is strict (ids are
	// unique), so this is exactly the first K of a full sort.
	h := w.topCand[:0]
	if retract {
		for _, id := range s.members {
			h = pushTop(h, s.def.K, TopEntry{ID: id, Key: col[cs.tab.Row(id)]})
		}
	} else {
		for i := len(s.top) - 1; i >= 0; i-- {
			h = append(h, s.top[i])
		}
		for _, pairs := range [2][]idRow{w.addPairs, w.updPairs} {
			for _, p := range pairs {
				e := TopEntry{ID: p.id, Key: col[p.row]}
				if len(h) == s.def.K && compareTop(e, h[0]) >= 0 || topIndex(s.top, p.id) >= 0 {
					continue // outranked by the whole ranking, or already in it
				}
				h = pushTop(h, s.def.K, e)
			}
		}
	}
	sortTop(h)
	w.topCand = h
	w.commitTop(s, force)
}

// commitTop installs a recomputed ranking, emitting only on change.
func (w *worker) commitTop(s *Sub, force bool) {
	d := &w.d
	changed := force || len(w.topCand) != len(s.top)
	if !changed {
		for i, e := range w.topCand {
			if e.ID != s.top[i].ID || !sameBits(e.Key, s.top[i].Key) {
				changed = true
				break
			}
		}
	}
	s.top = append(s.top[:0], w.topCand...)
	if changed {
		d.Top = append(d.Top[:0], s.top...)
		d.AggChanged = true
		d.changed = true
	}
}

// evalFull evaluates the predicate over the whole extent, returning the
// passing live rows as (id, row) pairs sorted by ascending id.
func (w *worker) evalFull(s *Sub, cs *classState) []idRow {
	tab := cs.tab
	n := tab.Cap()
	pairs := w.fullPairs[:0]
	if g := s.grp; g != nil && len(g.attrs) == 2 {
		// A box is a range query (§4.1). The grid returns the live rows in
		// the closed box [lo, hi], a superset of the rows the compares pass
		// whatever its cell size; the exact recheck keeps those.
		lo, hi := g.boxBounds(s.consts)
		w.gridRows = g.scan.QueryRows(lo[:], hi[:], index.AnyKey, w.gridRows[:0])
		raw := tab.RawIDs()
		xs, ys := tab.NumColumn(g.attrs[0]), tab.NumColumn(g.attrs[1])
		for _, row := range w.gridRows {
			if g.passes(s.consts, xs[row], ys[row]) && tab.Alive(int(row)) {
				pairs = append(pairs, idRow{raw[row], row})
			}
		}
	} else if g != nil {
		// A threshold or band is a compare or two against the
		// subscription's own constants: scanning the column with early exit
		// beats streaming every conjunct over the extent.
		raw := tab.RawIDs()
		xs := tab.NumColumn(g.attrs[0])
		for row := 0; row < n; row++ {
			if g.passes(s.consts, xs[row], xs[row]) && tab.Alive(row) {
				pairs = append(pairs, idRow{raw[row], int32(row)})
			}
		}
	} else if s.sh.prog != nil {
		mask := growFloats(w.mask, n)
		w.mask = mask
		if n > 0 {
			w.fillSlots(s, n)
			w.env = vexpr.Env{Cols: tab.NumColumns(), Slots: w.slotLanes}
			if s.sh.prog.NeedIDs() {
				lane := growFloats(w.idLane, n)
				w.idLane = lane
				raw := tab.RawIDs()
				for i := 0; i < n; i++ {
					lane[i] = float64(raw[i])
				}
				w.env.IDs = lane
			}
			s.sh.prog.Run(&w.mach, &w.env, 0, n, mask)
		}
		raw := tab.RawIDs()
		for row := 0; row < n; row++ {
			if mask[row] != 0 && tab.Alive(row) {
				pairs = append(pairs, idRow{raw[row], int32(row)})
			}
		}
	} else {
		ctx := expr.Ctx{W: w.r.eng, Class: cs.name, Frame: s.frame}
		raw := tab.RawIDs()
		for row := 0; row < n; row++ {
			if !tab.Alive(row) {
				continue
			}
			ctx.SelfID = raw[row]
			ctx.Self = tabRow{tab, row}
			if s.sh.scalarFn(&ctx).AsBool() {
				pairs = append(pairs, idRow{raw[row], int32(row)})
			}
		}
	}
	slices.SortFunc(pairs, comparePairs)
	w.fullPairs = pairs
	return pairs
}

// dataGrid indexes a class's live rows on two attributes for box rescans.
// It is not the engine's join grid, which indexes pre-update positions.
type dataGrid struct {
	attrs [2]int
	cell  float64 // the cell of the group that last asked for it
	build index.Builder
	grid  *index.Grid
	live  []int32
	vers  [3]uint64 // structure and column versions at the build
	valid bool
	job   uint64 // the Apply sequence a rebuild was last planned in
}

// dataGrid returns the grid over the class's live rows on g's attributes,
// rebuilt when the structure or either column moved since its build — at
// most once per Apply — with g's cell.
func (cs *classState) dataGrid(g *subGroup) *index.Grid {
	dg := cs.gridOf(g)
	dg.refresh(cs.tab)
	return dg.grid
}

// gridOf returns the data grid entry on g's attributes, made on first use;
// its next rebuild takes g's cell.
func (cs *classState) gridOf(g *subGroup) *dataGrid {
	attrs := [2]int{g.attrs[0], g.attrs[1]}
	dg := cs.grids[attrs]
	if dg == nil {
		dg = &dataGrid{attrs: attrs}
		cs.grids[attrs] = dg
	}
	dg.cell = g.cell
	return dg
}

func (dg *dataGrid) versions(tab *table.Table) [3]uint64 {
	return [3]uint64{tab.StructVersion(), tab.ColVersion(dg.attrs[0]), tab.ColVersion(dg.attrs[1])}
}

// refresh rebuilds the grid when the structure or either column moved since
// its build.
func (dg *dataGrid) refresh(tab *table.Table) {
	if vers := dg.versions(tab); !dg.valid || vers != dg.vers {
		dg.live = tab.LiveRows(dg.live[:0])
		dg.grid = dg.build.BuildGrid(dg.cell, tab.NumColumn(dg.attrs[0]), tab.NumColumn(dg.attrs[1]), nil, dg.live)
		dg.vers, dg.valid = vers, true
	}
}

// planGrid makes a box group's data grid current before the maintain
// fan-out, when a rescan may read it: its rebuild, if due, runs as a job of
// the probe fan-out, beside the probe tasks.
func (r *Registry) planGrid(cs *classState, g *subGroup) {
	dg := cs.gridOf(g)
	if dg.job != r.seq && (!dg.valid || dg.versions(cs.tab) != dg.vers) {
		dg.job = r.seq
		r.gridJobs = append(r.gridJobs, gridJob{dg, cs.tab})
	}
}

// gridJob is one data grid rebuild of the probe fan-out.
type gridJob struct {
	dg  *dataGrid
	tab *table.Table
}

// dropGrids forces the next rescan to rebuild the data grids: the table was
// replaced or changed in ways the versions may not show.
func (cs *classState) dropGrids() {
	for _, dg := range cs.grids {
		dg.valid = false
	}
}

func comparePairs(a, b idRow) int { return cmp.Compare(a.id, b.id) }

// compareTop is the TopK total order: key descending with NaN after every
// number, ties (NaN with NaN too) by ascending id.
func compareTop(a, b TopEntry) int {
	if c := cmp.Compare(b.Key, a.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func sortTop(t []TopEntry) { slices.SortFunc(t, compareTop) }

// pushTop offers e to h, a heap of at most k entries whose root is the worst
// under compareTop, keeping the k best.
func pushTop(h []TopEntry, k int, e TopEntry) []TopEntry {
	i := len(h)
	if i < k {
		h = append(h, e)
		for ; i > 0 && compareTop(h[(i-1)/2], e) < 0; i = (i - 1) / 2 {
			h[i] = h[(i-1)/2]
		}
		h[i] = e
		return h
	}
	if compareTop(e, h[0]) >= 0 {
		return h
	}
	for i = 0; 2*i+1 < len(h); {
		c := 2*i + 1
		if c+1 < len(h) && compareTop(h[c+1], h[c]) > 0 {
			c++
		}
		if compareTop(h[c], e) <= 0 {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = e
	return h
}

func topIndex(t []TopEntry, id value.ID) int {
	for i, e := range t {
		if e.ID == id {
			return i
		}
	}
	return -1
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
