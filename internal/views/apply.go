package views

// Per-tick maintenance. Apply drains the engine changefeed once, probes the
// subscription indexes with it, then maintains each subscription that has
// anything to do in ascending SubID order — a pure function of committed
// state, so the emitted delta stream is bit-identical across
// Workers/Partitions/Exec configurations (the feed itself is) and across
// maintenance paths (index probe, delta and rescan compute membership from
// the same compares; updates are defined as member ∩ candidate ∩ pass in all
// three).
//
// The maintenance ladder, cheapest first:
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
// TopK rankings are kept by selection: a bounded heap of K entries, over
// the whole membership only when a ranked row retracts, then a sort of the
// K survivors.
//
// Rungs 2–4 are the per-subscription path: forced-mode and ineligible
// subscriptions always take it, and so does a whole index group on a tick
// where plan.Costs.ChooseViewIndex prices the probes above it.

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

// Apply consumes the tick's changefeed and maintains every subscription,
// invoking fn (when non-nil) with each subscription's delta. Deltas alias
// registry buffers: copy to retain. Call between ticks, after
// engine.RunTick; a detached registry is a no-op.
func (r *Registry) Apply(fn func(*Delta)) {
	if r.eng == nil {
		return
	}
	start := time.Now()
	r.deltaRows, r.rescans, r.deltaBytes = 0, 0, 0
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
	r.slotSub = nil
	r.seq++
	p := &r.probe
	p.events, p.count, p.probes = p.events[:0], p.count[:0], 0

	// The worklist: every subscription off the index, every one a probe
	// produced an event for, and the ones that must rescan regardless.
	r.work = r.work[:0]
	for _, cs := range r.classList {
		cs.diffVersions()
		for _, s := range cs.slow {
			r.queue(s)
		}
		if cs.resync {
			cs.each(r.queueFn)
			cs.dropGrids()
		}
		r.probeClass(cs)
	}
	for _, s := range r.fresh {
		r.queue(s)
	}
	clear(r.fresh)
	r.fresh = r.fresh[:0]
	p.bucketEvents()
	slices.SortFunc(r.work, func(a, b *Sub) int { return cmp.Compare(a.id, b.id) })

	tick := r.eng.Tick()
	for _, s := range r.work {
		if !r.maintain(s, tick) {
			continue
		}
		if r.d.changed {
			r.deltaBytes += r.d.Bytes()
			if fn != nil {
				fn(&r.d)
			}
		}
	}
	clear(r.work)
	for _, cs := range r.classList {
		cs.syncImage()
		cs.storeVersions()
	}
	r.eng.NoteViewStats(engine.ViewTick{
		Subs: int64(len(r.byID)), IndexedSubs: r.indexed,
		DeltaRows: r.deltaRows, Rescans: r.rescans, IndexProbes: p.probes,
		Nanos: time.Since(start).Nanoseconds(),
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

// maintain runs one subscription into r.d; false reports the version skip
// (no evaluation happened).
func (r *Registry) maintain(s *Sub, tick int64) bool {
	cs := s.cs
	resync := cs.resync || s.fresh
	if !resync && s.versionsUnchanged(cs) {
		return false
	}
	r.d.reset(s, tick)
	switch {
	case !resync && s.grp != nil && s.grp.probed:
		if s.grp.evSeq[s.slot] == r.seq {
			r.applyEvents(s, cs)
		}
	case !resync && s.sh.stable &&
		r.costs.ChooseView(s.def.Mode, cs.tab.Len(), len(cs.rows)) == plan.ViewDelta:
		r.applyDelta(s, cs)
	default:
		r.applyRescan(s, cs, resync)
		r.rescans++
	}
	s.fresh = false
	r.deltaRows += int64(len(r.d.AddIDs) + len(r.d.UpdIDs) + len(r.d.RemIDs))
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
// shared slot vectors (skipped when they already hold them).
func (r *Registry) fillSlots(s *Sub, n int) {
	if r.slotSub == s && r.slotLen >= n {
		return
	}
	for len(r.slotLanes) < len(s.consts) {
		r.slotLanes = append(r.slotLanes, nil)
	}
	for i, v := range s.consts {
		lane := growFloats(r.slotLanes[i], n)
		r.slotLanes[i] = lane
		for j := 0; j < n; j++ {
			lane[j] = v
		}
	}
	r.slotSub = s
	r.slotLen = n
}

// evalCandidates produces the pass mask over the class's candidate lanes.
func (r *Registry) evalCandidates(s *Sub, cs *classState) []float64 {
	k := len(cs.rows)
	mask := growFloats(r.mask, k)
	r.mask = mask
	if k == 0 {
		return mask
	}
	if s.sh.prog != nil {
		cs.buildLanes()
		r.fillSlots(s, k)
		r.env = vexpr.Env{Cols: cs.lanes, IDs: cs.idLane, Slots: r.slotLanes}
		s.sh.prog.Run(&r.mach, &r.env, 0, k, mask)
		return mask
	}
	cs.buildCandIDs()
	ctx := expr.Ctx{W: r.eng, Class: cs.name, Frame: s.frame}
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
func (r *Registry) applyDelta(s *Sub, cs *classState) {
	cs.buildOrder()
	mask := r.evalCandidates(s, cs)
	d := &r.d
	r.addPairs = r.addPairs[:0]
	r.updPairs = r.updPairs[:0]
	m, at := s.members, 0
	for _, i := range cs.order {
		id, row := cs.candIDs[i], cs.rows[i]
		at = seek(m, at, id)
		in := at < len(m) && m[at] == id
		if mask[i] != 0 {
			if in {
				r.updPairs = append(r.updPairs, idRow{id, row})
			} else {
				r.addPairs = append(r.addPairs, idRow{id, row})
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
	r.finishRowDelta(s, cs)
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
func (r *Registry) applyRescan(s *Sub, cs *classState, resync bool) {
	newPairs := r.evalFull(s, cs) // ascending id
	d := &r.d
	r.addPairs = r.addPairs[:0]
	r.updPairs = r.updPairs[:0]
	if resync {
		// Full refresh: the whole result ships as adds and the client
		// replaces its state, so prior membership is irrelevant.
		d.Resync = true
		r.addPairs = append(r.addPairs, newPairs...)
		s.setMembers(newPairs)
		if s.def.Kind == Select {
			d.changed = true
		}
		r.recomputeAgg(s, cs, true)
		r.emitRows(s, cs)
		return
	}
	// Diff old vs new membership. Updates are member ∩ candidate ∩ pass —
	// the same set the delta path derives, so both modes emit identical
	// streams: the rows in both lists that the feed stamped.
	cs.stampRows(r.seq)
	old := s.members
	i, j := 0, 0
	for i < len(old) || j < len(newPairs) {
		switch {
		case j == len(newPairs) || (i < len(old) && old[i] < newPairs[j].id):
			d.RemIDs = append(d.RemIDs, old[i])
			i++
		case i == len(old) || newPairs[j].id < old[i]:
			r.addPairs = append(r.addPairs, newPairs[j])
			j++
		default:
			if cs.stamp[newPairs[j].row] == r.seq {
				r.updPairs = append(r.updPairs, newPairs[j])
			}
			i++
			j++
		}
	}
	s.setMembers(newPairs)
	r.finishAfterMembership(s, cs)
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
func (r *Registry) finishRowDelta(s *Sub, cs *classState) {
	if rem := r.d.RemIDs; len(rem) > 0 {
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
	if add := r.addPairs; len(add) > 0 {
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
	r.finishAfterMembership(s, cs)
}

// finishAfterMembership emits rows or aggregates once s.members is final.
// The aggregate fold runs before emitRows: it consults the remove list,
// which emitRows clears for aggregate kinds.
func (r *Registry) finishAfterMembership(s *Sub, cs *classState) {
	d := &r.d
	if s.def.Kind == Select &&
		(len(r.addPairs) > 0 || len(r.updPairs) > 0 || len(d.RemIDs) > 0) {
		d.changed = true
	}
	r.recomputeAgg(s, cs, false)
	r.emitRows(s, cs)
}

// emitRows fills the delta's id lists and payload columns (Select only;
// aggregates deliver Agg/Top instead of rows).
func (r *Registry) emitRows(s *Sub, cs *classState) {
	d := &r.d
	for _, p := range r.addPairs {
		d.AddIDs = append(d.AddIDs, p.id)
	}
	if s.def.Kind != Select {
		// Aggregate clients consume Agg/Top; drop the row lists the
		// maintenance pass derived (membership is registry-internal).
		d.AddIDs = d.AddIDs[:0]
		d.UpdIDs = d.UpdIDs[:0]
		d.RemIDs = d.RemIDs[:0]
		return
	}
	for _, p := range r.updPairs {
		d.UpdIDs = append(d.UpdIDs, p.id)
	}
	for j, a := range s.payload {
		col := cs.tab.NumColumn(a)
		for _, p := range r.addPairs {
			d.AddCols[j] = append(d.AddCols[j], col[p.row])
		}
		for _, p := range r.updPairs {
			d.UpdCols[j] = append(d.UpdCols[j], col[p.row])
		}
	}
}

// recomputeAgg folds the aggregate kinds after membership settles. Sum
// refolds over members in ascending-id order — the same fold a fresh
// rescan performs, so the bits match by construction. TopK selects the K
// best of its ranking and the candidates, or of the whole membership when
// a ranked row retracts (leaves, or changes key).
func (r *Registry) recomputeAgg(s *Sub, cs *classState, force bool) {
	d := &r.d
	membersTouched := len(r.addPairs) > 0 || len(d.RemIDs) > 0 || d.Resync
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
		if !force && !membersTouched && len(r.updPairs) == 0 {
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
		if !force && !membersTouched && len(r.updPairs) == 0 {
			return
		}
		r.maintainTopK(s, cs, force)
	}
}

func (r *Registry) maintainTopK(s *Sub, cs *classState, force bool) {
	d := &r.d
	col := cs.tab.NumColumn(s.aggAttr)
	// A ranked row leaving, or changing key, can promote an arbitrary
	// unranked member: recompute from the full membership. Both lists are
	// sorted by id, so each ranked row is a search in each.
	retract := force || d.Resync
	for i := 0; !retract && i < len(s.top); i++ {
		e := s.top[i]
		_, gone := slices.BinarySearch(d.RemIDs, e.ID)
		j, upd := slices.BinarySearchFunc(r.updPairs, idRow{id: e.ID}, comparePairs)
		retract = gone || upd && !sameBits(e.Key, col[r.updPairs[j].row])
	}
	// Select the K best with a heap whose root is the worst kept entry: of
	// every member on a retract, else of the ranking (worst first is a heap)
	// and the adds and unranked updates. The order is strict (ids are
	// unique), so this is exactly the first K of a full sort.
	h := r.topCand[:0]
	if retract {
		for _, id := range s.members {
			h = pushTop(h, s.def.K, TopEntry{ID: id, Key: col[cs.tab.Row(id)]})
		}
	} else {
		for i := len(s.top) - 1; i >= 0; i-- {
			h = append(h, s.top[i])
		}
		for _, pairs := range [2][]idRow{r.addPairs, r.updPairs} {
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
	r.topCand = h
	r.commitTop(s, force)
}

// commitTop installs a recomputed ranking, emitting only on change.
func (r *Registry) commitTop(s *Sub, force bool) {
	d := &r.d
	changed := force || len(r.topCand) != len(s.top)
	if !changed {
		for i, e := range r.topCand {
			if e.ID != s.top[i].ID || !sameBits(e.Key, s.top[i].Key) {
				changed = true
				break
			}
		}
	}
	s.top = append(s.top[:0], r.topCand...)
	if changed {
		d.Top = append(d.Top[:0], s.top...)
		d.AggChanged = true
		d.changed = true
	}
}

// evalFull evaluates the predicate over the whole extent, returning the
// passing live rows as (id, row) pairs sorted by ascending id.
func (r *Registry) evalFull(s *Sub, cs *classState) []idRow {
	tab := cs.tab
	n := tab.Cap()
	pairs := r.fullPairs[:0]
	if g := s.grp; g != nil && len(g.attrs) == 2 {
		// A box is a range query (§4.1). The grid returns the live rows in
		// the closed box [lo, hi], a superset of the rows the compares pass
		// whatever its cell size; the exact recheck keeps those.
		lo, hi := g.boxBounds(s.consts)
		r.gridRows = cs.dataGrid(g).QueryRows(lo[:], hi[:], index.AnyKey, r.gridRows[:0])
		raw := tab.RawIDs()
		xs, ys := tab.NumColumn(g.attrs[0]), tab.NumColumn(g.attrs[1])
		for _, row := range r.gridRows {
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
		mask := growFloats(r.mask, n)
		r.mask = mask
		if n > 0 {
			r.fillSlots(s, n)
			r.env = vexpr.Env{Cols: tab.NumColumns(), Slots: r.slotLanes}
			if s.sh.prog.NeedIDs() {
				lane := growFloats(cs.fullIDLane, n)
				cs.fullIDLane = lane
				raw := tab.RawIDs()
				for i := 0; i < n; i++ {
					lane[i] = float64(raw[i])
				}
				r.env.IDs = lane
			}
			s.sh.prog.Run(&r.mach, &r.env, 0, n, mask)
		}
		raw := tab.RawIDs()
		for row := 0; row < n; row++ {
			if mask[row] != 0 && tab.Alive(row) {
				pairs = append(pairs, idRow{raw[row], int32(row)})
			}
		}
	} else {
		ctx := expr.Ctx{W: r.eng, Class: cs.name, Frame: s.frame}
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
	r.fullPairs = pairs
	return pairs
}

// dataGrid indexes a class's live rows on two attributes for box rescans.
// It is not the engine's join grid, which indexes pre-update positions.
type dataGrid struct {
	build index.Builder
	grid  *index.Grid
	live  []int32
	vers  [3]uint64 // structure and column versions at the build
	valid bool
}

// dataGrid returns the grid over the class's live rows on g's attributes,
// rebuilt when the structure or either column moved since its build — at
// most once per Apply — with g's cell.
func (cs *classState) dataGrid(g *subGroup) *index.Grid {
	attrs := [2]int{g.attrs[0], g.attrs[1]}
	dg := cs.grids[attrs]
	if dg == nil {
		dg = &dataGrid{}
		cs.grids[attrs] = dg
	}
	tab := cs.tab
	vers := [3]uint64{tab.StructVersion(), tab.ColVersion(attrs[0]), tab.ColVersion(attrs[1])}
	if !dg.valid || vers != dg.vers {
		dg.live = tab.LiveRows(dg.live[:0])
		dg.grid = dg.build.BuildGrid(g.cell, tab.NumColumn(attrs[0]), tab.NumColumn(attrs[1]), nil, dg.live)
		dg.vers, dg.valid = vers, true
	}
	return dg.grid
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
