package views

// The subscription index: §4.1's index join with the roles swapped. The
// engine indexes the data and probes with the query; here the queries are
// the indexed relation and the tick's touched rows are the probes.
//
// A stable predicate that canonicalizes to a conjunction of
// `attr {<,<=,>,>=} $slot` compares over numeric own columns is an
// axis-aligned box whose corners are the subscription's constant vector.
// Subscriptions sharing a canonical shape key form one group per class:
//
//   - two attributes with both bounds on each: an internal/index grid over
//     the box centres (subscription slot as the grid's row), rebuilt lazily
//     before the first probe after a Subscribe or Unsubscribe, probed with
//     the group's largest half-extent and rechecked exactly against the
//     slots;
//   - one attribute: an array sorted on the first compare's bound, of which
//     a touched value selects a prefix or suffix, rechecked the same way.
//
// Each Apply a touched row is probed at its new point and at its
// last-applied point — read from a registry-side copy of the indexed
// columns (the image), because the table only holds the new one. The two
// hit sets give the subscriptions the row entered, left or stayed in; killed
// ids have no row any more and are found through the image's id → row map.
//
// A group's probe order — its killed ids, then its touched rows in id
// order — is cut into one contiguous range per pool worker, and each range
// is a probe task: it probes with its worker's scratch and leaves its
// events bucketed by slot. A subscription's events are its buckets in range
// order, which is the probe order, so each feeds the same merge-and-emit
// tail the per-subscription delta path ends in and the stream is
// bit-identical to it.

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// boxCmp is one `attr op $slot` conjunct of an indexable predicate.
type boxCmp struct {
	axis int        // index into the group's attrs
	op   token.Kind // LT, LE, GT, GE
	slot int        // constant slot holding the bound
}

func (c boxCmp) upper() bool { return c.op == token.LT || c.op == token.LE }

// holds evaluates the conjunct exactly as the mask kernel would.
func (c boxCmp) holds(v, bound float64) bool {
	switch c.op {
	case token.LT:
		return v < bound
	case token.LE:
		return v <= bound
	case token.GT:
		return v > bound
	default:
		return v >= bound
	}
}

const (
	whyForced   = "maintenance mode is forced"
	whyUnstable = "predicate is unstable"
	whyShape    = "predicate is not a conjunction of `attr <|<=|>|>= constant` compares over numeric own attributes"
	whyDims     = "predicate ranges over more than two attributes"
	whyOpen     = "two-attribute box lacks a lower or an upper bound on an attribute"
	whyEmpty    = "two-attribute box is empty or has no extent"
	whyTiny     = "box extent is too small against its distance from the origin for the grid"
)

// boxShapeOf recognizes the indexable shape in a canonicalized predicate:
// the conjuncts in source order and the distinct attributes they range
// over, or why the predicate has no such shape.
func boxShapeOf(pred ast.Expr, cls *schema.Class) (cmps []boxCmp, attrs []int, why string) {
	var walk func(e ast.Expr) bool
	walk = func(e ast.Expr) bool {
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case token.ANDAND:
			return walk(b.X) && walk(b.Y)
		case token.LT, token.LE, token.GT, token.GE:
		default:
			return false
		}
		x, ok := b.X.(*ast.Ident)
		if !ok || x.Bind.Kind != ast.BindStateAttr ||
			cls.State[x.Bind.AttrIdx].Kind != value.KindNumber {
			return false
		}
		y, ok := b.Y.(*ast.Ident)
		if !ok || y.Bind.Kind != ast.BindLocal {
			return false
		}
		axis := slices.Index(attrs, x.Bind.AttrIdx)
		if axis < 0 {
			axis = len(attrs)
			attrs = append(attrs, x.Bind.AttrIdx)
		}
		cmps = append(cmps, boxCmp{axis: axis, op: b.Op, slot: y.Bind.Slot})
		return true
	}
	if !walk(pred) {
		return nil, nil, whyShape
	}
	if len(attrs) > 2 {
		return nil, nil, whyDims
	}
	if len(attrs) == 2 {
		var lower, upper [2]bool
		for _, c := range cmps {
			if c.upper() {
				upper[c.axis] = true
			} else {
				lower[c.axis] = true
			}
		}
		if !(lower[0] && upper[0] && lower[1] && upper[1]) {
			return nil, nil, whyOpen
		}
	}
	return cmps, attrs, ""
}

// subGroup indexes the subscriptions of one class that share one canonical
// predicate shape. Slots are stable small integers handed out per group;
// they are the grid's "rows" and index the per-probe stamp array.
type subGroup struct {
	key     string
	cmps    []boxCmp
	attrs   []int // one or two indexed state attributes
	kernels int   // the shape's kernel op count, for the cost rule

	slots []*Sub // slot → subscription; nil when free
	free  []int32
	n     int
	evSeq []uint64 // per slot: the last Apply sequence a probe task gave it events in

	freshSeq uint64 // the last Apply sequence it had a fresh member in

	// This Apply's probe tasks, as a range of the registry's task list, and
	// the data grid its box rescans query (set by Registry.prepare).
	taskLo, taskHi int
	scan           *index.Grid

	// Two-attribute groups: a grid over the slots' box centres, rebuilt
	// before the first probe after the membership changed.
	build   index.Builder
	grid    *index.Grid
	cx, cy  []float64 // per slot
	live    []int32   // build scratch: the occupied slots
	cell    float64
	stale   bool
	maxHalf float64 // largest half-extent ever inserted: the probe's reach

	// One-attribute groups: bounds of cmps[0], ascending (ties by slot).
	bounds []boundEntry

	ready  bool // image columns hold last-applied values for this group
	probed bool // this Apply's cost decision
}

type boundEntry struct {
	bound float64
	slot  int32
}

func compareBound(a, b boundEntry) int {
	if c := cmp.Compare(a.bound, b.bound); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// each visits the group's subscriptions in slot order.
func (g *subGroup) each(fn func(*Sub)) {
	for _, s := range g.slots {
		if s != nil {
			fn(s)
		}
	}
}

// maxGridKey bounds |coordinate / cell|: smaller boxes that far out would
// spread a group over more cells than the grid's window keeps.
const maxGridKey = 1 << 30

// boxBounds returns a two-attribute subscription's closed box: per axis the
// largest lower and the smallest upper bound (NaN when a bound is NaN).
// Every point the compares pass lies in it.
func (g *subGroup) boxBounds(consts []float64) (lo, hi [2]float64) {
	lo = [2]float64{math.Inf(-1), math.Inf(-1)}
	hi = [2]float64{math.Inf(1), math.Inf(1)}
	for _, c := range g.cmps {
		if b := consts[c.slot]; c.upper() {
			hi[c.axis] = math.Min(hi[c.axis], b)
		} else {
			lo[c.axis] = math.Max(lo[c.axis], b)
		}
	}
	return lo, hi
}

// boxOf returns the centre and half-extent of a two-attribute subscription's
// box along each axis.
func (g *subGroup) boxOf(consts []float64) (centre, half [2]float64) {
	lo, hi := g.boxBounds(consts)
	for a := range centre {
		centre[a] = float64(lo[a]/2) + float64(hi[a]/2) // rounded halves (x/2 is x*0.5): no FMA on any GOARCH
		half[a] = float64(hi[a]/2) - float64(lo[a]/2)
	}
	return centre, half
}

// indexSub places a freshly compiled subscription into its class's
// subscription index, returning "" on success or the reason it stays on the
// per-subscription path.
func (r *Registry) indexSub(s *Sub) string {
	switch {
	case s.def.Mode != plan.ViewAuto:
		return whyForced
	case !s.sh.stable:
		return whyUnstable
	}
	cs := s.cs
	g := cs.groups[s.sh.key]
	if g == nil {
		cmps, attrs, why := boxShapeOf(s.sh.pred, cs.cls)
		if why != "" {
			return why
		}
		g = &subGroup{key: s.sh.key, cmps: cmps, attrs: attrs, kernels: 16}
		if s.sh.prog != nil {
			g.kernels = s.sh.prog.Kernels()
		}
	}
	var centre, half [2]float64
	if len(g.attrs) == 2 {
		centre, half = g.boxOf(s.consts)
		reach := math.Max(half[0], half[1])
		switch {
		case !(half[0] > 0 && half[1] > 0):
			return whyEmpty
		case math.Abs(centre[0])/reach >= maxGridKey || math.Abs(centre[1])/reach >= maxGridKey:
			return whyTiny
		}
	}
	if g.n == 0 {
		cs.groups[g.key] = g
		cs.groupList = append(cs.groupList, g)
		cs.imageRef(g.attrs, +1)
	}

	slot := int32(len(g.slots))
	if k := len(g.free); k > 0 {
		slot = g.free[k-1]
		g.free = g.free[:k-1]
		g.slots[slot] = s
	} else {
		g.slots = append(g.slots, s)
		g.evSeq = append(g.evSeq, 0)
		g.cx, g.cy = append(g.cx, 0), append(g.cy, 0)
	}
	g.n++
	s.grp, s.slot = g, slot
	r.indexed++

	if len(g.attrs) == 1 {
		e := boundEntry{s.consts[g.cmps[0].slot], slot}
		i, _ := slices.BinarySearchFunc(g.bounds, e, compareBound)
		g.bounds = slices.Insert(g.bounds, i, e)
		return ""
	}
	reach := math.Max(half[0], half[1])
	g.maxHalf = math.Max(g.maxHalf, reach)
	if reach > g.cell {
		// The cell follows the largest half-extent, so a probe's reach
		// spans three cells an axis; growing by at least half again keeps
		// ascending radii from changing it on every Subscribe.
		g.cell = math.Max(reach, 1.5*g.cell)
	}
	g.cx[slot], g.cy[slot] = centre[0], centre[1]
	g.stale = true
	return ""
}

// rebuildGrid refills the group's grid from its live slots, in slot order.
func (g *subGroup) rebuildGrid() {
	g.live = g.live[:0]
	for slot, s := range g.slots {
		if s != nil {
			g.live = append(g.live, int32(slot))
		}
	}
	g.grid = g.build.BuildGrid(g.cell, g.cx, g.cy, nil, g.live)
	g.stale = false
}

// unindexSub removes a subscription from its group, dissolving the group
// with its last member.
func (r *Registry) unindexSub(s *Sub) {
	g, cs := s.grp, s.cs
	if len(g.attrs) == 1 {
		e := boundEntry{s.consts[g.cmps[0].slot], s.slot}
		if i, ok := slices.BinarySearchFunc(g.bounds, e, compareBound); ok {
			g.bounds = slices.Delete(g.bounds, i, i+1)
		}
	} else {
		g.stale = true
	}
	g.slots[s.slot] = nil
	g.free = append(g.free, s.slot)
	g.n--
	s.grp = nil
	r.indexed--
	if s.fresh {
		if i := slices.Index(r.fresh, s); i >= 0 {
			r.fresh = slices.Delete(r.fresh, i, i+1)
		}
	}
	if g.n == 0 {
		delete(cs.groups, g.key)
		cs.groupList = slices.DeleteFunc(cs.groupList, func(x *subGroup) bool { return x == g })
		cs.imageRef(g.attrs, -1)
	}
}

// match appends the slots of the group's subscriptions whose box contains
// the point cols[attr][row] — index probe, then exact recheck against each
// candidate's constants. A two-attribute group's grid must be current
// (Registry.planProbes rebuilds a stale one before the probe tasks start).
func (g *subGroup) match(p *probeScratch, cols [][]float64, row int32, out []int32) []int32 {
	p.probes++
	if len(g.attrs) == 1 {
		v := cols[g.attrs[0]][row]
		if math.IsNaN(v) {
			return out
		}
		if len(g.cmps) == 1 {
			lo, hi := g.run(v)
			for _, e := range g.bounds[lo:hi] {
				out = append(out, e.slot)
			}
			return out
		}
		// Entries whose first bound admits v: a suffix for `v < bound`
		// shapes, a prefix for `v > bound` ones. The search is inclusive of
		// ties and the recheck settles strictness and the other compares.
		cand := g.bounds
		if g.cmps[0].upper() {
			cand = cand[sort.Search(len(cand), func(i int) bool { return cand[i].bound >= v }):]
		} else {
			cand = cand[:sort.Search(len(cand), func(i int) bool { return cand[i].bound > v })]
		}
		for _, e := range cand {
			if g.passes(g.slots[e.slot].consts, v, 0) {
				out = append(out, e.slot)
			}
		}
		return out
	}
	x, y := cols[g.attrs[0]][row], cols[g.attrs[1]][row]
	cell := g.cell
	// NaN fails every compare and an infinite or far-off coordinate lies in
	// no finite box whose centre key fits the grid: no probe needed.
	if !(math.Abs(x)/cell < maxGridKey+2 && math.Abs(y)/cell < maxGridKey+2) {
		return out
	}
	// Centres within the largest half-extent of the point, padded for the
	// rounding in centre = lo/2 + hi/2; the recheck is exact.
	reach := float64(g.maxHalf * (1 + 1.0/(1<<16))) // rounded product: no FMA on any GOARCH
	p.lo[0], p.lo[1] = x-reach, y-reach
	p.hi[0], p.hi[1] = x+reach, y+reach
	p.cand = g.grid.QueryRows(p.lo[:], p.hi[:], index.AnyKey, p.cand[:0])
	for _, slot := range p.cand {
		if g.passes(g.slots[slot].consts, x, y) {
			out = append(out, slot)
		}
	}
	return out
}

// single reports a one-compare group: its compare is the whole predicate.
func (g *subGroup) single() bool { return len(g.cmps) == 1 }

// run returns the run [lo, hi) of a one-compare group's sorted bounds whose
// subscriptions v passes, found by the compare's exact edge: a suffix for
// `v < bound` shapes, a prefix after the NaN bounds (which sort first and
// admit nothing) for `v > bound` ones, and empty for a NaN v.
func (g *subGroup) run(v float64) (lo, hi int) {
	b, c := g.bounds, g.cmps[0]
	if math.IsNaN(v) {
		return 0, 0
	}
	if c.upper() {
		return sort.Search(len(b), func(i int) bool { return c.holds(v, b[i].bound) }), len(b)
	}
	lo = sort.Search(len(b), func(i int) bool { return !math.IsNaN(b[i].bound) })
	return lo, lo + sort.Search(len(b)-lo, func(i int) bool { return !c.holds(v, b[lo+i].bound) })
}

func (g *subGroup) passes(consts []float64, x, y float64) bool {
	for _, c := range g.cmps {
		v := x
		if c.axis == 1 {
			v = y
		}
		if !c.holds(v, consts[c.slot]) {
			return false
		}
	}
	return true
}

// image is a class's last-applied copy of its indexed columns: what each
// row's indexed attributes were when the previous Apply finished, which is
// what every indexed subscription's membership reflects. Sized
// O(rows × indexed columns), independent of how many subscriptions or
// memberships there are.
type image struct {
	imgRef   []int              // per attr: index groups reading it
	imgFill  []bool             // per attr: referenced since the last sync, needs a full copy
	img      [][]float64        // per attr: column copy (nil when unreferenced)
	imgID    []value.ID         // per row: the id the image row describes, or NullID
	imgRow   map[value.ID]int32 // id → image row, for killed ids
	imgBuilt bool
}

func (cs *classState) imageRef(attrs []int, delta int) {
	if cs.imgRef == nil {
		n := len(cs.cls.State)
		cs.imgRef = make([]int, n)
		cs.imgFill = make([]bool, n)
		cs.img = make([][]float64, n)
		cs.imgRow = map[value.ID]int32{}
	}
	for _, a := range attrs {
		if cs.imgRef[a] == 0 && delta > 0 {
			cs.imgFill[a] = true
		}
		cs.imgRef[a] += delta
	}
}

// dropImage forgets the image and the data grids (the table behind them was
// replaced); the next syncImage rebuilds the image and no group probes until
// then.
func (cs *classState) dropImage() {
	cs.imgBuilt = false
	cs.dropGrids()
	for _, g := range cs.groupList {
		g.ready = false
	}
}

// syncImage brings the image up to the state this Apply maintained against:
// a full copy after a resync or a drop, otherwise just the feed's rows.
func (cs *classState) syncImage() {
	if len(cs.groupList) == 0 {
		cs.imgBuilt = false
		return
	}
	tab := cs.tab
	n := tab.Cap()
	raw := tab.RawIDs()
	full := cs.resync || !cs.imgBuilt
	if full {
		clear(cs.imgRow)
		cs.imgID = cs.imgID[:0]
		for row := 0; row < n; row++ {
			id := value.NullID
			if tab.Alive(row) {
				id = raw[row]
				cs.imgRow[id] = int32(row)
			}
			cs.imgID = append(cs.imgID, id)
		}
	} else {
		for len(cs.imgID) < n {
			cs.imgID = append(cs.imgID, value.NullID)
		}
		for _, id := range cs.killed {
			if row, ok := cs.imgRow[id]; ok {
				delete(cs.imgRow, id)
				cs.imgID[row] = value.NullID
			}
		}
		for _, row := range cs.rows {
			if id := raw[row]; cs.imgID[row] != id {
				cs.imgID[row] = id
				cs.imgRow[id] = row
			}
		}
	}
	for a, refs := range cs.imgRef {
		if refs == 0 {
			continue
		}
		src := tab.NumColumn(a)
		if full || cs.imgFill[a] {
			cs.img[a] = append(cs.img[a][:0], src[:n]...)
		} else {
			for len(cs.img[a]) < n {
				cs.img[a] = append(cs.img[a], 0)
			}
			for _, row := range cs.rows {
				cs.img[a][row] = src[row]
			}
		}
		cs.imgFill[a] = false
	}
	cs.imgBuilt = true
	for _, g := range cs.groupList {
		g.ready = true
	}
}

// subEvent is one probe result in its subscription's bucket: the row
// entered, stayed in or left the subscription, packed as row << 2 | kind. A
// killed id has no row: -1-k stands for the class's killed[k]. Rows and
// killed counts stay far below 1 << 29. Four bytes, because an Apply keeps
// every event until the maintain fan-out has read it.
type subEvent int32

// slotEvent is a subEvent before bucketing: it also names its slot.
type slotEvent struct {
	ev   subEvent
	slot int32
}

const (
	evAdd = iota
	evUpd
	evRem
)

func (e subEvent) row() int32   { return int32(e) >> 2 }
func (e subEvent) kind() uint32 { return uint32(e) & 3 }

// probeScratch is one worker's probing state.
type probeScratch struct {
	lo, hi  [2]float64
	cand    []int32 // grid candidates before the exact recheck
	oldHits []int32
	newHits []int32
	stamp   []uint64 // per slot: probe sequence of the last old-point hit
	seq     uint64   // stamp generation, two per moved row
	probes  int64
}

// probeTask probes one contiguous range [lo, hi) of a group's probe order:
// the class's killed ids, then its touched rows in id order. Its events
// gather in its worker's scratch and are then bucketed by slot (a counting
// sort, so a bucket keeps probe order) into the task's own event list,
// which holds them until the maintain fan-out has read them. What a task
// keeps depends on its range, not on which worker ran it.
type probeTask struct {
	cs     *classState
	g      *subGroup
	lo, hi int

	scratch *[]slotEvent // the running worker's
	events  []subEvent   // bucketed by slot
	slots   []int32      // slots with events, in first-event order
	seen    []uint64
	start   []int32 // per slot seen this Apply: bucket offset in events
	end     []int32 // per slot seen this Apply: event count, then the bucket end
}

// bucket returns the task's events for slot, in probe order.
func (t *probeTask) bucket(slot int32, seq uint64) []subEvent {
	if t.seen[slot] != seq {
		return nil
	}
	return t.events[t.start[slot]:t.end[slot]]
}

// emit records one event for slot.
func (t *probeTask) emit(seq uint64, slot, row int32, kind uint32) {
	if t.seen[slot] != seq {
		t.seen[slot] = seq
		t.end[slot] = 0
		t.slots = append(t.slots, slot)
	}
	t.end[slot]++
	*t.scratch = append(*t.scratch, slotEvent{subEvent(row<<2 | int32(kind)), slot})
}

// emitRun emits one event for each subscription in the group's sorted
// bounds [lo, hi), when the run is not empty.
func (t *probeTask) emitRun(seq uint64, lo, hi int, row int32, kind uint32) {
	for _, e := range t.g.bounds[lo:max(lo, hi)] {
		t.emit(seq, e.slot, row, kind)
	}
}

// planProbes decides, per index group, between probing and the
// per-subscription path, queues the subscriptions of groups that take the
// latter, and lays out the probe tasks of the groups that take the index:
// one per worker, each a contiguous range of the group's probe order. The
// shared structures the tasks read — the id order, a stale subscription
// grid — are built here, before any task runs.
func (r *Registry) planProbes(cs *classState, nw int) {
	touched := len(cs.rows) + len(cs.killed)
	for _, g := range cs.groupList {
		g.probed = g.ready && !cs.resync &&
			r.costs.ChooseViewIndex(g.n, cs.tab.Len(), touched, g.kernels)
		g.taskLo, g.taskHi = r.nTasks, r.nTasks
		if len(g.attrs) == 2 && (cs.resync || g.freshSeq == r.seq ||
			!g.probed && r.costs.ChooseView(plan.ViewAuto, cs.tab.Len(), len(cs.rows)) == plan.ViewRescan) {
			r.planGrid(cs, g) // some member rescans from the data grid
		}
		if !g.probed {
			g.each(r.queueFn)
			continue
		}
		if touched == 0 {
			continue
		}
		if g.stale {
			g.rebuildGrid()
		}
		cs.buildOrder()
		k := min(nw, touched)
		for j := 0; j < k; j++ {
			if r.nTasks == len(r.tasks) {
				r.tasks = append(r.tasks, probeTask{})
			}
			t := &r.tasks[r.nTasks]
			t.cs, t.g, t.lo, t.hi = cs, g, j*touched/k, (j+1)*touched/k
			r.nTasks++
		}
		g.taskHi = r.nTasks
	}
}

// runProbe is the probe fan-out's body on worker wk: the data grid
// rebuilds first, then the probe tasks.
func (r *Registry) runProbe(wk, i int) {
	if i < len(r.gridJobs) {
		r.gridJobs[i].dg.refresh(r.gridJobs[i].tab)
		return
	}
	r.tasks[i-len(r.gridJobs)].run(r.seq, r.workers[wk])
}

// run turns the task's range of the drained feed into add/update/remove
// events for the group's subscriptions, bucketed by slot.
func (t *probeTask) run(seq uint64, w *worker) {
	t.scratch, t.slots, w.scratch = &w.scratch, t.slots[:0], w.scratch[:0]
	for n := len(t.g.slots); len(t.seen) < n; {
		t.seen, t.start, t.end = append(t.seen, 0), append(t.start, 0), append(t.end, 0)
	}
	for len(w.probe.stamp) < len(t.g.slots) {
		w.probe.stamp = append(w.probe.stamp, 0)
	}
	t.probe(seq, &w.probe)
	// Bucket: each slot's stretch of the event list, in first-event order.
	off := int32(0)
	for _, slot := range t.slots {
		n := t.end[slot]
		t.start[slot], t.end[slot] = off, off // end advances to the bucket end as events land
		off += n
	}
	t.events = slices.Grow(t.events[:0], int(off))[:off]
	for _, e := range w.scratch {
		t.events[t.end[e.slot]] = e.ev
		t.end[e.slot]++
	}
}

// probe probes the task's range.
func (t *probeTask) probe(seq uint64, p *probeScratch) {
	cs, g := t.cs, t.g
	nk := len(cs.killed)
	for k := t.lo; k < min(t.hi, nk); k++ {
		row, ok := cs.imgRow[cs.killed[k]]
		if !ok {
			continue // spawned and killed between two Applies: never seen
		}
		p.oldHits = g.match(p, cs.img, row, p.oldHits[:0])
		for _, slot := range p.oldHits {
			t.emit(seq, slot, int32(-1-k), evRem)
		}
	}
	// Rows in id order, so each subscription's adds and updates come out
	// sorted.
	cols := cs.tab.NumColumns()
	for _, i := range cs.order[max(t.lo, nk)-nk : max(t.hi, nk)-nk] {
		id, row := cs.candIDs[i], cs.rows[i]
		// Spawned since the previous Apply (a previous occupant of the row
		// left through the killed list above), or moved in the image.
		spawned := int(row) >= len(cs.imgID) || cs.imgID[row] != id
		moved := false
		for _, a := range g.attrs {
			if !spawned && math.Float64bits(cs.img[a][row]) != math.Float64bits(cols[a][row]) {
				moved = true
			}
		}
		if moved && g.single() {
			// Both hit sets are runs of the sorted bounds sharing an end:
			// their overlap stayed, the rest of the new run entered and the
			// rest of the old one left.
			p.probes += 2
			a := g.attrs[0]
			nlo, nhi := g.run(cols[a][row])
			olo, ohi := g.run(cs.img[a][row])
			t.emitRun(seq, max(nlo, olo), min(nhi, ohi), row, evUpd)
			t.emitRun(seq, nlo, min(nhi, olo), row, evAdd)
			t.emitRun(seq, max(nlo, ohi), nhi, row, evAdd)
			t.emitRun(seq, olo, min(ohi, nlo), row, evRem)
			t.emitRun(seq, max(olo, nhi), ohi, row, evRem)
			continue
		}
		p.newHits = g.match(p, cols, row, p.newHits[:0])
		if spawned {
			for _, slot := range p.newHits {
				t.emit(seq, slot, row, evAdd)
			}
			continue
		}
		if !moved {
			for _, slot := range p.newHits {
				t.emit(seq, slot, row, evUpd)
			}
			continue
		}
		p.oldHits = g.match(p, cs.img, row, p.oldHits[:0])
		p.seq += 2
		for _, slot := range p.oldHits {
			p.stamp[slot] = p.seq
		}
		for _, slot := range p.newHits {
			if p.stamp[slot] == p.seq {
				p.stamp[slot] = p.seq + 1 // in both: stayed
				t.emit(seq, slot, row, evUpd)
			} else {
				t.emit(seq, slot, row, evAdd)
			}
		}
		for _, slot := range p.oldHits {
			if p.stamp[slot] == p.seq {
				t.emit(seq, slot, row, evRem)
			}
		}
	}
}

// queueProbed puts every subscription a probe task gave an event on the
// worklist, once the probe fan-out has finished.
func (r *Registry) queueProbed() {
	for i := range r.tasks[:r.nTasks] {
		t := &r.tasks[i]
		for _, slot := range t.slots {
			if t.g.evSeq[slot] != r.seq {
				t.g.evSeq[slot] = r.seq
				r.queue(t.g.slots[slot])
			}
		}
	}
}

// applyEvents maintains an indexed subscription from its probe events: the
// same three lists the delta path derives with its kernel and per-candidate
// membership searches, handed to the same merge-and-emit tail.
func (w *worker) applyEvents(s *Sub, cs *classState) {
	d := &w.d
	w.addPairs = w.addPairs[:0]
	w.updPairs = w.updPairs[:0]
	raw := cs.tab.RawIDs()
	g, seq := s.grp, w.r.seq
	for i := g.taskLo; i < g.taskHi; i++ {
		for _, e := range w.r.tasks[i].bucket(s.slot, seq) {
			switch row := e.row(); e.kind() {
			case evAdd:
				w.addPairs = append(w.addPairs, idRow{raw[row], row})
			case evUpd:
				w.updPairs = append(w.updPairs, idRow{raw[row], row})
			default:
				if row < 0 {
					d.RemIDs = append(d.RemIDs, cs.killed[-1-row])
				} else {
					d.RemIDs = append(d.RemIDs, raw[row]) // moved out
				}
			}
		}
	}
	slices.Sort(d.RemIDs)
	w.finishRowDelta(s, cs)
}
