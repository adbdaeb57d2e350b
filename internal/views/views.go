// Package views maintains declarative per-client subscriptions over world
// state as incremental materialized views — the paper's thesis (what a
// client sees is a query; serving a crowd means maintaining those queries,
// not re-running them) applied to the engine's own substrate. A
// subscription is a compiled SGL predicate over one class extent, optionally
// folded to an aggregate (count, sum, top-k), and each tick the registry
// re-evaluates it only for the rows the engine changefeed marked, emitting a
// columnar delta (adds / updates / removes, or the new aggregate) instead of
// rescanning the extent per client.
//
// The machinery reuses the engine's execution stack end to end:
//
//   - predicates sem-check through the program's schema and classify
//     through analysis.AnalyzeViewPred — unstable predicates (cross-object
//     reads, extent iteration) pin their subscription to the rescan path;
//   - stable predicates compile to vexpr mask kernels. Literal constants
//     are canonicalized into frame slots first, so the ten-thousand
//     subscriptions that differ only in thresholds share one compiled
//     program (and one machine register slab) with per-subscription
//     constants fed through Env.Slots lanes;
//   - same-shape range predicates (interest boxes, thresholds) are points in
//     slot space, so the subscriptions themselves are indexed — an
//     internal/index grid over box centres, a sorted bound array for
//     one-attribute shapes — and each touched row probes the index instead
//     of every subscription filtering every touched row (subindex.go);
//   - plan.Costs arbitrates index probe vs per-subscription maintenance per
//     group per tick (ChooseViewIndex), and delta-maintain vs rescan per
//     subscription per tick (ChooseView), in plan.Costs' row-visit units;
//   - spatial interest subscriptions build rectangular predicates whose
//     reach plan.InteractionRadius bounds — the same box the partitioned
//     executor ghosts, which is why the changefeed (and thus every view)
//     is identical under Workers > 1 and Partitions > 1.
//
// Maintenance is a read-only phase over committed state, so Apply runs it
// on the world's worker pool and still emits deltas serially in ascending
// SubID order (apply.go).
//
// Everything the registry retains — membership sets, the per-worker delta
// buffers, the per-chunk delta logs, candidate lanes, constant lanes, probe
// events — is reused across ticks; steady-state maintenance of a warmed
// subscription set performs zero heap allocations on one worker.
package views

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/parser"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// Kind selects what a subscription delivers.
type Kind uint8

const (
	// Select delivers the matching rows themselves: adds/updates/removes
	// with columnar payloads.
	Select Kind = iota
	// Count delivers the number of matching rows.
	Count
	// Sum delivers the sum of a numeric attribute over matching rows,
	// refolded in ascending-id order so the result is bit-identical to a
	// fresh rescan.
	Sum
	// TopK delivers the K matching rows with the largest key attribute
	// (ties broken by ascending id), maintained incrementally with
	// recompute-on-retract.
	TopK
)

// Def declares one subscription.
type Def struct {
	// Class names the subscribed extent.
	Class string
	// Pred is an SGL boolean expression over the class's own row; empty
	// subscribes to every row.
	Pred string
	// Payload lists state attributes delivered with Select adds/updates.
	// Columns are delivered as float64 payloads (string attributes as
	// dictionary codes); set-valued attributes have no columnar form.
	Payload []string
	// Kind selects row delivery or an aggregate fold.
	Kind Kind
	// Attr is the folded attribute (Sum) or ranking key (TopK).
	Attr string
	// K bounds the TopK result.
	K int
	// Mode pins the maintenance strategy; ViewAuto lets the cost model
	// decide per tick. Soundness overrides it: unstable predicates and
	// resyncs always rescan.
	Mode plan.ViewMode
}

// SubID identifies a subscription within its registry.
type SubID int64

// TopEntry is one ranked row of a TopK result.
type TopEntry struct {
	ID  value.ID
	Key float64
}

// Delta is one subscription's per-tick change set. All slices alias
// registry-retained buffers shared by every subscription: they are valid
// only during the Apply callback and must be copied to retain. Lists are
// sorted by ascending id.
type Delta struct {
	Sub   SubID
	Class string
	Tick  int64

	// Resync marks a full refresh: the client must discard its view state
	// and replace it with AddIDs/AddCols (emitted after subscription,
	// hibernate→restore, or an unaccounted structure change).
	Resync bool

	AddIDs  []value.ID
	AddCols [][]float64 // per payload attr, aligned with AddIDs
	UpdIDs  []value.ID
	UpdCols [][]float64
	RemIDs  []value.ID

	// AggChanged reports Agg (Count/Sum) or Top (TopK) carries a new value.
	AggChanged bool
	Agg        float64
	Top        []TopEntry

	changed          bool
	addCols, updCols [][]float64 // backing for AddCols/UpdCols at full width
}

// Bytes is the wire size of the delta at 8 bytes per id or payload cell —
// the per-tick bandwidth a client of this subscription costs.
func (d *Delta) Bytes() int64 {
	n := 8 * (len(d.AddIDs) + len(d.UpdIDs) + len(d.RemIDs))
	for _, c := range d.AddCols {
		n += 8 * len(c)
	}
	for _, c := range d.UpdCols {
		n += 8 * len(c)
	}
	if d.AggChanged {
		n += 8
	}
	n += 16 * len(d.Top)
	return int64(n)
}

func (d *Delta) reset(s *Sub, tick int64) {
	d.Sub, d.Class, d.Tick = s.id, s.cs.name, tick
	d.Resync = false
	d.AddIDs = d.AddIDs[:0]
	d.UpdIDs = d.UpdIDs[:0]
	d.RemIDs = d.RemIDs[:0]
	// One column buffer per payload attribute, carved from the registry's
	// widest-payload retention.
	for len(d.addCols) < len(s.payload) {
		d.addCols = append(d.addCols, nil)
		d.updCols = append(d.updCols, nil)
	}
	d.AddCols = d.addCols[:len(s.payload)]
	d.UpdCols = d.updCols[:len(s.payload)]
	for i := range d.AddCols {
		d.AddCols[i] = d.AddCols[i][:0]
		d.UpdCols[i] = d.UpdCols[i][:0]
	}
	d.AggChanged = false
	d.Agg = 0
	d.Top = d.Top[:0]
	d.changed = false
}

// Sub is one live subscription.
type Sub struct {
	id  SubID
	def Def
	cs  *classState

	sh      *predShape // shared canonical predicate shape
	consts  []float64  // per-subscription constants, in slot order
	frame   []value.Value
	payload []int // payload attr indices (Select)
	aggAttr int   // Sum/TopK attr index; -1 otherwise

	// cols is reads ∪ payload ∪ aggAttr: the columns whose stillness (plus
	// an unchanged structure version) makes skipping the subscription
	// entirely sound.
	cols  []int
	fresh bool // force rescan + Resync delta on next Apply

	// Subscription-index membership (subindex.go): the shape group and the
	// slot inside it, or why the subscription stays on the per-sub path.
	grp    *subGroup
	slot   int32
	whyNot string
	queued uint64 // Apply sequence the sub joined the worklist in
	path   uint8  // this Apply's rung (apply.go), set before the maintain fan-out
	resync bool   // this Apply rescans it from scratch and emits a Resync

	members []value.ID // current matching ids, ascending

	agg float64
	top []TopEntry
}

// ID returns the subscription's registry id.
func (s *Sub) ID() SubID { return s.id }

// Def returns the subscription as declared.
func (s *Sub) Def() Def { return s.def }

// Stable reports whether the predicate is delta-maintainable; when false,
// Reasons explains why every tick rescans.
func (s *Sub) Stable() bool { return s.sh.stable }

// Reasons returns the stability analysis's why-reasons (nil when Stable).
func (s *Sub) Reasons() []string { return s.sh.reasons }

// Indexed reports whether the subscription sits in a subscription index —
// its predicate is a box in slot space, so touched rows find it by probe
// instead of it filtering every touched row. When false, IndexReason says
// what keeps it on the per-subscription path. (Whether an indexed group is
// actually probed on a given tick is the cost model's call;
// ExecCounters.ViewIndexProbes shows it.)
func (s *Sub) Indexed() bool { return s.grp != nil }

// IndexReason explains why the subscription is not indexed ("" when it is).
func (s *Sub) IndexReason() string { return s.whyNot }

// Members returns a copy of the current matching ids, ascending.
func (s *Sub) Members() []value.ID {
	out := make([]value.ID, len(s.members))
	copy(out, s.members)
	return out
}

// Agg returns the current aggregate value (Count/Sum).
func (s *Sub) Agg() float64 { return s.agg }

// Top returns a copy of the current TopK ranking.
func (s *Sub) Top() []TopEntry {
	out := make([]TopEntry, len(s.top))
	copy(out, s.top)
	return out
}

// predShape is one canonical predicate shape, shared by every subscription
// whose predicate canonicalizes to the same key: the canonicalized AST, its
// analysis and its compiled evaluator.
type predShape struct {
	key      string
	pred     ast.Expr // canonicalized predicate (constants → frame slots)
	reads    []int    // predicate state reads
	stable   bool
	reasons  []string
	prog     *vexpr.Prog // shared kernel; nil → scalarFn
	scalarFn expr.Fn     // scalar fallback / unstable-predicate evaluator
}

// classState is the registry's per-class maintenance state: the drained
// changefeed, candidate lanes shared by every subscription on the class,
// the subscription index groups and the last-applied image they probe from.
type classState struct {
	name string
	cls  *schema.Class
	tab  *table.Table
	slow []*Sub // the non-indexed ones, ascending SubID: walked every Apply

	// Drained feed, copied out of engine scratch each Apply.
	rows    []int32
	killed  []value.ID
	resync  bool
	drained bool

	// Column/structure versions as of the previous Apply, and which of them
	// moved since: the version-skip rung is a per-class fact (every
	// subscription's cached versions equal the previous Apply's), so it is
	// computed once here instead of stored per subscription.
	lastStruct    uint64
	lastColVer    []uint64
	colChanged    []bool
	structChanged bool
	versValid     bool

	// Candidate lanes over rows, built lazily per Apply: gathered payload
	// lanes for gatherCols (attr-indexed), the candidate id lane, and the
	// ids as values. gatherRef counts the subscriptions watching each
	// column; gatherCols lists the watched ones ascending.
	gatherRef  []int
	gatherCols []int
	lanes      [][]float64
	idLane     []float64
	candIDs    []value.ID
	lanesBuilt bool
	idsBuilt   bool

	// Per Apply as well: the candidates' indexes in id order (the delta
	// path's merge order), and per row the sequence of the last Apply that
	// had it as a candidate (the rescan diff's update test).
	order   []int32
	stamp   []uint64
	ordered bool
	stamped bool

	grids map[[2]int]*dataGrid // box rescans' data grids, by attribute pair

	// Subscription index (subindex.go).
	groups    map[string]*subGroup
	groupList []*subGroup
	image
}

// Registry maintains every subscription of one engine world. Not
// goroutine-safe: Apply must be called between ticks from the goroutine
// driving the world, the same discipline as engine.World itself. Apply
// spreads its work over the world's worker pool and returns after it.
type Registry struct {
	eng   *engine.World
	prog  *compile.Program
	costs plan.Costs

	nextID    SubID
	byID      map[SubID]*Sub
	classes   map[string]*classState
	classList []*classState
	indexed   int64 // subscriptions currently in an index group

	progCache map[string]*predShape

	// Per-Apply state, retained across Applies.
	seq      uint64      // Apply sequence number (worklist/event stamps)
	tick     int64       // the world tick the Apply maintains against
	work     []*Sub      // this Apply's worklist, sorted ascending SubID
	fresh    []*Sub      // indexed subs awaiting their first (resync) Apply
	workers  []*worker   // per pool worker: everything a fan-out task writes
	tasks    []probeTask // probe tasks; the first nTasks are this Apply's
	nTasks   int
	gridJobs []gridJob // data grid rebuilds run beside the probe tasks
	chunks   []chunk   // this Apply's maintain chunks, ascending SubID
	out      Delta     // the delta every logged one is replayed through

	// Method values bound once: binding per Apply would allocate.
	drainFn    func(engine.ClassDelta)
	queueFn    func(*Sub)
	probeFn    func(worker, i int)
	maintainFn func(worker, i int)

	// Last-Apply figures: totals over the workers, and the wall time of
	// the serial steps, the probe, the maintain and the emit.
	rescans    int64
	deltaBytes int64
	split      [4]time.Duration
	maxChunks  int // most maintain chunks any Apply cut
}

type idRow struct {
	id  value.ID
	row int32
}

// New builds a registry over an engine world and enables its changefeed.
func New(eng *engine.World, costs plan.Costs) *Registry {
	r := &Registry{
		eng:       eng,
		prog:      eng.Program(),
		costs:     costs,
		byID:      map[SubID]*Sub{},
		classes:   map[string]*classState{},
		progCache: map[string]*predShape{},
	}
	r.drainFn = r.copyFeed
	r.queueFn = r.queue
	r.probeFn = r.runProbe
	r.maintainFn = r.runChunk
	eng.EnableChangeFeed()
	return r
}

// Subscribe registers a subscription and returns its handle. The first
// Apply after Subscribe evaluates it from a full rescan and emits a Resync
// delta carrying the complete initial result.
func (r *Registry) Subscribe(def Def) (*Sub, error) {
	cp := r.prog.Classes[def.Class]
	if cp == nil {
		return nil, fmt.Errorf("views: unknown class %q", def.Class)
	}
	predSrc := def.Pred
	if strings.TrimSpace(predSrc) == "" {
		predSrc = "true"
	}
	e, err := parser.ParseExpr(predSrc)
	if err != nil {
		return nil, fmt.Errorf("views: predicate: %w", err)
	}
	ty, err := r.prog.Info.AnalyzeExpr(def.Class, e)
	if err != nil {
		return nil, fmt.Errorf("views: predicate: %w", err)
	}
	if ty.Kind != value.KindBool {
		return nil, fmt.Errorf("views: predicate must be boolean, got %v", ty.Kind)
	}
	s := &Sub{def: def, aggAttr: -1}
	r.compilePred(s, def.Class, e)

	switch def.Kind {
	case Select:
		for _, name := range def.Payload {
			i := cp.Class.StateIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("views: unknown payload attribute %s.%s", def.Class, name)
			}
			if cp.Class.State[i].Kind == value.KindSet {
				return nil, fmt.Errorf("views: payload attribute %s.%s is set-valued and has no columnar form", def.Class, name)
			}
			s.payload = append(s.payload, i)
		}
	case Count:
		if len(def.Payload) > 0 {
			return nil, fmt.Errorf("views: aggregate subscriptions carry no payload")
		}
	case Sum, TopK:
		if len(def.Payload) > 0 {
			return nil, fmt.Errorf("views: aggregate subscriptions carry no payload")
		}
		i := cp.Class.StateIndex(def.Attr)
		if i < 0 {
			return nil, fmt.Errorf("views: unknown aggregate attribute %s.%s", def.Class, def.Attr)
		}
		if cp.Class.State[i].Kind != value.KindNumber {
			return nil, fmt.Errorf("views: aggregate attribute %s.%s is not numeric", def.Class, def.Attr)
		}
		s.aggAttr = i
		if def.Kind == TopK && def.K <= 0 {
			return nil, fmt.Errorf("views: TopK needs K > 0")
		}
	default:
		return nil, fmt.Errorf("views: unknown subscription kind %d", def.Kind)
	}

	// Version-watched columns: predicate reads plus everything delivered.
	watched := make([]bool, len(cp.Class.State))
	for _, c := range s.sh.reads {
		watched[c] = true
	}
	for _, c := range s.payload {
		watched[c] = true
	}
	if s.aggAttr >= 0 {
		watched[s.aggAttr] = true
	}
	for c, w := range watched {
		if w {
			s.cols = append(s.cols, c)
		}
	}

	cs := r.classes[def.Class]
	if cs == nil {
		cs = &classState{
			name: def.Class, cls: cp.Class, tab: r.eng.ClassTable(def.Class),
			gatherRef: make([]int, len(cp.Class.State)),
			groups:    map[string]*subGroup{},
			grids:     map[[2]int]*dataGrid{},
		}
		r.classes[def.Class] = cs
		r.classList = append(r.classList, cs)
	}
	s.cs = cs
	s.fresh = true

	r.nextID++
	s.id = r.nextID
	r.byID[s.id] = s
	cs.watch(s.cols, +1)
	if s.whyNot = r.indexSub(s); s.whyNot != "" {
		cs.slow = append(cs.slow, s)
	} else {
		r.fresh = append(r.fresh, s)
	}
	return s, nil
}

// Unsubscribe removes a subscription.
func (r *Registry) Unsubscribe(id SubID) bool {
	s, ok := r.byID[id]
	if !ok {
		return false
	}
	delete(r.byID, id)
	cs := s.cs
	if s.grp != nil {
		r.unindexSub(s)
	} else {
		cs.slow = removeSub(cs.slow, s)
	}
	cs.watch(s.cols, -1)
	return true
}

// Subs returns the number of live subscriptions.
func (r *Registry) Subs() int { return len(r.byID) }

// Get returns a subscription by id.
func (r *Registry) Get(id SubID) (*Sub, bool) {
	s, ok := r.byID[id]
	return s, ok
}

// removeSub deletes s from an ascending-SubID list by binary search, and
// nils the vacated tail slot so the list does not keep the last *Sub
// reachable past its own removal.
func removeSub(subs []*Sub, s *Sub) []*Sub {
	i, ok := slices.BinarySearchFunc(subs, s.id, func(x *Sub, id SubID) int {
		return cmp.Compare(x.id, id)
	})
	if !ok {
		return subs
	}
	copy(subs[i:], subs[i+1:])
	subs[len(subs)-1] = nil
	return subs[:len(subs)-1]
}

// watch adjusts the per-column watcher counts by delta for one
// subscription's columns, relisting gatherCols only when a column gains its
// first or loses its last watcher.
func (cs *classState) watch(cols []int, delta int) {
	relist := false
	for _, c := range cols {
		was := cs.gatherRef[c] > 0
		cs.gatherRef[c] += delta
		if was != (cs.gatherRef[c] > 0) {
			relist = true
		}
	}
	if !relist {
		return
	}
	cs.gatherCols = cs.gatherCols[:0]
	for c, n := range cs.gatherRef {
		if n > 0 {
			cs.gatherCols = append(cs.gatherCols, c)
		}
	}
}

// Detach releases the engine before hibernation; Apply becomes a no-op
// until Attach. Subscription state (membership, aggregates) is retained so
// clients stay subscribed across the gap.
func (r *Registry) Detach() { r.eng = nil }

// Attach rebinds the registry to a (restored) engine world: tables and
// dictionaries are fresh objects, so every predicate kernel recompiles,
// every last-applied image is dropped and every subscription resyncs on
// the next Apply. The subscription indexes hold only the subscriptions'
// own constants and carry over untouched.
func (r *Registry) Attach(eng *engine.World) {
	r.eng = eng
	r.prog = eng.Program()
	eng.EnableChangeFeed()
	for _, w := range r.workers {
		w.mach = vexpr.Machine{}
	}
	clear(r.progCache)
	r.fresh = r.fresh[:0]
	for _, cs := range r.classList {
		cs.tab = eng.ClassTable(cs.name)
		cs.versValid = false
		cs.dropImage()
		cs.each(func(s *Sub) {
			if r.progCache[s.sh.key] != s.sh {
				s.sh.compile(r, cs.name)
			}
			s.fresh = true
			if s.grp != nil {
				r.fresh = append(r.fresh, s)
			}
		})
	}
}

// each visits every subscription on the class — the non-indexed ones and
// the index groups' members — in no particular order.
func (cs *classState) each(fn func(*Sub)) {
	for _, s := range cs.slow {
		fn(s)
	}
	for _, g := range cs.groupList {
		g.each(fn)
	}
}

// Attached reports whether the registry currently drives an engine.
func (r *Registry) Attached() bool { return r.eng != nil }

// InterestPred builds the rectangular predicate for a spatial
// interest-radius subscription: attrs within radius of center on every
// axis. The box's reach is validated through plan.InteractionRadius — the
// same bound the partitioned executor derives ghost margins from — so an
// unbounded region is rejected here rather than silently costing a
// whole-extent scan.
func InterestPred(attrs []string, center []float64, radius float64) (string, error) {
	if len(attrs) == 0 || len(attrs) != len(center) {
		return "", fmt.Errorf("views: interest needs one center coordinate per attribute")
	}
	lo := make([]float64, len(attrs))
	hi := make([]float64, len(attrs))
	for i, c := range center {
		lo[i], hi[i] = c-radius, c+radius
	}
	reachLo, reachHi := plan.InteractionRadius(center, lo, hi)
	if !plan.BoundedReach(reachLo, reachHi) {
		return "", fmt.Errorf("views: interest region is unbounded")
	}
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" && ")
		}
		fmt.Fprintf(&b, "%s >= %s && %s <= %s",
			a, strconv.FormatFloat(lo[i], 'g', -1, 64),
			a, strconv.FormatFloat(hi[i], 'g', -1, 64))
	}
	return b.String(), nil
}
