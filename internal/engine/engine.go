// Package engine executes compiled SGL programs with the state-effect tick
// cycle of §2: a query/effect phase in which scripts read frozen state and
// emit effect contributions set-at-a-time, a transaction-admission step
// (§3.1), an update step in which strictly partitioned update components
// compute new state (§2.2), and a reactive-handler step that arms effects
// for the next tick (§3.2). Accum-loop joins are executed through per-tick
// spatial/hash indexes chosen per site by the join predicate's shape (§4.1,
// §4.2).
package engine

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// Options configure a World.
type Options struct {
	// Workers caps the worker pool of the sharded tick driver (effect
	// phase, update rules, reactive handlers); 0 or 1 runs every pass as one
	// shard on the calling goroutine. A pass splits into min(Workers,
	// batch-aligned shards) row shards, so an extent of one vexpr batch or
	// less runs inline regardless of Workers. End states are bit-identical
	// across worker counts: shards log their emissions and the logs replay
	// in row order.
	Workers int
	// Strategy forces a single physical strategy for every accum join that
	// can run it. The default (plan.Auto) gives each site the index its
	// predicate's shape names: grid, range tree, hash or nested loop.
	Strategy plan.Strategy
	// Exec selects scalar closure vs vectorized batch execution for update
	// rules and simple effect phases. The default (plan.ExecVectorized)
	// runs a phase as kernels when it compiled to kernels, its accum sites
	// all hoist, no tracer is installed and some live row is at it; update
	// rules that compiled run as kernels whenever the class has live rows.
	// plan.ExecScalar forces the closure evaluator. Exec and Workers
	// compose: within each shard, vectorized phases run their kernels over
	// the shard's lanes and every other row runs the scalar row loop. End
	// states are bit-identical across Exec modes and worker counts.
	Exec plan.ExecMode
	// Join selects how accum-join matches execute: the interpreted per-match
	// loop body (plan.JoinScalar), or the batched driver (plan.JoinBatched)
	// that gathers candidate rows through the index's row probe, re-checks
	// the split predicate over raw columns and — for single-emission bodies
	// over columnar payloads — folds contributions through batch kernels.
	// The default (plan.JoinBatched) batches every site the compiler gave a
	// batch analysis. Both paths produce bit-identical results.
	Join plan.JoinMode
	// Partitions > 0 enables shared-nothing partitioned execution (§4.2):
	// each class extent splits into spatial partitions and every partition
	// is one shard of the tick driver — vectorized phases, scalar rows,
	// batched joins over its own partition-local indexes — over its owned
	// rows plus read-only ghost replicas of neighbor rows within the
	// scripts' derived interaction radius. Cross-partition effects and
	// boundary migrations are staged as messages, merged deterministically
	// in (partition, row) order, so any partition count produces
	// bit-identical state to Partitions: 1. Workers composes: partitions fan
	// out across the worker pool. 0 disables partitioning (shards are then
	// plain row ranges of the whole extent).
	Partitions int
	// Partition picks the partitioning layout (plan.PartitionAuto by
	// default: the least-cut-length spatial layout; stripes, grid and the
	// communication-oblivious hash strawman can be forced).
	Partition plan.PartitionStrategy
	// PartitionBy optionally designates the position attributes (1 or 2
	// numeric state attrs, e.g. {"Boid": {"x", "y"}}) each class partitions
	// over. Classes not listed infer axes from their compiled join range
	// predicates, then from attrs named x/y; classes with no spatial axes
	// at all are spread by id hash.
	PartitionBy map[string][]string
	// Txn selects how transaction admission (§3.1) executes: the serial
	// object-at-a-time greedy loop (plan.TxnScalar), or the batched driver
	// (plan.TxnBatched) that groups conflict-independent transactions,
	// validates the independent ones whole-batch against a columnar
	// tentative view through vexpr constraint kernels, and fans true
	// conflict groups out across the worker pool. The default
	// (plan.TxnBatched) batches a tick's transactions whenever every one
	// has an analyzable atomic site, and falls back to the serial loop
	// otherwise. Every mode, worker count and
	// partition count produces bit-identical admission outcomes — commit/
	// abort sets and effect-buffer contents — to the serial loop.
	Txn plan.TxnMode
	// DisableStats turns off runtime statistics collection (experiment E8).
	DisableStats bool
}

// World is a running game: tables for every class, compiled plans, effect
// buffers, update components and the tick loop.
type World struct {
	prog    *compile.Program
	classes map[string]*classRT
	order   []*classRT

	// compiled is the immutable compilation this world was instantiated
	// from — possibly shared with many sibling worlds (the many-world
	// server's plan cache).
	compiled *Compiled

	// arena is the per-tick execution arena (kernel machine + index build
	// arenas): owned when arenaPool is nil, otherwise checked out of the
	// shared pool at tick start and returned at tick end. See arena.go.
	arena     *Arena
	arenaPool *ArenaPool

	// uctx is the pooled update context, re-armed per component.
	uctx *UpdateCtx

	// ai is the program's unified static analysis (internal/analysis):
	// read/write sets, fold classification, structural vectorizability,
	// constraint stability and join partitionability. Every build-time
	// physical-plan decision below routes through it.
	ai *analysis.Result

	comps      []UpdateComponent
	compByName map[string]UpdateComponent
	interrupts []interrupt
	txnPolicy  TxnPolicy

	tick   int64
	nextID value.ID
	inTick bool

	pendingSpawn []pendingSpawn
	pendingKill  []pendingKill

	sites         []*siteRT
	siteIndex     map[*compile.AccumStep]*siteRT
	siteBuildList []*siteRT // per-tick rebuild worklist, reused
	oneSegment    bool      // no joinWindow hoisting: the differential tests' reference arm
	opts          Options

	txns []*Txn

	// txnSites holds the per-atomic-block admission analysis (constraint
	// kernels, conflict read sets, tentative-view requirements); txnrt is
	// the retained scratch of the batched admission driver. See txnsite.go
	// and txnbatch.go.
	txnSites map[*compile.AtomicStep]*txnSite
	txnrt    txnRuntime

	tracer     TraceFn
	inspectors []Inspector

	// The sharded tick driver's retained state (shard.go): the pass in
	// flight, per-worker execution state, per-shard sinks and the merge's
	// scratch. runShardFn is the pre-bound runShard method value, so a
	// fan-out allocates no closure per pass; pool is the fan-out's own
	// retained state (runPool).
	pool       workPool
	pass       classPass
	slots      []*workerSlot
	sinks      []*shardSink
	shardBuf   []shard
	mergeRows  [][]int32
	mergeIdx   []int
	runShardFn func(slot, si int)

	// parts is the shared-nothing partitioned-execution state (nil unless
	// Options.Partitions > 0); see partition.go.
	parts *partWorld

	// dict is the world-wide string dictionary: one shared interning space,
	// so codes are comparable across columns, tables and compiled literals.
	// It is what lets string ==/!= predicates and string-valued emissions
	// run through numeric kernels instead of falling back to closures.
	dict *table.Dict

	// execStats tallies which execution path ran.
	execStats stats.ExecCounters

	// gatherFn is the pre-bound gatherState method value; binding it once
	// keeps per-tick kernel environment setup allocation-free.
	gatherFn func(class string, attrIdx int, refs, out []float64, zero float64)
}

type pendingSpawn struct {
	class string
	id    value.ID
	init  map[string]value.Value
}

type pendingKill struct {
	class string
	id    value.ID
}

type interrupt struct {
	class string
	cond  func(w *World, id value.ID) bool
	phase int
}

// TraceFn observes effect emissions for debugging (§3.3). It runs inline;
// keep it cheap or filter by id.
type TraceFn func(tick int64, srcClass string, src value.ID, dstClass string, dst value.ID, attr string, v value.Value)

// Inspector receives tick life-cycle callbacks (§3.3).
type Inspector interface {
	TickStart(w *World, tick int64)
	TickEnd(w *World, tick int64)
}

// classRT is the runtime of one class: its columnar table (state attrs plus
// a hidden pc column), effect accumulators and compiled plan.
type classRT struct {
	name  string
	cls   *schema.Class
	plan  *compile.ClassPlan
	tab   *table.Table
	pcCol int

	// vec holds the class's batch-kernel plan, or nil when nothing about
	// the class is vectorizable.
	vec *vecClassProgs

	// hoist lists the class's accum sites joinWindow can probe once per
	// batch of probing rows (siteBatch.hoist); siteRT.hoistIdx indexes it.
	hoist []*siteRT

	// countsBuf and vecSelBuf are per-tick scratch for the effect-phase
	// exec decision.
	countsBuf []int
	vecSelBuf []bool

	// fx[ai] is effect attr ai's per-tick buffer, dense over physical rows.
	fx []combinator.Column

	// prt is the class's shared-nothing partitioning state (nil until the
	// first partitioned tick measures the layouts; see partition.go).
	prt *partClass

	// hasRule[i] is true when state attr i has an expression update rule.
	hasRule []bool

	// ai is the class's slice of the program analysis.
	ai *analysis.Class

	// Batched-admission scratch (txnbatch.go), all generation-stamped so
	// nothing is cleared between admissions. txnRowClaim counts the
	// transactions touching a physical row (gen<<2 | claim state);
	// txnRowOwner maps a shared row to the transaction that last claimed it
	// during conflict grouping; txnViewCols holds the columnar tentative
	// post-update view per state attr, built over txnEnv (txnIDs: the row
	// ids, for rules that read them); txnFxGen marks which dense effect
	// vectors in fxVecs are fresh for the current admission pass.
	txnRowClaim []uint64
	txnRowOwner []int32
	txnViewCols [][]float64
	txnViewGen  []uint64
	txnFxGen    []uint64
	txnEnv      vexpr.Env
	txnIDs      []float64

	// stage holds this update step's next-epoch columns, one per state
	// attr; effectZero is the cached expr.Ctx.EffectZero callback.
	stage      []stageCol
	effectZero func(int) value.Value

	// fxVecs[ai] is effect attr ai's dense result-payload vector (bindFxVec).
	fxVecs [][]float64

	// vlog accumulates the class's state changes for the subscription-view
	// changefeed (nil until EnableChangeFeed; see changefeed.go).
	vlog *changeLog
}

// stageCol is the update step's next-epoch column of one state attribute,
// dense over physical rows and reset at the start of every update step, so
// a tick that failed before the commit leaves nothing behind. Number, bool
// and ref attributes stage unboxed payloads in num, written by kernel rules,
// closure rules and components alike; string and set attributes (boxed)
// stage vals. Rule passes and ClassCols.Stage fill every live row (full);
// UpdateCtx.Stage lists the cells it writes in rows.
type stageCol struct {
	boxed bool
	num   []float64
	vals  []value.Value
	full  bool
	rows  []int32
}

func (c *stageCol) ensure(capacity int) {
	if c.boxed {
		c.vals = append(c.vals, make([]value.Value, max(0, capacity-len(c.vals)))...)
	} else {
		c.num = append(c.num, make([]float64, max(0, capacity-len(c.num)))...)
	}
}

// New builds a World for a compiled program: a one-world convenience that
// compiles and instantiates in one step. Many-world callers Compile once and
// call NewFromCompiled per world.
func New(prog *compile.Program, opts Options) (*World, error) {
	return NewFromCompiled(Compile(prog), opts)
}

// NewFromCompiled instantiates a World over a shared compilation. Only the
// mutable half is built here — tables, effect accumulators, per-world site
// and scratch state; kernels, plans and analyses come from c by reference.
// Safe to call concurrently on the same Compiled.
func NewFromCompiled(c *Compiled, opts Options) (*World, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	w := &World{
		prog:       c.prog,
		compiled:   c,
		ai:         c.ai,
		classes:    make(map[string]*classRT),
		compByName: make(map[string]UpdateComponent),
		siteIndex:  make(map[*compile.AccumStep]*siteRT),
		opts:       opts,
		nextID:     1,
		dict:       c.dict,
	}
	w.gatherFn = w.gatherState
	w.runShardFn = w.runShard
	w.pool.worker = w.pool.poolWorker
	if !opts.DisableStats {
		w.execStats.FusedOps = c.fusedOps
	}
	for _, cc := range c.order {
		rt := &classRT{
			name:    cc.name,
			cls:     cc.cls,
			plan:    cc.plan,
			tab:     table.NewWithDict(cc.name, cc.cols, c.dict),
			pcCol:   len(cc.cls.State),
			ai:      cc.ai,
			hasRule: cc.hasRule,
			stage:   make([]stageCol, len(cc.cls.State)),
		}
		for i, a := range cc.cls.State {
			rt.stage[i].boxed = a.Kind == value.KindString || a.Kind == value.KindSet
		}
		rt.effectZero = func(attrIdx int) value.Value {
			e := rt.cls.Effects[attrIdx]
			return value.Zero(e.Comb.ResultKind(e.Kind))
		}
		for _, e := range cc.cls.Effects {
			rt.fx = append(rt.fx, combinator.NewColumn(e.Comb, e.Kind))
		}
		if cc.vec != nil {
			rt.vec = cc.vec
		}
		w.classes[cc.name] = rt
		w.order = append(w.order, rt)
	}
	// Register the implicit expression-rule component and validate the
	// strict ownership partition (§2.2).
	if err := w.validateOwnership(); err != nil {
		return nil, err
	}
	w.collectSites()
	w.collectTxnSites()
	w.txnrt.init(w)
	if err := w.initPartitions(); err != nil {
		return nil, err
	}
	return w, nil
}

// validateOwnership ensures no state attribute has both a rule and an
// owner, and records which attrs are unowned (carry-over).
func (w *World) validateOwnership() error {
	for _, rt := range w.order {
		for _, u := range rt.plan.Updates {
			name := rt.cls.State[u.AttrIdx].Name
			if owner, ok := rt.plan.OwnedBy[name]; ok {
				return fmt.Errorf("engine: class %s: attribute %s has both update rule and owner %q", rt.name, name, owner)
			}
		}
	}
	return nil
}

// Register adds an update component. Components must be registered before
// the first tick and must own only attributes declared `by <name>`.
func (w *World) Register(c UpdateComponent) error {
	name := c.Name()
	if _, dup := w.compByName[name]; dup {
		return fmt.Errorf("engine: duplicate update component %q", name)
	}
	for _, rt := range w.order {
		for attr, owner := range rt.plan.OwnedBy { //sglvet:allow maprange: validation only, first-error choice is not state
			if owner != name {
				continue
			}
			if rt.cls.StateIndex(attr) < 0 {
				return fmt.Errorf("engine: component %q claims unknown attribute %s.%s", name, rt.name, attr)
			}
		}
	}
	w.comps = append(w.comps, c)
	w.compByName[name] = c
	return nil
}

// MissingOwners returns "class.attr" strings whose declared owner component
// has not been registered; ticking with missing owners is an error. Attrs
// report in declaration order, not map order.
func (w *World) MissingOwners() []string {
	var out []string
	for _, rt := range w.order {
		for _, a := range rt.cls.State {
			owner, owned := rt.plan.OwnedBy[a.Name]
			if !owned {
				continue
			}
			if _, ok := w.compByName[owner]; !ok {
				out = append(out, rt.name+"."+a.Name+" (by "+owner+")")
			}
		}
	}
	return out
}

// RegisterInterrupt installs a reactive interrupt: after each update step,
// if cond holds for an object of the class, its program counter is reset to
// phase (§3.2's interruptible intentions).
func (w *World) RegisterInterrupt(class string, cond func(w *World, id value.ID) bool, phase int) error {
	rt, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("engine: unknown class %q", class)
	}
	if phase < 0 || phase >= rt.plan.NumPhases {
		return fmt.Errorf("engine: class %s has %d phases; cannot interrupt to %d", class, rt.plan.NumPhases, phase)
	}
	w.interrupts = append(w.interrupts, interrupt{class: class, cond: cond, phase: phase})
	return nil
}

// SetTracer installs an effect-emission trace hook (§3.3). Pass nil to
// disable.
func (w *World) SetTracer(fn TraceFn) { w.tracer = fn }

// AddInspector attaches a tick-boundary inspector (§3.3).
func (w *World) AddInspector(i Inspector) { w.inspectors = append(w.inspectors, i) }

// Tick returns the current tick number (number of completed ticks).
func (w *World) Tick() int64 { return w.tick }

// PlanSwitches always returns 0: each accum site's strategy follows its
// predicate's shape and never switches. It is kept because the benchmark
// harness reads it.
func (w *World) PlanSwitches() int64 { return 0 }

// SiteStrategies reports each accum site's current physical strategy, for
// the debugger and the plan experiments.
func (w *World) SiteStrategies() []string {
	out := make([]string, 0, len(w.sites))
	for _, s := range w.sites {
		out = append(out, fmt.Sprintf("%s accum(phase %d) -> %s", s.class, s.phase, s.strategy))
	}
	return out
}

// Schema returns the program schema.
func (w *World) Schema() *schema.Schema { return w.prog.Info.Schema }

// Program returns the compiled program.
func (w *World) Program() *compile.Program { return w.prog }

// Spawn creates an object. Attribute defaults come from the class
// declaration; init overrides by name. Mid-tick spawns take effect at the
// next tick boundary.
func (w *World) Spawn(class string, init map[string]value.Value) (value.ID, error) {
	rt, ok := w.classes[class]
	if !ok {
		return value.NullID, fmt.Errorf("engine: unknown class %q", class)
	}
	for name := range init { //sglvet:allow maprange: membership validation only, no state mutated
		if rt.cls.StateIndex(name) < 0 {
			return value.NullID, fmt.Errorf("engine: class %s has no state attribute %q", class, name)
		}
	}
	id := w.nextID
	if id > table.MaxID {
		return value.NullID, fmt.Errorf("engine: spawn %s: object ids exhausted (bound %d)", class, table.MaxID)
	}
	w.nextID++
	if w.inTick {
		w.pendingSpawn = append(w.pendingSpawn, pendingSpawn{class: class, id: id, init: init})
		return id, nil
	}
	w.doSpawn(rt, id, init)
	return id, nil
}

func (w *World) doSpawn(rt *classRT, id value.ID, init map[string]value.Value) {
	vals := make([]value.Value, len(rt.cls.State)+1)
	for i, a := range rt.cls.State {
		v := a.Default
		if ov, ok := init[a.Name]; ok {
			if ov.Kind() != a.Kind {
				panic(fmt.Sprintf("engine: spawn %s: attribute %s wants %s, got %s", rt.name, a.Name, a.Kind, ov.Kind()))
			}
			v = ov
		}
		if a.Kind == value.KindSet {
			v = value.SetVal(v.AsSet().Clone())
		}
		vals[i] = v
	}
	vals[rt.pcCol] = value.Num(0)
	row := rt.tab.Insert(id, vals)
	if rt.vlog != nil {
		rt.vlog.noteSpawn(row, rt.tab.StructVersion())
	}
	for i := range rt.fx {
		rt.fx[i].Grow(rt.tab.Cap())
	}
}

// Kill removes an object. Mid-tick kills take effect at the next tick
// boundary.
func (w *World) Kill(class string, id value.ID) error {
	rt, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("engine: unknown class %q", class)
	}
	if w.inTick {
		w.pendingKill = append(w.pendingKill, pendingKill{class: class, id: id})
		return nil
	}
	rt.kill(id)
	return nil
}

// kill deletes id's row and empties the row's effect cells: handlers may
// have armed effects for the dead object, and the next object to take the
// row must not inherit them.
func (rt *classRT) kill(id value.ID) {
	row := rt.tab.Row(id)
	if row < 0 {
		return
	}
	rt.tab.Delete(id)
	for i := range rt.fx {
		rt.fx[i].ResetRow(row)
	}
	if rt.vlog != nil {
		rt.vlog.noteKill(id, rt.tab.StructVersion())
	}
}

// Count returns the number of live objects of a class.
func (w *World) Count(class string) int {
	if rt, ok := w.classes[class]; ok {
		return rt.tab.Len()
	}
	return 0
}

// IDs returns the live object ids of a class in storage order.
func (w *World) IDs(class string) []value.ID {
	if rt, ok := w.classes[class]; ok {
		return rt.tab.IDs()
	}
	return nil
}

// Get reads a state attribute.
func (w *World) Get(class string, id value.ID, attr string) (value.Value, bool) {
	rt, ok := w.classes[class]
	if !ok {
		return value.Value{}, false
	}
	return rt.tab.Get(id, attr)
}

// MustGet reads a state attribute, panicking when absent (test helper).
func (w *World) MustGet(class string, id value.ID, attr string) value.Value {
	v, ok := w.Get(class, id, attr)
	if !ok {
		panic(fmt.Sprintf("engine: no %s.%s for id %d", class, attr, id))
	}
	return v
}

// SetState directly assigns a state attribute outside of a tick (scenario
// setup and checkpoint restore only).
func (w *World) SetState(class string, id value.ID, attr string, v value.Value) error {
	if w.inTick {
		return fmt.Errorf("engine: SetState during a tick violates the state-effect pattern")
	}
	rt, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("engine: unknown class %q", class)
	}
	if rt.vlog != nil {
		if row := rt.tab.Row(id); row >= 0 {
			rt.vlog.mark(row)
		}
	}
	if !rt.tab.Set(id, attr, v) {
		return fmt.Errorf("engine: no %s.%s for id %d", class, attr, id)
	}
	return nil
}

// SetPC jumps an object's script to a phase between ticks — the resumption
// half of §3.2's interruptible intentions.
func (w *World) SetPC(class string, id value.ID, phase int) error {
	rt, ok := w.classes[class]
	if !ok {
		return fmt.Errorf("engine: unknown class %q", class)
	}
	if phase < 0 || phase >= rt.plan.NumPhases {
		return fmt.Errorf("engine: class %s has %d phases", class, rt.plan.NumPhases)
	}
	row := rt.tab.Row(id)
	if row < 0 {
		return fmt.Errorf("engine: no object %d", id)
	}
	rt.tab.SetAt(row, rt.pcCol, value.Num(float64(phase)))
	return nil
}

// PC returns the current phase of an object's script.
func (w *World) PC(class string, id value.ID) int {
	rt, row := w.lookup(class, id)
	if row < 0 {
		return -1
	}
	return int(rt.tab.At(row, rt.pcCol).AsNumber())
}

// lookup resolves an object to its class runtime and row: rt is nil for an
// unknown class, row -1 for an unknown class or a dead object.
func (w *World) lookup(class string, id value.ID) (*classRT, int) {
	rt, ok := w.classes[class]
	if !ok {
		return nil, -1
	}
	return rt, rt.tab.Row(id)
}

// StateValue implements expr.World over committed (tick-start) state.
func (w *World) StateValue(class string, id value.ID, attrIdx int) (value.Value, bool) {
	rt, row := w.lookup(class, id)
	if row < 0 {
		return value.Value{}, false
	}
	return rt.tab.At(row, attrIdx), true
}

// rowReader adapts a physical table row to expr.RowReader.
type rowReader struct {
	rt  *classRT
	row int
}

func (r rowReader) Attr(attrIdx int) value.Value { return r.rt.tab.At(r.row, attrIdx) }

// fxReader adapts a row's effect accumulators to expr.EffectReader.
type fxReader struct {
	rt  *classRT
	row int
}

func (r fxReader) EffectValue(attrIdx int) (value.Value, bool) {
	return r.rt.fx[attrIdx].Result(r.row)
}

// EffectValue returns the ⊕-combined effect contribution for an object this
// tick (valid during update components and inspectors).
func (w *World) EffectValue(class string, id value.ID, attr string) (value.Value, bool) {
	rt, row := w.lookup(class, id)
	if row < 0 {
		return value.Value{}, false
	}
	idx := rt.cls.EffectIndex(attr)
	if idx < 0 {
		return value.Value{}, false
	}
	return rt.fx[idx].Result(row)
}

// siteRT is the per-accum-site runtime: the grid's cell-size statistics,
// the compile-time batch plan, and the per-partition prepared indexes. A
// non-partitioned world (and every site the partitioned executor must treat
// whole-world, see partition.go) has exactly one sitePart; a partitioned
// world gives spatially analyzable sites one sitePart per partition, each
// indexing its owned rows plus the ghost replicas its probes can reach.
type siteRT struct {
	step  *compile.AccumStep
	class string // probing class
	phase int

	ord       int       // index in World.sites
	boxExtent stats.EMA // probe-box width, folded after each pass

	// batch is the compile-time analysis backing the batched join driver
	// (nil when the accum has no analyzed join).
	batch *siteBatch

	// Per-tick prepared execution state shared by all partitions.
	strategy plan.Strategy
	batched  bool // this tick's join-execution decision
	hoisted  bool // batched through joinWindow this tick
	hoistIdx int  // index in the probing class's hoist list

	srcAttrs []int // source attrs the join predicate indexes or keys

	// parts holds the per-partition build state; parts[0] doubles as the
	// whole-extent state outside partitioned execution. shared is set per
	// tick by the partitioned executor when the site cannot be spatially
	// restricted (unbounded predicate, computed source set, handler site,
	// hash layout): all partitions then probe parts[0] over the full extent.
	parts  []sitePart
	shared bool

	// reach[d] is this tick's derived interaction reach of range dimension
	// d around its anchor axis (partitioned execution only; see
	// deriveSiteReach). builtReach is the reach the current member views
	// reflect.
	reach        []dimReach
	builtReach   []dimReach
	builtReachOK bool
}

// sitePart is the prepared index state of one partition of one accum site:
// the member-row view (owned rows plus ghosts, ascending), the per-tick
// index over exactly those rows, and the retained build arena with its
// reuse bookkeeping.
type sitePart struct {
	// view holds the member rows this partition's probes may see; its
	// backing storage is rowsBuf, reused across ticks. Outside partitioned
	// execution the view is unused (the index covers the full extent).
	view    table.View
	rowsBuf []int32
	ghosts  int64 // members owned by another partition

	// Per-tick prepared index.
	tree boxProber
	hash *index.RowHash
	dims []int // range-dim attr indices

	// Retained build state: the arena all builds draw from (attached from
	// the world's per-tick Arena; nil between ticks when pooling), plus the
	// versions that tell whether last tick's index is still valid. An index
	// is only reusable while the builder it was built from is still
	// attached AND has not been rebuilt by another holder — builderValid
	// checks the recorded (builder, generation) pair.
	builder       *index.Builder
	builtBuilder  *index.Builder
	builtGen      uint64
	builtOK       bool
	builtStrategy plan.Strategy
	builtStruct   uint64
	builtVers     []uint64 // source-attr column versions at build time
	builtCell     float64  // grid cell size at build time
	builtAssign   uint64   // partition-assignment version at build time
	// builtMembers records the scope of the built index: member rows
	// (partition-local) vs the whole extent. A member-scoped index must
	// never serve whole-extent probes or vice versa — the maintenance
	// ladders check this on every spatial/shared transition.
	builtMembers bool
	// memberViewOK marks the member view's contents valid for builtAssign
	// and the site's builtReach (cleared whenever a shared pass overwrites
	// the view with the full extent).
	memberViewOK bool
}

// builderValid reports whether the indexes recorded at the last build still
// alias live builder memory: the same builder is attached and nobody else
// has built with it since.
func (pp *sitePart) builderValid() bool {
	return pp.builder != nil && pp.builder == pp.builtBuilder && pp.builder.Gen() == pp.builtGen
}

// boxProber is a spatial index (*index.Grid or *index.RangeTree); its
// resident size feeds the §4.2 partitioned-memory accounting.
type boxProber interface {
	EstimatedBytes() int
}

// collectSites walks all compiled plans and registers every accum site.
func (w *World) collectSites() {
	for _, rt := range w.order {
		var walk func(steps []compile.Step, phase int)
		walk = func(steps []compile.Step, phase int) {
			for _, s := range steps {
				switch s := s.(type) {
				case *compile.IfStep:
					walk(s.Then, phase)
					walk(s.Else, phase)
				case *compile.AtomicStep:
					walk(s.Body, phase)
				case *compile.AccumStep:
					site := &siteRT{
						step:      s,
						class:     rt.name,
						phase:     phase,
						ord:       len(w.sites),
						boxExtent: stats.NewEMA(0.3),
					}
					site.batch = w.compiled.batches[s]
					if site.batch != nil && site.batch.hoist {
						site.hoistIdx = len(rt.hoist)
						rt.hoist = append(rt.hoist, site)
					}
					site.parts = make([]sitePart, 1)
					if j := s.Join; j != nil {
						for _, r := range j.Ranges {
							site.srcAttrs = append(site.srcAttrs, r.AttrIdx)
						}
						for _, eq := range j.Eqs {
							site.srcAttrs = append(site.srcAttrs, eq.AttrIdx)
						}
						if j.Key != nil {
							site.srcAttrs = append(site.srcAttrs, j.Key.AttrIdx)
						}
					}
					w.sites = append(w.sites, site)
					w.siteIndex[s] = site
					walk(s.Body, phase)
					if s.Join != nil {
						walk(s.Join.Inner, phase)
					}
				}
			}
		}
		for p, steps := range rt.plan.Phases {
			walk(steps, p)
		}
		for _, h := range rt.plan.Handlers {
			walk(h.Body, -1)
		}
	}
}

// strategyFor returns the index an accum site's predicate shape names: the
// grid for two bounded range dimensions, the range tree for any other range
// join, the hash index for an equality-only join, and the nested loop for a
// computed source set or an unanalyzed body. A forced strategy is honored
// when the site can run it — the nested loop always, the range tree for a
// grid-shaped join — and otherwise falls back to the shape's.
func strategyFor(s *compile.AccumStep, forced plan.Strategy) plan.Strategy {
	shape := plan.NestedLoop
	if j := s.Join; s.SourceFn == nil && j != nil {
		switch {
		case len(j.Ranges) == 2 && bounded(j.Ranges[0]) && bounded(j.Ranges[1]):
			shape = plan.GridIndex
		case len(j.Ranges) >= 1:
			shape = plan.RangeTreeIndex
		case len(j.Eqs) >= 1:
			shape = plan.HashIndex
		}
	}
	if forced == plan.NestedLoop || forced == plan.RangeTreeIndex && shape == plan.GridIndex {
		return forced
	}
	return shape
}

func bounded(r compile.RangeDim) bool { return len(r.Lo) > 0 && len(r.Hi) > 0 }
