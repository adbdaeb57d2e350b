// Package sgl is the public API of this reproduction of "From Declarative
// Languages to Declarative Processing in Computer Games" (CIDR 2009): the
// SGL scripting language, its compiler to relational tick plans, the
// set-at-a-time main-memory execution engine, and the object-at-a-time
// baseline interpreter used for comparison.
//
// Quickstart:
//
//	game, err := sgl.Load(src)              // parse + check + compile
//	w, err := game.NewWorld(sgl.Options{})  // set-at-a-time engine
//	id, _ := w.Spawn("Unit", map[string]sgl.Value{"x": sgl.Num(3)})
//	err = w.Run(100)                        // 100 ticks
//	hp, _ := w.Get("Unit", id, "health")
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package sgl

import (
	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

// Re-exported core types. The engine and baseline worlds share spawn/kill,
// Get/SetState, Run/RunTick and PC methods, so most code is written against
// either interchangeably.
type (
	// Value is a dynamically typed SGL runtime value.
	Value = value.Value
	// ID identifies a game object.
	ID = value.ID
	// World is the set-at-a-time engine world.
	World = engine.World
	// BaselineWorld is the object-at-a-time interpreter world.
	BaselineWorld = baseline.World
	// Options configure engine execution (parallelism, plan forcing,
	// scalar vs vectorized expression execution). Workers and Exec are
	// independent axes: Workers > 1 shards the effect phase, update rules
	// and handlers across a worker pool, and vectorized phases run their
	// batch kernels per shard. End states are bit-identical across worker
	// counts and Exec modes. See README's options table.
	Options = engine.Options
	// Strategy selects a physical accum-join strategy.
	Strategy = plan.Strategy
	// ExecMode selects scalar closure vs vectorized batch expression
	// execution (see Options.Exec).
	ExecMode = plan.ExecMode
	// JoinMode selects scalar vs batch-gathered accum-join execution
	// (see Options.Join).
	JoinMode = plan.JoinMode
	// TxnMode selects serial vs batched transaction admission
	// (see Options.Txn).
	TxnMode = plan.TxnMode
	// PartitionStrategy selects the shared-nothing partition layout
	// (see Options.Partitions / Options.Partition).
	PartitionStrategy = plan.PartitionStrategy
	// UpdateComponent is a non-scripted owner of state attributes
	// (physics, pathfinding, ...; §2.2 of the paper).
	UpdateComponent = engine.UpdateComponent
	// UpdateCtx is the update-step view handed to components.
	UpdateCtx = engine.UpdateCtx
	// TxnPolicy decides which atomic transactions commit (§3.1).
	TxnPolicy = engine.TxnPolicy
	// Txn is a collected transaction intent.
	Txn = engine.Txn
	// Inspector observes tick boundaries (§3.3).
	Inspector = engine.Inspector
	// TraceFn observes effect emissions (§3.3).
	TraceFn = engine.TraceFn
)

// Physical strategies for accum joins (see Options.Strategy).
const (
	Auto           = plan.Auto
	NestedLoop     = plan.NestedLoop
	GridIndex      = plan.GridIndex
	RangeTreeIndex = plan.RangeTreeIndex
	HashIndex      = plan.HashIndex
)

// Execution modes for per-row expression work (see Options.Exec). The
// default ExecVectorized runs numeric-only rules and simple effect phases
// as columnar batch kernels instead of per-object closures wherever they
// compiled; ExecScalar forces the closures. With Options.Workers > 1 the
// kernels additionally run shard-parallel across the worker pool.
const (
	ExecVectorized = plan.ExecVectorized
	ExecScalar     = plan.ExecScalar
)

// Join-execution modes for accum joins (see Options.Join). The default
// JoinBatched batches every site with an analyzed join: candidate rows are
// gathered through the index in bulk, the join predicate is re-checked over
// raw columns instead of re-interpreting the loop body, and single-emission
// contributions fold through batch kernels. JoinScalar forces the
// interpreted loop body.
const (
	JoinBatched = plan.JoinBatched
	JoinScalar  = plan.JoinScalar
)

// Transaction-admission modes (§3.1; see Options.Txn). The default
// TxnBatched admits a tick's transactions through the batched driver
// whenever every atomic block among them is analyzable: conflict-free
// transactions validate whole-batch through vexpr constraint kernels, true
// conflict groups replay serially (fanned across the worker pool, routed
// partition-locally when partitioned execution is active). TxnScalar forces
// the serial loop. Every mode, worker count and partition count produces
// bit-identical admission outcomes under every policy.
const (
	TxnBatched = plan.TxnBatched
	TxnScalar  = plan.TxnScalar
)

// Partition layouts for shared-nothing partitioned execution (§4.2; see
// Options.Partitions). The default PartitionAuto picks the spatial layout
// with the least modeled ghost volume; PartitionStripes cuts 1-D stripes
// along the first position axis, PartitionGrid a 2-D grid over both, and
// PartitionHash spreads objects by id — the communication-oblivious
// strawman whose full replication E11 quantifies. Every layout and
// partition count produces bit-identical worlds; only the message, ghost
// and balance accounting differs.
const (
	PartitionAuto    = plan.PartitionAuto
	PartitionStripes = plan.PartitionStripes
	PartitionGrid    = plan.PartitionGrid
	PartitionHash    = plan.PartitionHash
)

// Value constructors.
var (
	// Num builds a number value.
	Num = value.Num
	// Bool builds a boolean value.
	Bool = value.Bool
	// Str builds a string value.
	Str = value.Str
	// Ref builds a reference value.
	Ref = value.Ref
	// NullRef is the null reference.
	NullRef = value.NullRef
	// NullID is the null object id.
	NullID = value.NullID
)

// Game is a loaded SGL program: schema, analysis results and compiled tick
// plans. One Game can instantiate any number of worlds.
type Game struct {
	info *sem.Info
	prog *compile.Program
}

// Load parses, type-checks and compiles SGL source.
func Load(src string) (*Game, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(p)
	if err != nil {
		return nil, err
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		return nil, err
	}
	return &Game{info: info, prog: prog}, nil
}

// NewWorld instantiates the set-at-a-time engine.
func (g *Game) NewWorld(opts Options) (*World, error) {
	return engine.New(g.prog, opts)
}

// NewBaseline instantiates the object-at-a-time interpreter over the same
// program.
func (g *Game) NewBaseline() *BaselineWorld {
	return baseline.New(g.info)
}

// Explain renders the relational-algebra view of a class's compiled plan.
func (g *Game) Explain(class string) string {
	cp, ok := g.prog.Classes[class]
	if !ok {
		return ""
	}
	return compile.Explain(cp)
}

// Source renders the program back to canonical SGL.
func (g *Game) Source() string { return ast.Print(g.info.Program) }

// Info exposes the semantic-analysis results (schema, annotated AST) for
// tools such as the compiler CLI and the reactive condition compiler.
func (g *Game) Info() *sem.Info { return g.info }

// Classes lists the declared class names in order.
func (g *Game) Classes() []string {
	var out []string
	for _, c := range g.info.Schema.Classes() {
		out = append(out, c.Name)
	}
	return out
}

// NewPhysics2D returns the built-in physics update component (§2.2); it
// owns the named position/velocity attributes of a class. See package
// physics for configuration.
var NewPhysics2D = physics.New2D
