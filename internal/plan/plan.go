// Package plan names the physical plans of §4.1 and the execution modes of
// the engine: the access path of each accum join (nested-loop scan, uniform
// grid, orthogonal range tree, hash), the exec/join/txn/view modes with
// their reference arms, and the partition layouts with their geometry. Every
// choice is a rule: the engine indexes each join by its predicate's shape
// (two bounded range dimensions take the grid, other ranges the range tree,
// equality keys the hash index, and anything else the nested loop), and
// ChoosePartition factors a layout by its cut length.
package plan

import "fmt"

// Strategy names a physical execution strategy for an accum join.
type Strategy uint8

const (
	// Auto indexes each join by its predicate's shape (the default).
	Auto Strategy = iota
	// NestedLoop scans the whole source extent per probing row.
	NestedLoop
	// GridIndex probes a per-tick uniform grid (2-D ranges only).
	GridIndex
	// RangeTreeIndex probes a per-tick orthogonal range tree.
	RangeTreeIndex
	// HashIndex probes a per-tick hash table (equality joins).
	HashIndex
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case NestedLoop:
		return "nested-loop"
	case GridIndex:
		return "grid"
	case RangeTreeIndex:
		return "range-tree"
	case HashIndex:
		return "hash"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ExecMode selects how per-row expression work (update rules and simple
// effect-phase scripts) is executed: through the vectorized batch kernels
// of package vexpr that stream whole column slices set-at-a-time (the
// default), or through the scalar closure evaluator of package expr.
type ExecMode uint8

const (
	// ExecVectorized runs every phase and update rule that compiled to
	// kernels as kernels (the default); the rest runs scalar.
	ExecVectorized ExecMode = iota
	// ExecScalar forces the closure evaluator everywhere: the reference
	// arm of the differential walls.
	ExecScalar
)

func (m ExecMode) String() string {
	switch m {
	case ExecVectorized:
		return "vectorized"
	case ExecScalar:
		return "scalar"
	default:
		return fmt.Sprintf("exec(%d)", uint8(m))
	}
}

// JoinMode selects how accum-join matches execute: through the batched
// driver that gathers candidate rows, re-checks the split predicate and
// folds contributions columnar (the default), or through the scalar
// interpreted loop body.
type JoinMode uint8

const (
	// JoinBatched runs every site with an analyzed join through the batched
	// driver (the default); general-form accums still run scalar.
	JoinBatched JoinMode = iota
	// JoinScalar forces the interpreted per-match body everywhere.
	JoinScalar
)

func (m JoinMode) String() string {
	switch m {
	case JoinBatched:
		return "batched"
	case JoinScalar:
		return "scalar"
	default:
		return fmt.Sprintf("join(%d)", uint8(m))
	}
}

// TxnMode selects how transaction admission (§3.1) executes: through the
// batched driver that groups conflict-independent transactions, validates
// the independent ones whole-batch against a columnar tentative view, and
// fans true conflict groups out across the worker pool (the default), or
// through the serial object-at-a-time greedy loop.
type TxnMode uint8

const (
	// TxnBatched admits a batch through the batched driver whenever every
	// transaction's atomic block is analyzable (the default); otherwise the
	// batch falls back to the serial loop.
	TxnBatched TxnMode = iota
	// TxnScalar forces the serial per-transaction greedy loop.
	TxnScalar
)

func (m TxnMode) String() string {
	switch m {
	case TxnBatched:
		return "batched"
	case TxnScalar:
		return "scalar"
	default:
		return fmt.Sprintf("txn(%d)", uint8(m))
	}
}

// ViewMode selects how a client subscription view (internal/views) is
// brought up to date for one tick: by filtering the tick's changed-row
// candidates through the subscription's mask kernel (delta maintenance), or
// by re-evaluating the predicate over the whole class extent (rescan).
type ViewMode uint8

const (
	// ViewAuto maintains from the changefeed and places box-shaped
	// predicates in a subscription index that the touched rows probe (the
	// default).
	ViewAuto ViewMode = iota
	// ViewDelta forces incremental maintenance from the changefeed with the
	// subscription kept out of the index: the per-subscription arm the
	// index probe is checked against.
	ViewDelta
	// ViewRescan forces a full-extent re-evaluation every tick — the naive
	// per-client path and the differential reference for delta maintenance.
	ViewRescan
)

func (m ViewMode) String() string {
	switch m {
	case ViewAuto:
		return "auto"
	case ViewDelta:
		return "delta"
	case ViewRescan:
		return "rescan"
	default:
		return fmt.Sprintf("view(%d)", uint8(m))
	}
}

// Costs has no fields: no decision reads a cost constant. Join access paths
// follow their predicate's shape, view maintenance takes the delta path and
// probes every ready index group, the hibernation horizon grows with a
// world's row count, and partition layouts are plain geometry.
type Costs struct{}

// DefaultCosts returns the empty Costs. It is kept only for the benchmark
// module's views.New(w, plan.DefaultCosts()) call, which views.New ignores.
func DefaultCosts() Costs { return Costs{} }
