package vexpr

// Accum-gather compilation: the batched join executor collects the candidate
// rows one probing row matched, gathers the source columns those candidates
// touch into dense lanes, and folds the accum contribution columnar instead
// of interpreting the loop body once per match. In such a program the lane
// axis is "candidate of this probe", not "row of the executing class":
//
//   - `u.attr` (a field of the iteration variable) loads the gathered
//     candidate column for attr;
//   - `u` itself evaluates to the candidate id lane (Env.IDs);
//   - self attributes, locals and self() are scalars of the probing row that
//     produced the candidate, read from a per-candidate lane of Env.Slots
//     (the engine expands each probe's scalar along its candidates, so one
//     run can serve the candidates of many probes);
//   - fields of non-iter references still gather through Env.Gather.

import (
	"repro/internal/sgl/ast"
)

// BcastKind names where a broadcast scalar comes from on the probing row.
type BcastKind uint8

const (
	// BcastStateAttr broadcasts a state attribute of the probing row.
	BcastStateAttr BcastKind = iota
	// BcastSlot broadcasts a frame slot (let-bound local or outer iter
	// variable) of the probing row's evaluation context.
	BcastSlot
	// BcastSelfID broadcasts the probing row's object id.
	BcastSelfID
)

// BcastSrc is one probing-row scalar an accum program reads. The engine
// fills one Env.Slots lane per source, in this slice's order.
type BcastSrc struct {
	Kind BcastKind
	Idx  int // attr index (BcastStateAttr) or frame slot (BcastSlot)
}

// CompileAccum translates a type-checked accum contribution expression into
// a batch program over gathered candidate lanes. iterSlot is the frame slot
// of the iteration variable. On success it also reports the probing-row
// scalars to expand (in Env.Slots order) and the source-class state
// attributes whose columns must be gathered (Env.Cols indices). ok is false
// when the expression reads anything without a columnar payload.
func CompileAccum(e ast.Expr, iterSlot int) (p *Prog, bcast []BcastSrc, cols []int, ok bool) {
	return CompileAccumOpts(e, iterSlot, Opts{})
}

// CompileAccumOpts is CompileAccum with compilation options (dictionary
// string lanes, optimization control).
func CompileAccumOpts(e ast.Expr, iterSlot int, o Opts) (p *Prog, bcast []BcastSrc, cols []int, ok bool) {
	c := &compiler{iterSlot: iterSlot, dict: o.Dict}
	out := c.compile(e)
	if c.fail || out < 0 {
		return nil, nil, nil, false
	}
	return c.finish(out, o), c.bcast, c.cols, true
}

// compileAccumIdent is compileIdent under accum-gather lane semantics.
func (c *compiler) compileAccumIdent(e *ast.Ident) int {
	switch e.Bind.Kind {
	case ast.BindIter, ast.BindLocal:
		if e.Bind.Slot == c.iterSlot {
			// The iteration variable as a value: the candidate id lane.
			c.p.needIDs = true
			return c.emit(instr{op: opSelfID})
		}
		if e.Bind.Kind == ast.BindIter || !c.payloadOK(e.Ty.Kind) {
			return c.bail() // a different (outer) iter variable
		}
		return c.bcastReg(BcastSrc{Kind: BcastSlot, Idx: e.Bind.Slot})
	case ast.BindStateAttr:
		if !c.payloadOK(e.Ty.Kind) {
			return c.bail()
		}
		return c.bcastReg(BcastSrc{Kind: BcastStateAttr, Idx: e.Bind.AttrIdx})
	case ast.BindSelf:
		return c.bcastReg(BcastSrc{Kind: BcastSelfID})
	default: // BindEffectAttr, BindExtent, unresolved
		return c.bail()
	}
}

// bcastReg emits the lane load of a probing-row scalar, deduplicating
// identical sources.
func (c *compiler) bcastReg(src BcastSrc) int {
	idx := -1
	for i, b := range c.bcast {
		if b == src {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = len(c.bcast)
		c.bcast = append(c.bcast, src)
	}
	return c.emit(instr{op: opLoadSlot, attr: idx})
}

// useCol records a gathered candidate column dependency.
func (c *compiler) useCol(attr int) {
	for _, a := range c.cols {
		if a == attr {
			return
		}
	}
	c.cols = append(c.cols, attr)
}

// isIterIdent reports whether e is the iteration variable itself.
func isIterIdent(e ast.Expr, iterSlot int) bool {
	id, ok := e.(*ast.Ident)
	return ok && (id.Bind.Kind == ast.BindIter || id.Bind.Kind == ast.BindLocal) && id.Bind.Slot == iterSlot
}
