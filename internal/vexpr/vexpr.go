// Package vexpr compiles type-checked SGL expressions into vectorized batch
// kernels that run directly over the columnar storage of package table —
// the set-at-a-time execution model the paper argues for (§2, §4): instead
// of interpreting a closure tree once per object, a compiled Prog streams
// whole column slices through a small register machine in cache-sized
// batches, one tight loop per operator.
//
// Numbers, booleans and references share the engine's float64 column
// representation (bool = 0/1, ref = object id, null = -1), so a single
// float64 lane per row covers every numeric-payload kind. Strings and sets
// have no columnar payload here: Compile reports ok=false for expressions
// touching them and the engine falls back to the scalar closure evaluator
// of package expr, which remains the semantic reference.
//
// Semantics are identical to the closure evaluator by construction:
// evaluation is total (IEEE division, NaN-propagating math), && and ||
// evaluate both sides — sound because SGL expressions are pure and
// exception-free — and comparisons on bool/ref payloads order exactly like
// value.Compare.
package vexpr

import (
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// batchSize is the number of rows processed per kernel invocation. 1 KiB of
// float64 lanes per register keeps the working set of a typical expression
// (a handful of registers) inside L1/L2 while amortizing dispatch.
const batchSize = 1024

// BatchSize is the number of rows per kernel batch, exported so callers can
// align shard boundaries to whole batches (a shard split mid-batch would pay
// two partial-batch passes at every kernel).
const BatchSize = batchSize

type op uint8

const (
	opConst op = iota
	opLoadCol
	opLoadFx
	opLoadSlot
	opSelfID
	opGather
	opNeg
	opNot
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNEQ
	opAnd
	opOr
	opSel
	opAbs
	opMin
	opMax
	opFloor
	opCeil
	opSqrt
	opClamp
	opDist
	// Fused superinstructions, produced only by the post-compile peephole
	// pass (fuse.go), never by the compiler. Each collapses a single-use
	// producer chain into one loop that reads its operands once and writes
	// once; all rewrites are bitwise-identity-preserving (see fuse.go).
	opMulAdd  // a*b + c  (intermediate product explicitly rounded)
	opMulSub  // a*b - c  (intermediate product explicitly rounded)
	opSubMul  // (a-b) * c (intermediate difference explicitly rounded)
	opAbsDiff // abs(a - b)
	opCmpSel  // cmp(a,b) ? c : d — comparison op stored in attr
	opAnd3    // a && b && c
	opOr3     // a || b || c
	opAnd4    // a && b && c && d
	opOr4     // a || b || c || d
)

// instr is one SSA instruction: every instruction writes a fresh register.
type instr struct {
	op         op
	dst        int
	a, b, c, d int     // operand registers
	imm        float64 // opConst: the constant; opGather: the zero payload
	attr       int     // opLoadCol/opLoadFx/opLoadSlot: column index; opGather: attr index
	class      string  // opGather: class of the referenced object
}

// Prog is a compiled batch kernel. A Prog is immutable and safe for
// concurrent Run calls as long as each goroutine uses its own Machine.
type Prog struct {
	ins     []instr
	nRegs   int
	out     int
	needIDs bool
	fxUsed  []int

	// Execution plan, built once at compile time (world build). inv holds
	// the batch-invariant instructions (constants) that are materialized
	// once per machine instead of once per batch; chain holds one prebound
	// closure per per-batch instruction in SSA order, the last of which
	// writes the program's output (spec.go). kernels counts the chain's
	// non-constant operators.
	inv     []instr
	chain   []batchFn
	kernels int
	fused   int
}

// Env binds a Prog to one class extent for execution. All slices are
// indexed by physical row and read-only for the kernel.
type Env struct {
	// Cols holds the float64 payload of every state column, indexed by
	// state-attribute index (entries for string/set columns may be nil —
	// compiled programs never load them).
	Cols [][]float64
	// Fx holds the ⊕-combined effect value per effect attribute, dense
	// over physical rows with absent contributions already replaced by the
	// combinator's zero payload. Only consulted by update-rule programs.
	Fx [][]float64
	// IDs holds each row's object id as float64; required only when
	// NeedIDs reports true.
	IDs []float64
	// Slots holds frame-slot vectors for let-bound locals, indexed by
	// slot. Only slots permitted at compile time are loaded. Accum-gathered
	// programs instead read their probing-row scalars here, one lane per
	// BcastSrc in the order CompileAccum reports, each candidate lane
	// holding the value of the probe that produced the candidate.
	Slots [][]float64
	// Gather resolves a cross-object state read: for every id payload in
	// refs it must write the referenced object's attribute payload to out,
	// or zero for null/dangling references.
	Gather func(class string, attrIdx int, refs, out []float64, zero float64)
}

// Machine holds the scratch registers for running programs. A zero Machine
// is ready to use; it grows to the largest program it has run.
type Machine struct {
	regs [][]float64
	// states caches one carved scratch slab per program, so programs that
	// alternate on one machine — join sites cycle value/key/residual
	// kernels per candidate batch — keep their constants materialized
	// instead of re-carving and refilling on every switch. No kernel ever
	// writes another program's registers, so a cached slab stays valid.
	states map[*Prog]*machState
	// lastProg tracks which program's register table m.regs currently
	// aliases; back-to-back runs of one program skip prepare entirely.
	lastProg *Prog
}

type machState struct {
	regs    [][]float64
	scratch []float64
}

// maxMachStates bounds the per-machine slab cache; engine worlds compile a
// bounded program set at build, so eviction only triggers in synthetic
// many-program loads (fuzzers), where dropping the cache is harmless.
const maxMachStates = 64

// NeedIDs reports whether Env.IDs must be populated.
func (p *Prog) NeedIDs() bool { return p.needIDs }

// FxUsed returns the effect-attribute indices the program reads.
func (p *Prog) FxUsed() []int { return p.fxUsed }

// Kernels returns the number of per-batch operators the program executes.
// Fusion and invariant hoisting shrink this count; the optimizer's tests
// pin them by it.
func (p *Prog) Kernels() int { return p.kernels }

// Column reports that the program is a bare own-row column load, and which
// column: its output lane is that column itself.
func (p *Prog) Column() (int, bool) {
	if len(p.ins) == 1 && p.ins[0].op == opLoadCol {
		return p.ins[0].attr, true
	}
	return 0, false
}

// Constant reports that the program reads nothing, so every lane holds the
// same value, and returns that value.
func (p *Prog) Constant() (float64, bool) {
	for _, in := range p.ins {
		switch in.op {
		case opLoadCol, opLoadFx, opLoadSlot, opSelfID, opGather:
			return 0, false
		}
	}
	out := []float64{0}
	p.Run(&Machine{}, &Env{}, 0, 1, out)
	return out[0], true
}

// FusedOps returns the number of instructions eliminated by superinstruction
// fusion — the build-time gauge behind the engine's FusedOps counter.
func (p *Prog) FusedOps() int { return p.fused }

// Dict interns strings to dense float64 codes so string predicates compile
// to numeric kernels; table.Dict satisfies it. Code is only called at
// compile time (world build, single-threaded), never during kernel runs.
type Dict interface {
	Code(s string) float64
}

// Opts tunes compilation. The zero Opts reproduces Compile's behavior.
type Opts struct {
	// SlotOK reports which let-bound frame slots have vectorized values.
	SlotOK func(slot int) bool
	// Dict, when non-nil, enables dictionary-encoded string lanes: string
	// literals compile to code constants, and string ==/!= compiles to
	// numeric comparison over code columns (same dict ⇒ equal codes iff
	// equal strings). Ordered string comparisons still bail — codes are
	// interned in first-use order, not lexicographically.
	Dict Dict
	// NoOpt disables the post-compile fusion and invariant-hoisting passes:
	// the closure chain then runs every compiled instruction, constants
	// included, once per batch. Benchmark arms use it to measure the
	// optimization delta and the differential fuzz uses it as the
	// optimizer's oracle; production callers never set it.
	NoOpt bool
}

// Compile translates a type-checked expression into a batch program. The
// second result is false when the expression touches strings, sets,
// iteration variables or class extents; callers then use the scalar
// closure path of package expr.
func Compile(e ast.Expr) (*Prog, bool) { return CompileOpts(e, Opts{}) }

// CompileWithSlots is Compile for expressions that may read let-bound frame
// slots; slotOK reports which slots have vectorized values available.
func CompileWithSlots(e ast.Expr, slotOK func(slot int) bool) (*Prog, bool) {
	return CompileOpts(e, Opts{SlotOK: slotOK})
}

// CompileOpts is the general compilation entry point.
func CompileOpts(e ast.Expr, o Opts) (*Prog, bool) {
	c := &compiler{slotOK: o.SlotOK, dict: o.Dict, iterSlot: -1}
	out := c.compile(e)
	if c.fail || out < 0 {
		return nil, false
	}
	return c.finish(out, o), true
}

// finish seals the SSA program, runs the optimization pipeline unless
// disabled (superinstruction fusion, invariant hoisting) and binds the
// per-batch instructions into the closure chain.
func (c *compiler) finish(out int, o Opts) *Prog {
	p := &c.p
	p.out = out
	per := p.ins
	if o.NoOpt {
		p.kernels = len(per)
	} else {
		p.fuse()
		per = p.split()
	}
	// The final closure writes the caller's output window, so the output
	// must be the last instruction; SSA emission order guarantees it.
	if p.out != len(p.ins)-1 {
		panic("vexpr: output is not the last instruction")
	}
	p.nRegs = len(p.ins)
	p.chain = make([]batchFn, len(per))
	for i, in := range per {
		p.chain[i] = instrFn(in, i == len(per)-1)
	}
	return p
}

// payloadKind reports whether a kind shares the float64 column payload.
func payloadKind(k value.Kind) bool {
	return k == value.KindNumber || k == value.KindBool || k == value.KindRef
}

// zeroPayload is the float64 payload of value.Zero(k) for payload kinds.
// For dictionary-encoded strings the zero payload is 0: every Dict interns
// "" as code 0, matching value.Zero(KindString).
func zeroPayload(k value.Kind) float64 {
	if k == value.KindRef {
		return float64(value.NullID)
	}
	return 0
}

// payloadOK reports whether values of kind k have a float64 lane under this
// compilation: payload kinds always, strings only when a dictionary supplies
// code lanes.
func (c *compiler) payloadOK(k value.Kind) bool {
	return payloadKind(k) || (c.dict != nil && k == value.KindString)
}

type compiler struct {
	p      Prog
	slotOK func(int) bool
	dict   Dict
	fail   bool

	// Accum-gather mode (CompileAccum): iterSlot >= 0 flips lane meaning —
	// lanes are candidate rows of the iterated class, iter field reads
	// become column loads over gathered candidate columns, and probing-row
	// scalars (self attrs, locals, self id) become probe lanes.
	iterSlot int
	bcast    []BcastSrc
	cols     []int
}

func (c *compiler) emit(i instr) int {
	i.dst = len(c.p.ins)
	c.p.ins = append(c.p.ins, i)
	return i.dst
}

func (c *compiler) bail() int {
	c.fail = true
	return -1
}

func (c *compiler) compile(e ast.Expr) int {
	if c.fail {
		return -1
	}
	switch e := e.(type) {
	case *ast.NumLit:
		return c.emit(instr{op: opConst, imm: e.V})
	case *ast.BoolLit:
		v := 0.0
		if e.V {
			v = 1
		}
		return c.emit(instr{op: opConst, imm: v})
	case *ast.NullLit:
		return c.emit(instr{op: opConst, imm: float64(value.NullID)})
	case *ast.StrLit:
		if c.dict == nil {
			return c.bail()
		}
		return c.emit(instr{op: opConst, imm: c.dict.Code(e.V)})
	case *ast.Ident:
		return c.compileIdent(e)
	case *ast.FieldExpr:
		if !c.payloadOK(e.Ty.Kind) {
			return c.bail()
		}
		if c.iterSlot >= 0 && isIterIdent(e.X, c.iterSlot) {
			// Iter field read: a direct load from the gathered candidate
			// columns — the core of the columnar join fold.
			c.useCol(e.AttrIdx)
			return c.emit(instr{op: opLoadCol, attr: e.AttrIdx})
		}
		x := c.compile(e.X)
		if x < 0 {
			return -1
		}
		return c.emit(instr{op: opGather, a: x, class: e.Class, attr: e.AttrIdx, imm: zeroPayload(e.Ty.Kind)})
	case *ast.UnaryExpr:
		x := c.compile(e.X)
		if x < 0 {
			return -1
		}
		switch e.Op {
		case token.MINUS:
			return c.emit(instr{op: opNeg, a: x})
		case token.NOT:
			return c.emit(instr{op: opNot, a: x})
		}
		return c.bail()
	case *ast.BinaryExpr:
		return c.compileBinary(e)
	case *ast.CondExpr:
		if !c.payloadOK(e.Ty.Kind) {
			return c.bail()
		}
		cc, t, f := c.compile(e.C), c.compile(e.T), c.compile(e.F)
		if cc < 0 || t < 0 || f < 0 {
			return -1
		}
		return c.emit(instr{op: opSel, a: cc, b: t, c: f})
	case *ast.CallExpr:
		return c.compileCall(e)
	default:
		return c.bail()
	}
}

func (c *compiler) compileIdent(e *ast.Ident) int {
	if c.iterSlot >= 0 {
		return c.compileAccumIdent(e)
	}
	switch e.Bind.Kind {
	case ast.BindStateAttr:
		if !c.payloadOK(e.Ty.Kind) {
			return c.bail()
		}
		return c.emit(instr{op: opLoadCol, attr: e.Bind.AttrIdx})
	case ast.BindLocal:
		if c.slotOK == nil || !c.slotOK(e.Bind.Slot) || !c.payloadOK(e.Ty.Kind) {
			return c.bail()
		}
		return c.emit(instr{op: opLoadSlot, attr: e.Bind.Slot})
	case ast.BindSelf:
		c.p.needIDs = true
		return c.emit(instr{op: opSelfID})
	case ast.BindEffectAttr:
		if !payloadKind(e.Ty.Kind) {
			return c.bail()
		}
		c.p.fxUsed = append(c.p.fxUsed, e.Bind.AttrIdx)
		return c.emit(instr{op: opLoadFx, attr: e.Bind.AttrIdx})
	default: // BindIter, BindExtent, unresolved
		return c.bail()
	}
}

func (c *compiler) compileBinary(e *ast.BinaryExpr) int {
	xk, yk := e.X.Type().Kind, e.Y.Type().Kind
	switch e.Op {
	case token.EQ, token.NEQ:
		// Equality extends to dictionary-encoded strings: with a shared
		// dict, codes are equal iff the strings are.
		if !c.payloadOK(xk) || !c.payloadOK(yk) {
			return c.bail()
		}
	default:
		// Ordered string comparisons have no columnar payload (codes are not
		// lexicographic); everything else shares float64 ordering with
		// value.Compare/Equal.
		if !payloadKind(xk) || !payloadKind(yk) {
			return c.bail()
		}
	}
	x, y := c.compile(e.X), c.compile(e.Y)
	if x < 0 || y < 0 {
		return -1
	}
	var o op
	switch e.Op {
	case token.PLUS:
		o = opAdd
	case token.MINUS:
		o = opSub
	case token.STAR:
		o = opMul
	case token.SLASH:
		o = opDiv
	case token.PERCENT:
		o = opMod
	case token.LT:
		o = opLT
	case token.LE:
		o = opLE
	case token.GT:
		o = opGT
	case token.GE:
		o = opGE
	case token.EQ:
		o = opEQ
	case token.NEQ:
		o = opNEQ
	case token.ANDAND:
		o = opAnd
	case token.OROR:
		o = opOr
	default:
		return c.bail()
	}
	return c.emit(instr{op: o, a: x, b: y})
}

func (c *compiler) compileCall(e *ast.CallExpr) int {
	args := make([]int, len(e.Args))
	for i, a := range e.Args {
		if args[i] = c.compile(a); args[i] < 0 {
			return -1
		}
	}
	switch e.Builtin {
	case ast.BAbs:
		return c.emit(instr{op: opAbs, a: args[0]})
	case ast.BMin:
		return c.emit(instr{op: opMin, a: args[0], b: args[1]})
	case ast.BMax:
		return c.emit(instr{op: opMax, a: args[0], b: args[1]})
	case ast.BFloor:
		return c.emit(instr{op: opFloor, a: args[0]})
	case ast.BCeil:
		return c.emit(instr{op: opCeil, a: args[0]})
	case ast.BSqrt:
		return c.emit(instr{op: opSqrt, a: args[0]})
	case ast.BClamp:
		return c.emit(instr{op: opClamp, a: args[0], b: args[1], c: args[2]})
	case ast.BDist:
		return c.emit(instr{op: opDist, a: args[0], b: args[1], c: args[2], d: args[3]})
	case ast.BID:
		// id(ref) reinterprets the payload as a number — already identical.
		return args[0]
	case ast.BSelfFn:
		if c.iterSlot >= 0 {
			// In accum mode, self() is the probing row — a probe lane.
			return c.bcastReg(BcastSrc{Kind: BcastSelfID})
		}
		c.p.needIDs = true
		return c.emit(instr{op: opSelfID})
	default: // size/contains operate on sets
		return c.bail()
	}
}

// prepare sizes the machine's registers for p. Alias ops (loads) get their
// register rebound per batch; compute ops own a batch-sized scratch slice,
// except the output, which the chain writes straight into the caller's
// window.
// It reports whether the machine switched programs: a machine that just ran
// the same program keeps its register carving (and the constants already
// materialized in scratch — no other program's kernels touched them).
func (m *Machine) prepare(p *Prog) (fresh bool) {
	if m.lastProg == p {
		return false
	}
	m.lastProg = p
	if st, ok := m.states[p]; ok {
		m.regs = st.regs
		return false
	}
	need := 0
	for _, in := range p.ins {
		if p.ownsScratch(in) {
			need += batchSize
		}
	}
	st := &machState{
		regs:    make([][]float64, p.nRegs),
		scratch: make([]float64, need),
	}
	off := 0
	for _, in := range p.ins {
		if p.ownsScratch(in) {
			st.regs[in.dst] = st.scratch[off : off+batchSize][:batchSize]
			off += batchSize
		}
	}
	if m.states == nil {
		m.states = make(map[*Prog]*machState, 8)
	} else if len(m.states) >= maxMachStates {
		clear(m.states)
	}
	m.states[p] = st
	m.regs = st.regs
	return true
}

func (p *Prog) ownsScratch(in instr) bool {
	switch in.op {
	case opLoadCol, opLoadFx, opLoadSlot, opSelfID:
		return false
	}
	return in.dst != p.out
}

// Run evaluates the program for physical rows [lo, hi), writing each row's
// result payload to out[row]. Rows are processed in batches; dead rows may
// be evaluated (their results are ignored by callers), which is safe
// because SGL expressions are total.
func (p *Prog) Run(m *Machine, env *Env, lo, hi int, out []float64) {
	p.fillInv(m, m.prepare(p))
	for start := lo; start < hi; start += batchSize {
		end := min(start+batchSize, hi)
		for _, fn := range p.chain {
			fn(m, env, start, end, end-start, out[start:end])
		}
	}
}

// fillInv materializes the batch-invariant registers (constants) once per
// machine instead of once per batch: only when this machine has never
// carved this program, as their cached slab persists across program
// switches.
func (p *Prog) fillInv(m *Machine, fresh bool) {
	if !fresh {
		return
	}
	for _, in := range p.inv {
		dst := m.regs[in.dst][:batchSize]
		v := in.imm
		for i := range dst {
			dst[i] = v
		}
	}
}

// cmpSel is the fused compare+select loop: comparisons yield exactly 0 or 1,
// so branching on the comparison directly is bitwise identical to opSel over
// a materialized mask.
func cmpSel(cmp op, dst, a, b, tv, fv []float64) {
	switch cmp {
	case opLT:
		for i := range dst {
			if a[i] < b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	case opLE:
		for i := range dst {
			if a[i] <= b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	case opGT:
		for i := range dst {
			if a[i] > b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	case opGE:
		for i := range dst {
			if a[i] >= b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	case opEQ:
		for i := range dst {
			if a[i] == b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	case opNEQ:
		for i := range dst {
			if a[i] != b[i] {
				dst[i] = tv[i]
			} else {
				dst[i] = fv[i]
			}
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
