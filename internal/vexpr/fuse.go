package vexpr

// Superinstruction fusion: a post-compile peephole pass over the SSA program
// that collapses common single-use producer→consumer chains into one fused
// instruction whose loop reads every operand exactly once and writes once.
// The shapes fused here are the ones the compiler actually emits for hot SGL
// expressions — FMA-shaped arithmetic (mul-add / mul-sub / sub-mul),
// compare+select from conditionals, clamp (min∘max), abs-diff, and the
// conjunction/disjunction chains accum residual kernels produce.
//
// Every rewrite is bitwise-identity-preserving against both the unfused
// instruction sequence and the scalar closure evaluator:
//
//   - fused arithmetic rounds the intermediate explicitly (float64(a*b)+c in
//     the executor), so no FMA contraction can change the result;
//   - IEEE addition and multiplication are operand-order symmetric at the
//     bit level for every non-NaN input (and all NaN results compare equal
//     under the engine's NaN-tolerant payload identity);
//   - min and max are argument-order symmetric including NaN and ±0, so
//     min(hi, max(x, lo)) fuses to the same clamp as min(max(x, lo), hi);
//   - comparisons produce exactly 0 or 1, so branching on the comparison
//     inside cmp-select is identical to selecting on a materialized mask;
//   - &&/|| lanes are exactly 0 or 1 and evaluation is total, so flattening
//     a conjunction tree cannot change any lane.
//
// After fusion the program is compacted (dead producers removed, registers
// renumbered) and split into batch-invariant and per-batch partitions.

// arity returns how many operand registers (a, b, c, d in order) an op reads.
func arity(o op) int {
	switch o {
	case opConst, opLoadCol, opLoadFx, opLoadSlot, opSelfID:
		return 0
	case opNeg, opNot, opAbs, opFloor, opCeil, opSqrt, opGather:
		return 1
	case opAdd, opSub, opMul, opDiv, opMod, opLT, opLE, opGT, opGE, opEQ,
		opNEQ, opAnd, opOr, opMin, opMax, opAbsDiff:
		return 2
	case opSel, opClamp, opMulAdd, opMulSub, opSubMul, opAnd3, opOr3:
		return 3
	case opDist, opCmpSel, opAnd4, opOr4:
		return 4
	}
	return 0
}

// operandPtr returns a pointer to the k-th operand register field of in.
func operandPtr(in *instr, k int) *int {
	switch k {
	case 0:
		return &in.a
	case 1:
		return &in.b
	case 2:
		return &in.c
	default:
		return &in.d
	}
}

func isCmp(o op) bool {
	switch o {
	case opLT, opLE, opGT, opGE, opEQ, opNEQ:
		return true
	}
	return false
}

// fuse folds single-use producers into matching consumers until fixpoint,
// then compacts the program. Register numbers equal instruction indices
// throughout (SSA invariant), so operand fields index p.ins directly.
func (p *Prog) fuse() {
	dead := make([]bool, len(p.ins))
	uses := make([]int, len(p.ins))
	recount := func() {
		for i := range uses {
			uses[i] = 0
		}
		for i := range p.ins {
			if dead[i] {
				continue
			}
			in := &p.ins[i]
			for k := 0; k < arity(in.op); k++ {
				uses[*operandPtr(in, k)]++
			}
		}
		uses[p.out]++ // the program result is a use
	}
	for changed := true; changed; {
		changed = false
		recount()
		for i := range p.ins {
			if dead[i] {
				continue
			}
			in := &p.ins[i]
			// prod returns the producer of register r when it is live and
			// has exactly one consumer (this instruction); nil otherwise.
			prod := func(r int) *instr {
				if dead[r] || uses[r] != 1 {
					return nil
				}
				return &p.ins[r]
			}
			// fold replaces *in and retires the producer at register r.
			// Killing a single-use producer keeps all other use counts
			// valid, so the pass continues without an immediate recount.
			fold := func(r int, repl instr) {
				dead[r] = true
				p.fused++
				changed = true
				repl.dst = in.dst
				*in = repl
			}
			switch in.op {
			case opAdd:
				if m := prod(in.a); m != nil && m.op == opMul {
					fold(in.a, instr{op: opMulAdd, a: m.a, b: m.b, c: in.b})
				} else if m := prod(in.b); m != nil && m.op == opMul {
					fold(in.b, instr{op: opMulAdd, a: m.a, b: m.b, c: in.a})
				}
			case opSub:
				if m := prod(in.a); m != nil && m.op == opMul {
					fold(in.a, instr{op: opMulSub, a: m.a, b: m.b, c: in.b})
				}
			case opMul:
				if s := prod(in.a); s != nil && s.op == opSub {
					fold(in.a, instr{op: opSubMul, a: s.a, b: s.b, c: in.b})
				} else if s := prod(in.b); s != nil && s.op == opSub {
					fold(in.b, instr{op: opSubMul, a: s.a, b: s.b, c: in.a})
				}
			case opAbs:
				if s := prod(in.a); s != nil && s.op == opSub {
					fold(in.a, instr{op: opAbsDiff, a: s.a, b: s.b})
				}
			case opMin:
				if x := prod(in.a); x != nil && x.op == opMax {
					fold(in.a, instr{op: opClamp, a: x.a, b: x.b, c: in.b})
				} else if x := prod(in.b); x != nil && x.op == opMax {
					fold(in.b, instr{op: opClamp, a: x.a, b: x.b, c: in.a})
				}
			case opSel:
				if cc := prod(in.a); cc != nil && isCmp(cc.op) {
					fold(in.a, instr{op: opCmpSel, attr: int(cc.op), a: cc.a, b: cc.b, c: in.b, d: in.c})
				}
			case opAnd:
				if x := prod(in.a); x != nil && x.op == opAnd {
					fold(in.a, instr{op: opAnd3, a: x.a, b: x.b, c: in.b})
				} else if x := prod(in.b); x != nil && x.op == opAnd {
					fold(in.b, instr{op: opAnd3, a: in.a, b: x.a, c: x.b})
				} else if x := prod(in.a); x != nil && x.op == opAnd3 {
					fold(in.a, instr{op: opAnd4, a: x.a, b: x.b, c: x.c, d: in.b})
				} else if x := prod(in.b); x != nil && x.op == opAnd3 {
					fold(in.b, instr{op: opAnd4, a: in.a, b: x.a, c: x.b, d: x.c})
				}
			case opOr:
				if x := prod(in.a); x != nil && x.op == opOr {
					fold(in.a, instr{op: opOr3, a: x.a, b: x.b, c: in.b})
				} else if x := prod(in.b); x != nil && x.op == opOr {
					fold(in.b, instr{op: opOr3, a: in.a, b: x.a, c: x.b})
				} else if x := prod(in.a); x != nil && x.op == opOr3 {
					fold(in.a, instr{op: opOr4, a: x.a, b: x.b, c: x.c, d: in.b})
				} else if x := prod(in.b); x != nil && x.op == opOr3 {
					fold(in.b, instr{op: opOr4, a: in.a, b: x.a, c: x.b, d: x.c})
				}
			}
		}
	}
	if p.fused == 0 {
		return
	}
	// Compact: drop dead instructions, renumber registers. Operands always
	// reference earlier instructions, so their remapping is already known.
	remap := make([]int, len(p.ins))
	nw := make([]instr, 0, len(p.ins)-p.fused)
	for i := range p.ins {
		if dead[i] {
			continue
		}
		in := p.ins[i]
		for k := 0; k < arity(in.op); k++ {
			r := operandPtr(&in, k)
			*r = remap[*r]
		}
		in.dst = len(nw)
		remap[i] = in.dst
		nw = append(nw, in)
	}
	p.ins = nw
	p.out = remap[p.out]
}

// split partitions the program into batch-invariant instructions (constants,
// materialized once per machine by fillInv) and the per-batch instructions
// it returns. The output stays per-batch even when it is a constant — its
// closure fills the caller's window — but only non-constant ops count as
// kernels, so a bare literal costs the plan model nothing.
func (p *Prog) split() []instr {
	var per []instr
	for _, in := range p.ins {
		switch {
		case in.op != opConst:
			p.kernels++
		case in.dst != p.out:
			p.inv = append(p.inv, in)
			continue
		}
		per = append(per, in)
	}
	return per
}
