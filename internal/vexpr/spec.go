package vexpr

import (
	"math"

	"repro/internal/value"
)

// The kernel executor: every program runs as a chain of prebound closures,
// one per per-batch instruction, built once at compile time (world build).
// Running a batch walks the flat []batchFn with every operand slice resolved
// through the machine (no opcode dispatch), and the final closure writes the
// caller's output slice (no result copy). Each operator's loop exists once,
// here, over lanes cut to n first, so the compiler drops its bounds checks.

// batchFn executes one instruction over rows [lo, hi) of the environment;
// n = hi-lo, and out is the caller's output window for this batch (used
// only by the final closure in a chain).
type batchFn func(m *Machine, env *Env, lo, hi, n int, out []float64)

// instrFn builds the closure for one instruction. final marks
// the program's output instruction, which writes into the caller's output
// window instead of machine scratch.
func instrFn(in instr, final bool) batchFn {
	// dst resolves the destination lane for compute ops.
	dst := func(m *Machine, n int, out []float64) []float64 {
		if final {
			return out[:n]
		}
		return m.regs[in.dst][:n]
	}
	switch in.op {
	case opConst:
		// Only unhoisted constants run per batch: every constant of a NoOpt
		// program, and a constant output.
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d := dst(m, n, out)
			for i := range d {
				d[i] = in.imm
			}
		}
	case opLoadCol:
		if final {
			return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
				copy(out[:n], env.Cols[in.attr][lo:hi])
			}
		}
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			m.regs[in.dst] = env.Cols[in.attr][lo:hi]
		}
	case opLoadFx:
		if final {
			return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
				copy(out[:n], env.Fx[in.attr][lo:hi])
			}
		}
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			m.regs[in.dst] = env.Fx[in.attr][lo:hi]
		}
	case opLoadSlot:
		if final {
			return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
				copy(out[:n], env.Slots[in.attr][lo:hi])
			}
		}
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			m.regs[in.dst] = env.Slots[in.attr][lo:hi]
		}
	case opSelfID:
		if final {
			return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
				copy(out[:n], env.IDs[lo:hi])
			}
		}
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			m.regs[in.dst] = env.IDs[lo:hi]
		}
	case opGather:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			env.Gather(in.class, in.attr, m.regs[in.a][:n], dst(m, n, out), in.imm)
		}
	case opNeg:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = -a[i]
			}
		}
	case opNot:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = b2f(a[i] == 0)
			}
		}
	case opAdd:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = a[i] + b[i]
			}
		}
	case opSub:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = a[i] - b[i]
			}
		}
	case opMul:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = a[i] * b[i]
			}
		}
	case opDiv:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = a[i] / b[i]
			}
		}
	case opMod:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = math.Mod(a[i], b[i])
			}
		}
	case opLT:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] < b[i])
			}
		}
	case opLE:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] <= b[i])
			}
		}
	case opGT:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] > b[i])
			}
		}
	case opGE:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] >= b[i])
			}
		}
	case opEQ:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] == b[i])
			}
		}
	case opNEQ:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] != b[i])
			}
		}
	case opAnd:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 && b[i] != 0)
			}
		}
	case opOr:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 || b[i] != 0)
			}
		}
	case opSel:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, cc, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				if cc[i] != 0 {
					d[i] = a[i]
				} else {
					d[i] = b[i]
				}
			}
		}
	case opAbs:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = math.Abs(a[i])
			}
		}
	case opMin:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = value.Min(a[i], b[i])
			}
		}
	case opMax:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = value.Max(a[i], b[i])
			}
		}
	case opFloor:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = math.Floor(a[i])
			}
		}
	case opCeil:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = math.Ceil(a[i])
			}
		}
	case opSqrt:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a := dst(m, n, out)[:n], m.regs[in.a][:n]
			for i := range d {
				d[i] = math.Sqrt(a[i])
			}
		}
	case opClamp:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, x, lov, hiv := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				d[i] = value.Min(value.Max(x[i], lov[i]), hiv[i])
			}
		}
	case opDist:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, x1, y1, x2, y2 := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n], m.regs[in.d][:n]
			for i := range d {
				d[i] = math.Hypot(x1[i]-x2[i], y1[i]-y2[i])
			}
		}
	case opMulAdd:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				// float64(): forbid FMA contraction, match unfused rounding.
				d[i] = float64(a[i]*b[i]) + cc[i]
			}
		}
	case opMulSub:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				d[i] = float64(a[i]*b[i]) - cc[i]
			}
		}
	case opSubMul:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				d[i] = float64(a[i]-b[i]) * cc[i]
			}
		}
	case opAbsDiff:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n]
			for i := range d {
				d[i] = math.Abs(a[i] - b[i])
			}
		}
	case opCmpSel:
		cmp := op(in.attr)
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			cmpSel(cmp, dst(m, n, out), m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n], m.regs[in.d][:n])
		}
	case opAnd3:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 && b[i] != 0 && cc[i] != 0)
			}
		}
	case opOr3:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 || b[i] != 0 || cc[i] != 0)
			}
		}
	case opAnd4:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc, dd := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n], m.regs[in.d][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 && b[i] != 0 && cc[i] != 0 && dd[i] != 0)
			}
		}
	case opOr4:
		return func(m *Machine, env *Env, lo, hi, n int, out []float64) {
			d, a, b, cc, dd := dst(m, n, out)[:n], m.regs[in.a][:n], m.regs[in.b][:n], m.regs[in.c][:n], m.regs[in.d][:n]
			for i := range d {
				d[i] = b2f(a[i] != 0 || b[i] != 0 || cc[i] != 0 || dd[i] != 0)
			}
		}
	}
	panic("vexpr: no kernel for op")
}
