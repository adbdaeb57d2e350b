package engine

// The shared compilation layer behind the many-world server's plan cache.
// Everything about a program that is immutable after build — the static
// analysis, the vectorized update/phase kernels, the batched-join and
// batched-admission analyses — compiles once into a Compiled and is shared
// by every World instantiated from it. 10k rooms
// running the same script then hold one copy of the kernel programs; and
// because vexpr machines cache their carved slabs per *Prog, a pooled
// machine checked out by any of those rooms is already warm for exactly the
// kernels the room is about to run.
//
// A Compiled also owns the string dictionary its kernels were compiled
// against (string literals intern at compile time), so all of its worlds
// share one interning space. That is safe: the dictionary is append-only
// behind a mutex with lock-free snapshot reads, and codes never become
// observable state — string order folds are excluded from vectorization and
// hashing goes through value.Value — so concurrent worlds interning in any
// interleaving stay bit-identical.

import (
	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/schema"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// Compiled is the immutable, shareable compilation of one program. Build it
// once with Compile and instantiate any number of concurrent worlds with
// NewFromCompiled; New composes the two for the single-world case.
type Compiled struct {
	prog    *compile.Program
	ai      *analysis.Result
	dict    *table.Dict
	unfused bool

	// fusedOps tallies superinstructions across every compiled kernel —
	// the build-time half of stats.ExecCounters.FusedOps, copied into each
	// world at instantiation.
	fusedOps int64

	classes map[string]*compiledClass
	order   []*compiledClass

	// batches and txns hold the per-site compile-time analyses, keyed by
	// the compiled step pointer exactly like the per-world site maps.
	batches map[*compile.AccumStep]*siteBatch
	txns    map[*compile.AtomicStep]*txnProgs
}

// compiledClass is the shareable half of a class runtime: schema, plan,
// analysis slice, column layout and batch kernels. The per-world half
// (table, effect accumulators, scratch) lives in classRT.
type compiledClass struct {
	name    string
	cls     *schema.Class
	plan    *compile.ClassPlan
	ai      *analysis.Class
	cols    []table.Column
	hasRule []bool

	// vec holds the class's compiled batch kernels, or nil when nothing
	// about the class is vectorizable.
	vec *vecClassProgs
}

// Compile compiles a program for sharing across worlds (the production,
// fused configuration). The result is immutable and safe for concurrent
// NewFromCompiled calls.
func Compile(prog *compile.Program) *Compiled { return compileProgram(prog, false) }

// CompileUnfused compiles with the post-compile kernel optimizer disabled
// (no superinstruction fusion, no invariant hoisting): the same closure
// chain runs the unfused instruction list. Benchmark arms build their
// worlds from it with NewFromCompiled to measure the fusion delta
// (E13/E15); production callers use Compile.
func CompileUnfused(prog *compile.Program) *Compiled { return compileProgram(prog, true) }

func compileProgram(prog *compile.Program, unfused bool) *Compiled {
	c := &Compiled{
		prog:    prog,
		ai:      analysis.Analyze(prog),
		dict:    table.NewDict(),
		unfused: unfused,
		classes: make(map[string]*compiledClass),
		batches: make(map[*compile.AccumStep]*siteBatch),
		txns:    make(map[*compile.AtomicStep]*txnProgs),
	}
	for _, cls := range prog.Info.Schema.Classes() {
		cp := prog.Classes[cls.Name]
		cols := make([]table.Column, 0, len(cls.State)+1)
		for _, a := range cls.State {
			cols = append(cols, table.Column{Name: a.Name, Kind: a.Kind})
		}
		cols = append(cols, table.Column{Name: "$pc", Kind: value.KindNumber})
		cc := &compiledClass{
			name:    cls.Name,
			cls:     cls,
			plan:    cp,
			ai:      c.ai.Class(cls.Name),
			cols:    cols,
			hasRule: make([]bool, len(cls.State)),
		}
		for _, u := range cp.Updates {
			cc.hasRule[u.AttrIdx] = true
		}
		c.classes[cls.Name] = cc
		c.order = append(c.order, cc)
	}
	// Site batches compile first (phase kernels read hoisted sites' result
	// lanes), then the kernels, then the txn programs: txn-site analysis
	// resolves rule reads against other classes' kernels.
	for _, cc := range c.order {
		top := make(map[*compile.AccumStep]bool)
		for _, steps := range cc.plan.Phases {
			for _, s := range steps {
				if a, ok := s.(*compile.AccumStep); ok {
					top[a] = true
				}
			}
		}
		forEachStep(cc.plan, func(s compile.Step) {
			if a, ok := s.(*compile.AccumStep); ok {
				if b := newSiteBatch(c, a, top[a]); b != nil {
					c.batches[a] = b
				}
			}
		})
	}
	for _, cc := range c.order {
		cc.vec = buildVecProgs(c, cc)
	}
	for _, cc := range c.order {
		forEachStep(cc.plan, func(s compile.Step) {
			if a, ok := s.(*compile.AtomicStep); ok {
				c.txns[a] = c.analyzeTxnProgs(a)
			}
		})
	}
	return c
}

// kernelOpts is the standard vexpr compilation configuration: the caller's
// slot gate, the shared string dictionary (string EQ/NEQ and string-valued
// payloads compile to code-lane kernels), and CompileUnfused's switch.
func (c *Compiled) kernelOpts(slotOK func(int) bool) vexpr.Opts {
	return vexpr.Opts{SlotOK: slotOK, Dict: c.dict, NoOpt: c.unfused}
}

// addFusedOps folds a freshly compiled kernel's superinstruction count into
// the build-time FusedOps gauge. Compilation is serial, so no atomics.
func (c *Compiled) addFusedOps(p *vexpr.Prog) {
	if p != nil {
		c.fusedOps += int64(p.FusedOps())
	}
}

// forEachStep invokes fn for every step of a class plan, recursing into
// nested bodies — the walk shared by the compile-time analyses and the
// per-world site collection.
func forEachStep(cp *compile.ClassPlan, fn func(compile.Step)) {
	for _, steps := range cp.Phases {
		walkSteps(steps, fn)
	}
	for _, h := range cp.Handlers {
		walkSteps(h.Body, fn)
	}
}

// walkSteps invokes fn for every step of a list in pre-order.
func walkSteps(steps []compile.Step, fn func(compile.Step)) {
	for _, s := range steps {
		fn(s)
		switch s := s.(type) {
		case *compile.IfStep:
			walkSteps(s.Then, fn)
			walkSteps(s.Else, fn)
		case *compile.AtomicStep:
			walkSteps(s.Body, fn)
		case *compile.AccumStep:
			walkSteps(s.Body, fn)
			if s.Join != nil {
				walkSteps(s.Join.Inner, fn)
			}
		}
	}
}
