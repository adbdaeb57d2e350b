// Package analysis is the unified static-analysis layer over compiled SGL
// programs — the paper's core claim (§2, §4) made concrete: because scripts
// compile to relational plans, the system can *analyze* them and derive
// every physical execution decision from one set of facts instead of
// scattering ad-hoc walks through the engine.
//
// For every class the framework computes, per phase, handler, update rule,
// accum join and atomic site:
//
//   - read sets (state attributes touched — own-row and cross-object —
//     frame slots, combined-effect reads, class extents, self identity);
//   - write sets (effect emissions with their target class, combinator and
//     source position; update-rule target attributes);
//   - fold classification per effect attribute: whether its ⊕ combinator
//     is commutative and whether folding is *exact* (bit-identical under
//     any contribution order) — the property that separates Min/Max/Count
//     from floating-point Sum/Avg;
//   - structural vectorizability per phase (the step-shape half of the
//     batch-kernel eligibility rule; expression compilability stays with
//     the vexpr compiler);
//   - the cross-self-emission hazard, per effect attribute, that pins a
//     phase to scalar execution;
//   - transaction constraint stability (read sets bounded over committed
//     state) with the ordered read lists the batched admission validator
//     needs;
//   - join partitionability preconditions for shared-nothing execution.
//
// The engine's vectorizer (engine/vector.go), transaction-site analyzer
// (engine/txnsite.go) and partitioned ghost derivation
// (engine/partition_view.go) all consume these results; `sglc vet`
// (vet.go) turns the same facts into author-facing diagnostics.
package analysis

import (
	"fmt"
	"slices"

	"repro/internal/combinator"
	"repro/internal/compile"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// Result is the full analysis of one compiled program.
type Result struct {
	Prog    *compile.Program
	Classes map[string]*Class

	atomics map[*compile.AtomicStep]*Atomic
	joins   map[*compile.AccumStep]*Join
}

// Class aggregates every per-class analysis fact.
type Class struct {
	Name string
	Plan *compile.ClassPlan

	// HasRule marks state attributes with an expression update rule —
	// exactly the engine's classRT.hasRule.
	HasRule []bool

	// Folds classifies every effect attribute's ⊕ combinator, indexed by
	// effect attr.
	Folds []Fold

	Phases   []*Script // per waitNextTick phase (empty phases included)
	Handlers []*Script // per reactive handler
	Updates  []Update  // aligned with Plan.Updates

	// Atomics lists every atomic site in engine collection order (phases
	// in order, then handlers). Joins likewise for accum sites.
	Atomics []*Atomic
	Joins   []*Join

	// CrossSelf marks, per effect attribute, a direct (non-transactional)
	// targeted emission into this same class from some phase: the
	// fold-order hazard behind Script.Pinned.
	CrossSelf []bool
}

// AttrRef names one state attribute of one class.
type AttrRef struct {
	Class string
	Attr  int
}

// ReadSet is the ordered, first-seen-deduplicated set of reads performed
// by a script fragment or expression.
type ReadSet struct {
	State   []AttrRef // state attrs read (own class or cross-object)
	Effects []int     // own-class combined-effect reads (update rules)
	Slots   []int     // frame slots read
	Extents []string  // class extents iterated
	Self    bool      // self() / self identity read
}

// Emit is one effect (or accumulator) contribution in the write set.
type Emit struct {
	Step      *compile.EmitStep
	Class     string
	Attr      int
	Comb      combinator.Kind // combinator.Invalid for accumulator emits
	Targeted  bool            // explicit target expression (cross-object)
	InAtomic  bool            // inside an atomic block (applies at admission)
	AccumSlot int             // >= 0: contribution to an accum accumulator
	SetInsert bool
	Pos       token.Pos
}

// Script is the analysis of one phase or handler body.
type Script struct {
	Phase int // phase index; -1 for handlers
	Reads ReadSet
	Emits []Emit

	// Vectorizable is the structural half of batch-kernel eligibility:
	// every step is a let, an if, a top-level indexed accum loop, a scalar
	// emission of a columnar payload kind, or an atomic block of such
	// emissions in a frame-free class. Expression compilability
	// (and whether the accum site hoists) is still decided by the engine.
	Vectorizable bool

	// Pinned is the first effect attribute this phase self-emits into
	// directly that Class.CrossSelf marks, -1 if none. Kernels fold
	// self-emissions in place during the sweep while targeted ones replay
	// from the shard sink afterwards, so on such an attribute the two would
	// reach an accumulator out of row order: a pinned phase stays scalar.
	Pinned int
}

// Update is the analysis of one expression update rule.
type Update struct {
	AttrIdx int
	Kind    value.Kind
	// VecKind reports the target attribute's payload kind is columnar
	// (number/bool/ref) — the structural half of update-rule kernel
	// eligibility. String targets stay scalar even under a dictionary:
	// applying a staged code would bypass the column's string storage.
	VecKind bool
	Reads   ReadSet
}

// Fold classifies one effect attribute's ⊕ combinator.
type Fold struct {
	Comb combinator.Kind
	Kind value.Kind // declared payload kind
	// Commutative: the fold result is independent of contribution order as
	// a mathematical value (all combinators here are; MinBy/MaxBy only
	// through their deterministic key tie-break).
	Commutative bool
	// Exact: the folded bits are identical under any contribution order.
	// False exactly for floating-point Sum/Avg, where reassociation
	// changes rounding — the reason cross-object float emissions force
	// scalar execution order.
	Exact bool
}

// Join is the analysis of one accum site.
type Join struct {
	Step        *compile.AccumStep
	Class       string // executing class
	Phase       int    // phase index; -1 for handler sites
	SourceClass string

	ComputedSource bool // explicit set<ref> source expression
	Indexable      bool // predicate decomposed into an index-servable JoinSpec
	RangeDims      int
	EqDims         int
	SelfOnlyDims   int   // range dims whose bounds read only own-row state
	HalfOpen       []int // range dims bounded on one side only

	// Partitionable holds the static preconditions for deriving a bounded
	// interaction reach in shared-nothing partitioned execution: a
	// non-handler site (handlers probe post-update state the tick-start
	// ghosts would not cover) with at least one self-only range dimension.
	// The runtime halves — a spatial layout and finite evaluated bounds —
	// stay with the engine.
	Partitionable bool
}

// Atomic is the analysis of one atomic site.
type Atomic struct {
	Step        *compile.AtomicStep
	Class       string
	Phase       int // phase index; -1 for handler sites
	Constraints []Constraint
}

// Constraint is the stability analysis of one atomic constraint: whether
// its read set is bounded over committed state, and the ordered reads the
// batched admission validator must resolve.
type Constraint struct {
	Src ast.Expr

	// Stable reports the read set is bounded at build time: every
	// cross-object read goes through a base expression fixed for the whole
	// admission pass. Unstable constraints keep their site on the serial
	// admission loop.
	Stable bool

	Cols    []int // self state attrs read (walk order)
	Slots   []int // frame slots read (walk order)
	NeedIDs bool

	// RuleReads lists, in walk order, every read of a rule-updated state
	// attribute — the reads that must resolve through the tentative
	// post-update view. Base is nil for own-row column reads and the
	// stable base expression for cross-object reads.
	RuleReads []RuleRead
}

// RuleRead is one read of a rule-updated attribute inside a constraint.
type RuleRead struct {
	Class string
	Attr  int
	Base  ast.Expr // nil = own-row read
}

// Class returns the analysis for one class (nil if unknown).
func (r *Result) Class(name string) *Class { return r.Classes[name] }

// Atomic returns the analysis of one atomic site.
func (r *Result) Atomic(step *compile.AtomicStep) *Atomic { return r.atomics[step] }

// Join returns the analysis of one accum site.
func (r *Result) Join(step *compile.AccumStep) *Join { return r.joins[step] }

// Analyze runs the full dataflow analysis over a compiled program.
func Analyze(prog *compile.Program) *Result {
	r := &Result{
		Prog:    prog,
		Classes: make(map[string]*Class),
		atomics: make(map[*compile.AtomicStep]*Atomic),
		joins:   make(map[*compile.AccumStep]*Join),
	}
	// First pass: per-class shells with rule coverage and fold
	// classification, so cross-class walks (constraint stability, emission
	// fold lookups) can consult any class regardless of analysis order.
	for name, cp := range prog.Classes {
		c := &Class{Name: name, Plan: cp}
		c.HasRule = make([]bool, len(cp.Class.State))
		for _, u := range cp.Updates {
			c.HasRule[u.AttrIdx] = true
		}
		for _, e := range cp.Class.Effects {
			c.Folds = append(c.Folds, classifyFold(e.Comb, e.Kind))
		}
		r.Classes[name] = c
	}
	for _, c := range r.Classes {
		r.analyzeClassBody(c)
	}
	return r
}

func (r *Result) analyzeClassBody(c *Class) {
	cp, name := c.Plan, c.Name
	for _, u := range cp.Updates {
		kind := cp.Class.State[u.AttrIdx].Kind
		ui := Update{
			AttrIdx: u.AttrIdx,
			Kind:    kind,
			VecKind: kind == value.KindNumber || kind == value.KindBool || kind == value.KindRef,
		}
		collectExprReads(u.Src.Expr, &ui.Reads)
		c.Updates = append(c.Updates, ui)
	}

	for p, steps := range cp.Phases {
		s := &Script{Phase: p, Pinned: -1}
		r.collectSteps(c, s, steps, false)
		s.Vectorizable = len(steps) > 0 && r.structWhy(c, steps, true) == ""
		c.Phases = append(c.Phases, s)
	}
	for _, h := range cp.Handlers {
		s := &Script{Phase: -1}
		collectExprReads(h.Src.Cond, &s.Reads)
		r.collectSteps(c, s, h.Body, false)
		c.Handlers = append(c.Handlers, s)
	}

	// The cross-self-emission hazard: an effect attribute some phase (not
	// handler) feeds by a direct targeted emission into the own class, and
	// the phases that also fold a self-emission into it.
	c.CrossSelf = make([]bool, len(cp.Class.Effects))
	for _, s := range c.Phases {
		for _, e := range s.Emits {
			if e.Targeted && e.Class == name && e.AccumSlot < 0 && !e.InAtomic {
				c.CrossSelf[e.Attr] = true
			}
		}
	}
	for _, s := range c.Phases {
		for _, e := range s.Emits {
			if s.Pinned < 0 && e.SelfDirect(name) && c.CrossSelf[e.Attr] {
				s.Pinned = e.Attr
			}
		}
	}
}

// PinnedBy lists the structurally vectorizable phases that fold a direct
// self-emission into effect attribute a, which CrossSelf[a] keeps scalar.
func (c *Class) PinnedBy(a int) []int {
	if !c.CrossSelf[a] {
		return nil
	}
	var out []int
	for p, s := range c.Phases {
		if s.Vectorizable && slices.ContainsFunc(s.Emits, func(e Emit) bool { return e.Attr == a && e.SelfDirect(c.Name) }) {
			out = append(out, p)
		}
	}
	return out
}

// SelfDirect reports a direct self-emission of class: no target, no
// accumulator, no atomic block.
func (e Emit) SelfDirect(class string) bool {
	return !e.Targeted && e.Class == class && e.AccumSlot < 0 && !e.InAtomic
}

// collectSteps walks one step list, recording reads, emissions, joins and
// atomic sites into the script and class. Mirrors the engine's site
// collection order exactly: nested structures are entered in step order,
// and a JoinSpec's Inner steps are walked in addition to the general-form
// body (they are separately compiled copies of the same contributions).
func (r *Result) collectSteps(c *Class, s *Script, steps []compile.Step, inAtomic bool) {
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.LetStep:
			collectExprReads(st.Src, &s.Reads)
		case *compile.IfStep:
			collectExprReads(st.CondSrc, &s.Reads)
			r.collectSteps(c, s, st.Then, inAtomic)
			r.collectSteps(c, s, st.Else, inAtomic)
		case *compile.EmitStep:
			collectExprReads(st.ValSrc, &s.Reads)
			if st.KeySrc != nil {
				collectExprReads(st.KeySrc, &s.Reads)
			}
			e := Emit{
				Step:      st,
				Class:     st.Class,
				Attr:      st.AttrIdx,
				Targeted:  st.TargetFn != nil,
				InAtomic:  inAtomic,
				AccumSlot: st.AccumSlot,
				SetInsert: st.SetInsert,
				Pos:       st.Pos,
			}
			if st.AccumSlot < 0 {
				if tc := r.Prog.Classes[st.Class]; tc != nil && st.AttrIdx < len(tc.Class.Effects) {
					e.Comb = tc.Class.Effects[st.AttrIdx].Comb
				}
			}
			s.Emits = append(s.Emits, e)
		case *compile.AccumStep:
			if st.SourceFn == nil {
				addExtent(&s.Reads, st.SourceClass)
			} else if st.Src != nil {
				collectExprReads(st.Src.Source, &s.Reads)
			}
			j := r.analyzeAccum(c, s, st)
			c.Joins = append(c.Joins, j)
			r.joins[st] = j
			r.collectSteps(c, s, st.Body, inAtomic)
			if st.Join != nil {
				r.collectSteps(c, s, st.Join.Inner, inAtomic)
			}
		case *compile.AtomicStep:
			a := r.analyzeAtomic(c, s, st)
			c.Atomics = append(c.Atomics, a)
			r.atomics[st] = a
			r.collectSteps(c, s, st.Body, true)
		}
	}
}

func (r *Result) analyzeAccum(c *Class, s *Script, st *compile.AccumStep) *Join {
	j := &Join{
		Step:           st,
		Class:          c.Name,
		Phase:          s.Phase,
		SourceClass:    st.SourceClass,
		ComputedSource: st.SourceFn != nil,
		Indexable:      st.Join != nil,
	}
	if st.Join != nil {
		j.RangeDims = len(st.Join.Ranges)
		j.EqDims = len(st.Join.Eqs)
		for d, rd := range st.Join.Ranges {
			if rd.SelfOnly {
				j.SelfOnlyDims++
			}
			if (len(rd.Lo) == 0) != (len(rd.Hi) == 0) {
				j.HalfOpen = append(j.HalfOpen, d)
			}
		}
	}
	j.Partitionable = j.Phase >= 0 && j.SelfOnlyDims > 0
	return j
}

// structWhy is the structural half of phase vectorizability: it names the
// first step that keeps the phase scalar, "" when every step is a let, an
// if, a top-level accum loop with an analyzed join (its result becomes a
// lane when the engine hoists the site), a scalar emission of a columnar
// payload kind, or an atomic block whose intents kernels can build. Nested
// accum loops, accumulator contributions and set effects keep the phase
// scalar.
func (r *Result) structWhy(c *Class, steps []compile.Step, top bool) string {
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.LetStep:
		case *compile.IfStep:
			if why := r.structWhy(c, st.Then, false); why != "" {
				return why
			}
			if why := r.structWhy(c, st.Else, false); why != "" {
				return why
			}
		case *compile.AccumStep:
			if !top {
				return "a nested accum loop"
			}
			if st.Join == nil {
				return "an accum loop without an index-servable join"
			}
		case *compile.EmitStep:
			if st.SetInsert {
				return "a set effect"
			}
			if st.AccumSlot >= 0 || (st.TargetFn == nil && st.Class != c.Name) {
				return "an accumulator contribution"
			}
			// String effects are columnar too for self-emissions: the world
			// dictionary gives string payloads a numeric code lane, and the
			// engine decodes at the accumulator boundary. Targeted
			// emissions carry plain payloads into the shard sink.
			kind := r.Prog.Classes[st.Class].Class.Effects[st.AttrIdx].Kind
			if kind != value.KindNumber && kind != value.KindBool && kind != value.KindRef &&
				(kind != value.KindString || st.TargetFn != nil) {
				return "a " + kind.String() + " emission with no payload lane"
			}
		case *compile.AtomicStep:
			if why := r.atomicWhy(c, st); why != "" {
				return why
			}
		}
	}
	return ""
}

// atomicWhy names what keeps an atomic block's intents off the kernel path,
// "" when kernels can build them: each intent is filled from the guard mask
// and one payload lane per emission (plus a target lane for a targeted
// one), so the block may hold only emissions whose value is the effect's
// number, bool or ref payload (sem admits only sum/avg/count effects here,
// so there is no key lane). Every intent also carries a copy of the
// executing row's frame, which lanes do not keep, so the class must have
// no frame slot at all.
func (r *Result) atomicWhy(c *Class, st *compile.AtomicStep) string {
	if n := c.Plan.NumSlots; n > 0 {
		return fmt.Sprintf("a live frame slot (%s has %d, and each intent copies the frame)", c.Name, n)
	}
	for _, b := range st.Body {
		e, ok := b.(*compile.EmitStep)
		if !ok {
			return "a statement other than an emission inside the block"
		}
		kind, vk := r.Prog.Classes[e.Class].Class.Effects[e.AttrIdx].Kind, e.ValSrc.Type().Kind
		if vk != kind || (kind != value.KindNumber && kind != value.KindBool && kind != value.KindRef) {
			return fmt.Sprintf("an emission that does not compile (a %s value into a %s effect has no intent lane)", vk, kind)
		}
	}
	return ""
}

// classifyFold is the combinator lattice: every ⊕ is commutative as a
// mathematical value, but only order-insensitive *bit patterns* count as
// exact. Float Sum/Avg reassociate rounding, so they are inexact; MinBy/
// MaxBy are exact only through their deterministic key tie-break, which
// the engine preserves by fixing contribution order.
func classifyFold(comb combinator.Kind, kind value.Kind) Fold {
	f := Fold{Comb: comb, Kind: kind, Commutative: true, Exact: true}
	switch comb {
	case combinator.Sum, combinator.Avg:
		if kind == value.KindNumber {
			f.Exact = false
		}
	case combinator.MinBy, combinator.MaxBy:
		// Deterministic only under a fixed contribution order when keys
		// tie; the engine treats them as order-sensitive.
		f.Exact = false
	}
	return f
}

// --- read-set collection ---

func addState(rs *ReadSet, class string, attr int) {
	for _, a := range rs.State {
		if a.Class == class && a.Attr == attr {
			return
		}
	}
	rs.State = append(rs.State, AttrRef{Class: class, Attr: attr})
}

func addEffect(rs *ReadSet, attr int) {
	for _, a := range rs.Effects {
		if a == attr {
			return
		}
	}
	rs.Effects = append(rs.Effects, attr)
}

func addSlot(rs *ReadSet, slot int) {
	for _, s := range rs.Slots {
		if s == slot {
			return
		}
	}
	rs.Slots = append(rs.Slots, slot)
}

func addExtent(rs *ReadSet, class string) {
	for _, c := range rs.Extents {
		if c == class {
			return
		}
	}
	rs.Extents = append(rs.Extents, class)
}

// collectExprReads records every read an expression performs. Own-row
// state reads carry an empty class name (the executing class is implied by
// context); cross-object reads carry the referenced class.
func collectExprReads(e ast.Expr, rs *ReadSet) {
	switch e := e.(type) {
	case nil:
	case *ast.NumLit, *ast.BoolLit, *ast.StrLit, *ast.NullLit:
	case *ast.Ident:
		switch e.Bind.Kind {
		case ast.BindStateAttr:
			addState(rs, "", e.Bind.AttrIdx)
		case ast.BindEffectAttr:
			addEffect(rs, e.Bind.AttrIdx)
		case ast.BindLocal, ast.BindIter:
			addSlot(rs, e.Bind.Slot)
		case ast.BindExtent:
			addExtent(rs, e.Bind.Class)
		case ast.BindSelf:
			rs.Self = true
		}
	case *ast.FieldExpr:
		addState(rs, e.Class, e.AttrIdx)
		collectExprReads(e.X, rs)
	case *ast.UnaryExpr:
		collectExprReads(e.X, rs)
	case *ast.BinaryExpr:
		collectExprReads(e.X, rs)
		collectExprReads(e.Y, rs)
	case *ast.CondExpr:
		collectExprReads(e.C, rs)
		collectExprReads(e.T, rs)
		collectExprReads(e.F, rs)
	case *ast.CallExpr:
		if e.Builtin == ast.BSelfFn {
			rs.Self = true
		}
		for _, arg := range e.Args {
			collectExprReads(arg, rs)
		}
	}
}
