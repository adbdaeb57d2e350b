package engine

// Build-time analysis of atomic blocks (§3.1) for the batched admission
// driver. For every compiled AtomicStep the analysis determines, per
// constraint, (a) the conflict read set — which rows a constraint's
// evaluation can observe through the tentative view — and (b) whether the
// constraint compiles to a vexpr mask kernel over the columnar tentative
// state, the same shape as the batched-join residual conjuncts.
//
// The key property certified is *read-set stability*: every cross-object
// read in a constraint must go through a base expression whose value cannot
// change during admission. Stable bases are committed-state reads (self,
// frame slots, ref attributes without update rules, chains of those); their
// referents are resolvable once per transaction before grouping, which is
// what makes conflict groups — transactions whose touched rows are disjoint
// — provably commutative: a group's admission outcome and effect-buffer
// residue depend only on committed state plus the group's own accumulators.
// A constraint reading through an unstable base (a rule-updated ref
// attribute, a conditional ref) has an unbounded read set, so its whole
// site is marked unanalyzable and every batch containing it falls back to
// the serial loop.
//
// The stability walk itself lives in the unified static-analysis layer
// (internal/analysis, stability.go); this file resolves its verdicts
// against the engine's compiled kernels: a constraint becomes a vexpr mask
// kernel when it is stable, every rule-updated read it performs has a
// vectorized tentative-view column, and the expression compiles.

import (
	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/sgl/ast"
	"repro/internal/vexpr"
)

// txnConstraint is one analyzed constraint: the scalar closure (the
// semantic reference, aligned with AtomicStep.Constraints) plus its batch
// kernel when every read has a columnar tentative representation. A nil
// prog evaluates per-lane through tentWorld instead — exact by group
// disjointness.
type txnConstraint struct {
	fn   expr.Fn
	prog *vexpr.Prog
}

// txnBase is one stable base expression through which a constraint reads a
// rule-updated attribute of another object. It evaluates over committed
// state when the intent is logged (fn per row, or a kernel lane from src);
// the referenced row joins the transaction's conflict read set.
type txnBase struct {
	fn    expr.Fn
	class string
	src   ast.Expr
}

// txnBases lists an atomic block's stable bases in constraint walk order,
// or nil when some constraint is unstable (its site admits serially and
// claims no bases). Kernels compute one lane per base (vecAtomic).
func txnBases(ai *analysis.Atomic) []txnBase {
	var out []txnBase
	for _, ca := range ai.Constraints {
		if !ca.Stable {
			return nil
		}
		for _, rr := range ca.RuleReads {
			if rr.Base != nil {
				out = append(out, txnBase{fn: expr.Compile(rr.Base), class: rr.Class, src: rr.Base})
			}
		}
	}
	return out
}

// txnViewAttr names one (class, attr) column of the tentative post-update
// view a site's kernels read, with the attr's vectorized update rule.
// Resolved per world (it holds the world's classRT) from the compile-time
// txnViewRef.
type txnViewAttr struct {
	rt   *classRT
	attr int
	prog *vexpr.Prog
}

// txnViewRef is the shareable form of txnViewAttr: the class by name
// instead of by per-world runtime.
type txnViewRef struct {
	class string
	attr  int
	prog  *vexpr.Prog
}

// txnProgs is the immutable build-time analysis of one atomic block,
// computed once per Compiled and shared by every world.
type txnProgs struct {
	// analyzable is false when any constraint's read set cannot be bounded
	// at build time; such sites always admit through the serial loop.
	analyzable bool

	cons  []txnConstraint
	bases []txnBase

	// Kernel evaluation requirements, unioned over kernel constraints.
	cols     []int // self state attrs loaded by kernels
	slots    []int // frame slots loaded by kernels
	needIDs  bool
	viewRefs []txnViewRef
}

// txnSite is the admission runtime of one atomic block: the shared
// build-time analysis (embedded) plus this world's resolved view columns,
// base runtimes and emission slots, and retained per-admission lane
// scratch for the batched validator.
type txnSite struct {
	rt   *classRT
	step *compile.AtomicStep

	*txnProgs

	views   []txnViewAttr
	baseRTs []*classRT // the class runtime of each base, parallel to bases
	emSlots []txnSlot  // emission slots (txnlog.go)
	ord     int        // index of the site's log in every shard sink

	// Per-admission lane state (txnbatch.go), generation-stamped.
	gen      uint64
	logs     []*txnLog // the logs holding this admission's intents
	lanes    []int32   // indices into the admission-order transaction slice
	laneRows []int32   // each lane's source row
	envCols  [][]float64
	colBufs  [][]float64 // backing storage, parallel to cols
	slotVecs [][]float64
	slotBufs [][]float64 // backing storage, parallel to slots
	idBuf    []float64
	outBuf   []float64
	passBuf  []bool
	env      vexpr.Env
}

// collectTxnSites registers the per-world admission runtime for every
// atomic block, resolving the shared analysis's view refs against this
// world's class runtimes.
func (w *World) collectTxnSites() {
	w.txnSites = make(map[*compile.AtomicStep]*txnSite)
	for _, rt := range w.order {
		forEachStep(rt.plan, func(s compile.Step) {
			if step, ok := s.(*compile.AtomicStep); ok {
				site := &txnSite{rt: rt, step: step, txnProgs: w.compiled.txns[step], ord: len(w.txnSites)}
				for _, ref := range site.viewRefs {
					site.views = append(site.views, txnViewAttr{rt: w.classes[ref.class], attr: ref.attr, prog: ref.prog})
				}
				for _, b := range site.bases {
					site.baseRTs = append(site.baseRTs, w.classes[b.class])
				}
				walkSteps(step.Body, func(s compile.Step) {
					// Intent emissions in pre-order; an accum body may hold
					// only its accumulator's (sem).
					if e, ok := s.(*compile.EmitStep); ok && e.AccumSlot < 0 {
						site.emSlots = append(site.emSlots, txnSlot{rt: w.classes[e.Class], attr: e.AttrIdx, step: e, self: e.TargetFn == nil})
					}
				})
				w.txnSites[step] = site
			}
		})
	}
}

// vecRuleProg returns the vectorized update-rule kernel for a state attr,
// or nil when the attr's rule stayed on the closure path (or has no rule).
func vecRuleProg(v *vecClassProgs, attr int) *vexpr.Prog {
	if v == nil {
		return nil
	}
	for _, u := range v.updates {
		if u.attrIdx == attr {
			return u.prog
		}
	}
	return nil
}

func (c *Compiled) analyzeTxnProgs(step *compile.AtomicStep) *txnProgs {
	site := &txnProgs{analyzable: true}
	ai := c.ai.Atomic(step)
	colSeen := make(map[int]bool)
	slotSeen := make(map[int]bool)
	viewSeen := make(map[txnViewKey]bool)
	site.bases = txnBases(ai)
	for ci, src := range step.Srcs {
		cons := txnConstraint{fn: step.Constraints[ci]}
		ca := ai.Constraints[ci]
		if !ca.Stable {
			site.analyzable = false
			site.cons = append(site.cons, cons)
			continue
		}
		// Resolve the constraint's rule-updated reads against the compiled
		// update-rule kernels: every one needs a vectorized rule to have a
		// tentative-view column. (Cross-object reads register their stable
		// base in the conflict read set through txnBases, which feeds
		// grouping for kernel and closure constraints alike.)
		kernelOK := true
		var views []txnViewRef
		for _, rr := range ca.RuleReads {
			tcc := c.classes[rr.Class]
			prog := vecRuleProg(tcc.vec, rr.Attr)
			if prog == nil {
				kernelOK = false
				continue
			}
			views = append(views, txnViewRef{class: rr.Class, attr: rr.Attr, prog: prog})
		}
		if kernelOK {
			if prog, ok := vexpr.CompileOpts(src, c.kernelOpts(func(int) bool { return true })); ok {
				c.addFusedOps(prog)
				cons.prog = prog
				site.needIDs = site.needIDs || ca.NeedIDs || prog.NeedIDs()
				for _, col := range ca.Cols {
					if !colSeen[col] {
						colSeen[col] = true
						site.cols = append(site.cols, col)
					}
				}
				for _, sl := range ca.Slots {
					if !slotSeen[sl] {
						slotSeen[sl] = true
						site.slots = append(site.slots, sl)
					}
				}
				for _, va := range views {
					k := txnViewKey{class: va.class, attr: va.attr}
					if !viewSeen[k] {
						viewSeen[k] = true
						site.viewRefs = append(site.viewRefs, va)
					}
				}
			}
		}
		site.cons = append(site.cons, cons)
	}
	return site
}

type txnViewKey struct {
	class string
	attr  int
}
