package analysis_test

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func analyzeSrc(t *testing.T, name, src string) *analysis.Result {
	t.Helper()
	return analysis.Analyze(compileSrc(t, name, src))
}

// TestFoldClassification pins the commutativity/exactness lattice: every
// shipped combinator is commutative; float sum/avg and the order-sensitive
// minby/maxby tie-breaks are inexact, everything else folds exactly.
func TestFoldClassification(t *testing.T) {
	r := analyzeSrc(t, "guard", core.SrcGuard)
	g := r.Class("Guard")
	if g == nil {
		t.Fatal("no Guard class")
	}
	byName := map[string]analysis.Fold{}
	for i, f := range g.Folds {
		byName[g.Plan.Class.Effects[i].Name] = f
	}
	for name, f := range byName {
		if !f.Commutative {
			t.Errorf("%s: shipped combinators are all commutative", name)
		}
	}
	if byName["damage"].Exact {
		t.Error("damage (sum over numbers) must be inexact: float addition reassociates")
	}
	if byName["dx"].Exact {
		t.Error("dx (avg over numbers) must be inexact")
	}
	if !byName["flee"].Exact {
		t.Error("flee (max) must be exact")
	}

	rts := analyzeSrc(t, "rts", core.SrcRTS).Class("Soldier")
	// The maxby accumulator is a frame slot, not an effect, so check the
	// classifier through fig2's count-like sum instead plus rts damage.
	for i, f := range rts.Folds {
		name := rts.Plan.Class.Effects[i].Name
		if name == "damage" && f.Exact {
			t.Error("Soldier.damage (sum) must be inexact")
		}
	}
}

// TestCrossSelfEmit pins the vectorization hazard, per effect attribute:
// rts soldiers emit damage into their own class through a ref target but
// self-emit only vx/vy, so no phase is pinned; flock boids only self-emit;
// and a phase that self-emits into an attribute it also targets is pinned.
func TestCrossSelfEmit(t *testing.T) {
	c := analyzeSrc(t, "rts", core.SrcRTS).Class("Soldier")
	if !c.CrossSelf[c.Plan.Class.EffectIndex("damage")] || c.CrossSelf[c.Plan.Class.EffectIndex("vx")] {
		t.Errorf("Soldier: foe.damage (only) is a cross emission into the own class, got %v", c.CrossSelf)
	}
	if p := c.Phases[0]; p.Pinned >= 0 || !p.Vectorizable {
		t.Errorf("Soldier: phase 0 must stay vectorizable and unpinned, got pinned %d", p.Pinned)
	}
	if c := analyzeSrc(t, "flock", core.SrcFlock).Class("Boid"); slices.Contains(c.CrossSelf, true) {
		t.Error("Boid: only self-emissions, CrossSelf must be all false")
	}
	// Atomic bodies are exempt: the admission driver owns their ordering.
	if c := analyzeSrc(t, "market", core.SrcMarket).Class("Trader"); slices.Contains(c.CrossSelf, true) {
		t.Error("Trader: cross emissions inside atomic blocks must not set CrossSelf")
	}
	c = analyzeSrc(t, "pinned", srcSelfAndTargeted).Class("Duelist")
	if p := c.Phases[0]; p.Pinned != c.Plan.Class.EffectIndex("hits") {
		t.Errorf("Duelist: phase 0 self-emits into hits, which it also targets: pinned %d", p.Pinned)
	}
	if got := c.PinnedBy(c.Plan.Class.EffectIndex("hits")); !slices.Equal(got, []int{0}) {
		t.Errorf("Duelist: PinnedBy(hits) = %v, want [0]", got)
	}
}

const srcSelfAndTargeted = `
class Duelist {
  state:
    number x = 0;
    ref<Duelist> rival = null;
  effects:
    number hits : sum;
  update:
    x = x + hits;
  run {
    if (rival != null) {
      rival.hits <- 0.5;
    }
    hits <- 0.25;
  }
}
`

// TestVectorizablePhases pins structural phase eligibility: vehicles (lets,
// ifs, self-emissions), Fig2 (a top-level accum loop, whose hoisted result
// the kernels read as a lane) and the market (an atomic block whose intents
// kernels build) vectorize; an accum loop nested in an if does not.
func TestVectorizablePhases(t *testing.T) {
	v := analyzeSrc(t, "vehicles", core.SrcVehicles).Class("Vehicle")
	anyVec := false
	for _, s := range v.Phases {
		anyVec = anyVec || s.Vectorizable
	}
	if !anyVec {
		t.Error("Vehicle: expected at least one structurally vectorizable phase")
	}
	f := analyzeSrc(t, "fig2", core.SrcFig2).Class("Unit")
	for p, s := range f.Phases {
		if !s.Vectorizable {
			t.Errorf("Unit phase %d: a top-level accum loop must not keep the phase scalar", p)
		}
	}
	if m := analyzeSrc(t, "market", core.SrcMarket).Class("Trader"); !m.Phases[0].Vectorizable {
		t.Error("Trader: a guarded atomic block of payload emissions in a frame-free class must not keep the phase scalar")
	}
	n := analyzeSrc(t, "nested", srcNestedAccum).Class("Unit")
	if n.Phases[0].Vectorizable {
		t.Error("Unit: an accum loop nested in an if must keep the phase scalar")
	}
}

const srcNestedAccum = `
class Unit {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
  run {
    if (x > 0) {
      accum number c with sum over Unit u from Unit {
        if (u.x >= x - 1 && u.x <= x + 1) {
          c <- 1;
        }
      } in {
        d <- c;
      }
    }
  }
}
`

// TestStability pins the §3.1 constraint analysis on the marketplace: both
// atomic constraints are stable; `gold >= 0` reads an own-row rule-updated
// attr (no base), `seller.stock >= 0` reads through the stable seller ref
// (one cross base).
func TestStability(t *testing.T) {
	c := analyzeSrc(t, "market", core.SrcMarket).Class("Trader")
	if len(c.Atomics) != 1 {
		t.Fatalf("expected 1 atomic site, got %d", len(c.Atomics))
	}
	at := c.Atomics[0]
	if len(at.Constraints) != 2 {
		t.Fatalf("expected 2 constraints, got %d", len(at.Constraints))
	}
	for i, cons := range at.Constraints {
		if !cons.Stable {
			t.Errorf("constraint %d: must be stable", i)
		}
	}
	if rr := at.Constraints[0].RuleReads; len(rr) != 1 || rr[0].Base != nil || rr[0].Class != "Trader" {
		t.Errorf("gold >= 0: want one own-row rule read, got %+v", rr)
	}
	if rr := at.Constraints[1].RuleReads; len(rr) != 1 || rr[0].Base == nil {
		t.Errorf("seller.stock >= 0: want one cross-base rule read, got %+v", rr)
	}
}

// TestJoinFacts pins join-shape statics: flock's sight-box join has
// self-only range dims on both axes and is partitionable; a half-open
// range is recorded as such and the corpus's one-sided join is spotted.
func TestJoinFacts(t *testing.T) {
	b := analyzeSrc(t, "flock", core.SrcFlock).Class("Boid")
	if len(b.Joins) == 0 {
		t.Fatal("Boid: expected indexed joins")
	}
	for _, j := range b.Joins {
		if j.SelfOnlyDims == 0 || !j.Partitionable {
			t.Errorf("Boid join phase %d: want self-only partitionable dims, got %+v", j.Phase, j)
		}
		if len(j.HalfOpen) != 0 {
			t.Errorf("Boid join phase %d: two-sided boxes must not be half-open", j.Phase)
		}
	}
}
