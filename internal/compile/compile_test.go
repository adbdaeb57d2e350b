package compile

import (
	"strings"
	"testing"

	"repro/internal/combinator"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/sgl/token"
)

func load(t *testing.T, src string) *Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prog, err := CompileChecked(info)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

const fig2 = `
class Unit {
  state:
    number x = 0;
    number y = 0;
    number range = 10;
    number hp = 100;
  effects:
    number damage : sum;
  update:
    hp = hp - damage;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (u.x >= x - range && u.x <= x + range &&
          u.y >= y - range && u.y <= y + range) {
        cnt <- 1;
      }
    } in {
      if (cnt > 3) { damage <- cnt; }
    }
  }
}
`

func TestJoinAnalysisRecognizesRectangle(t *testing.T) {
	prog := load(t, fig2)
	cp := prog.Classes["Unit"]
	if cp.NumPhases != 1 || len(cp.Phases) != 1 {
		t.Fatalf("phases: %d", cp.NumPhases)
	}
	var acc *AccumStep
	for _, s := range cp.Phases[0] {
		if a, ok := s.(*AccumStep); ok {
			acc = a
		}
	}
	if acc == nil {
		t.Fatal("no accum step compiled")
	}
	if acc.Comb != combinator.Sum {
		t.Errorf("comb = %v", acc.Comb)
	}
	j := acc.Join
	if j == nil {
		t.Fatal("join not analyzed")
	}
	if len(j.Ranges) != 2 {
		t.Fatalf("ranges = %d, want 2 (x and y)", len(j.Ranges))
	}
	for _, r := range j.Ranges {
		if len(r.Lo) != 1 || len(r.Hi) != 1 {
			t.Errorf("range dim %d: lo=%d hi=%d bounds", r.AttrIdx, len(r.Lo), len(r.Hi))
		}
	}
	if j.Residual != nil {
		t.Error("fully rectangular predicate must leave no residual")
	}
	if len(j.Eqs) != 0 {
		t.Error("no equality conjuncts expected")
	}
}

func TestJoinAnalysisEqualityAndResidual(t *testing.T) {
	prog := load(t, `
class Unit {
  state:
    number x = 0;
    number player = 0;
    number hp = 100;
  effects:
    number damage : sum;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (u.player == player && u.x >= x - 5 && u.hp * 2 > hp) {
        cnt <- 1;
      }
    } in { }
  }
}
`)
	cp := prog.Classes["Unit"]
	acc := findAccum(cp.Phases[0])
	j := acc.Join
	if len(j.Eqs) != 1 {
		t.Fatalf("eqs = %d", len(j.Eqs))
	}
	if len(j.Ranges) != 1 || len(j.Ranges[0].Lo) != 1 || len(j.Ranges[0].Hi) != 0 {
		t.Fatalf("ranges = %+v", j.Ranges)
	}
	if j.Residual == nil {
		t.Error("the hp conjunct must stay in the residual")
	}
}

// TestJoinAnalysisKeyConjunct: the first `u.k != k` between attributes of
// one payload or string kind becomes the join's key conjunct and leaves the
// residual; a second one and one against a literal stay residual
// conjuncts.
func TestJoinAnalysisKeyConjunct(t *testing.T) {
	prog := load(t, `
class Unit {
  state:
    number x = 0;
    string side = "";
    number team = 0;
    number clan = 0;
  effects:
    number damage : sum;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (side != u.side && u.team != team && u.clan != 3 && u.x >= x - 5) {
        cnt <- 1;
      }
    } in { }
  }
}
`)
	cp := prog.Classes["Unit"]
	j := findAccum(cp.Phases[0]).Join
	side := cp.Class.StateIndex("side")
	if j.Key == nil || j.Key.AttrIdx != side || j.Key.SelfAttr != side || j.Key.Op != token.NEQ {
		t.Fatalf("key = %+v, want side != side", j.Key)
	}
	if len(j.ResidualSrcs) != 2 {
		t.Fatalf("residual conjuncts = %d, want the team and clan ones", len(j.ResidualSrcs))
	}
	for _, src := range j.ResidualSrcs {
		if strings.Contains(ast.ExprString(src), "side") {
			t.Errorf("key conjunct %s is also residual", ast.ExprString(src))
		}
	}
	if got := Explain(cp); !strings.Contains(got, "θ: key Unit.side != side — in the index") || !strings.Contains(got, "θ: residual predicate") {
		t.Errorf("explain does not name the key and the residual:\n%s", got)
	}
}

func TestJoinAnalysisRejectsIterDependentBounds(t *testing.T) {
	// Bound references the iteration variable on both sides: u.x >= u.hp
	// cannot become an index range.
	prog := load(t, `
class Unit {
  state:
    number x = 0;
    number hp = 100;
  effects:
    number damage : sum;
  run {
    accum number cnt with sum over Unit u from Unit {
      if (u.x >= u.hp) {
        cnt <- 1;
      }
    } in { }
  }
}
`)
	acc := findAccum(prog.Classes["Unit"].Phases[0])
	if len(acc.Join.Ranges) != 0 || acc.Join.Residual == nil {
		t.Errorf("iter-dependent bound must be residual: %+v", acc.Join)
	}
}

func TestUnconditionalAccumHasNoIndexableJoin(t *testing.T) {
	prog := load(t, `
class Unit {
  state: number x = 0;
  run {
    accum number total with sum over Unit u from Unit {
      total <- u.x;
    } in { }
  }
}
`)
	acc := findAccum(prog.Classes["Unit"].Phases[0])
	if acc.Join == nil {
		t.Fatal("join spec must exist for explain")
	}
	if len(acc.Join.Ranges) != 0 || len(acc.Join.Eqs) != 0 {
		t.Error("unconditional body has no index-servable conjuncts")
	}
}

func TestPhaseSplitting(t *testing.T) {
	prog := load(t, `
class Bot {
  state: number a = 0;
  effects: number e : sum;
  update: a = a + e;
  run {
    e <- 1;
    waitNextTick;
    e <- 2;
    waitNextTick;
    e <- 3;
  }
}
`)
	cp := prog.Classes["Bot"]
	if cp.NumPhases != 3 {
		t.Fatalf("NumPhases = %d", cp.NumPhases)
	}
	for i, phase := range cp.Phases {
		if len(phase) != 1 {
			t.Errorf("phase %d has %d steps", i, len(phase))
		}
	}
}

func TestExplainOutput(t *testing.T) {
	prog := load(t, fig2)
	out := Explain(prog.Classes["Unit"])
	for _, want := range []string{
		"class Unit", "Γ", "rectangular range", "Unit.x", "Unit.y",
		"update: hp ←",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestOwnedAttrsRecorded(t *testing.T) {
	prog := load(t, `
class P {
  state:
    number x = 0 by physics;
    number y = 0 by physics;
    number hp = 10;
  effects:
    number vx : avg;
}
`)
	cp := prog.Classes["P"]
	if cp.OwnedBy["x"] != "physics" || cp.OwnedBy["y"] != "physics" {
		t.Errorf("OwnedBy = %v", cp.OwnedBy)
	}
	if _, ok := cp.OwnedBy["hp"]; ok {
		t.Error("hp has no owner")
	}
}

func findAccum(steps []Step) *AccumStep {
	for _, s := range steps {
		switch s := s.(type) {
		case *AccumStep:
			return s
		case *IfStep:
			if a := findAccum(s.Then); a != nil {
				return a
			}
			if a := findAccum(s.Else); a != nil {
				return a
			}
		}
	}
	return nil
}
