package sem

import (
	"strings"
	"testing"

	"repro/internal/combinator"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/parser"
	"repro/internal/value"
)

func analyze(t *testing.T, src string) (*Info, error) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(p)
}

func mustAnalyze(t *testing.T, src string) *Info {
	t.Helper()
	info, err := analyze(t, src)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := analyze(t, src)
	if err == nil {
		t.Fatalf("Analyze succeeded, want error containing %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

const okSrc = `
class Unit {
  state:
    number x = 0;
    number hp = 100;
    ref<Unit> boss = null;
  effects:
    number damage : sum;
    number vx : avg;
  update:
    hp = hp - damage;
  run {
    let d = x * 2;
    accum number cnt with sum over Unit u from Unit {
      if (u.x >= x - d && u.x <= x + d) {
        cnt <- 1;
      }
    } in {
      if (cnt > 1) {
        vx <- 1;
      }
    }
    waitNextTick;
    if (boss != null) {
      boss.damage <- 1;
    }
  }
}
`

func TestAnalyzeOK(t *testing.T) {
	info := mustAnalyze(t, okSrc)
	cls, ok := info.Schema.Class("Unit")
	if !ok {
		t.Fatal("schema missing Unit")
	}
	if len(cls.State) != 3 || len(cls.Effects) != 2 {
		t.Fatalf("schema shape: %d state, %d effects", len(cls.State), len(cls.Effects))
	}
	if a, _ := cls.EffectAttr("damage"); a.Comb != combinator.Sum {
		t.Errorf("damage comb = %v", a.Comb)
	}
	cd := info.Program.Classes[0]
	if cd.NumPhases != 2 {
		t.Errorf("NumPhases = %d, want 2", cd.NumPhases)
	}
	if cd.NumSlots < 3 { // d, cnt, u
		t.Errorf("NumSlots = %d", cd.NumSlots)
	}
	// The accum body's contribution resolved to the accumulator slot.
	acc := cd.Run.Stmts[1].(*ast.AccumStmt)
	inner := acc.Body.Stmts[0].(*ast.IfStmt).Then.Stmts[0].(*ast.EffectAssign)
	if inner.AccumSlot != acc.Slot {
		t.Errorf("contribution AccumSlot = %d, want %d", inner.AccumSlot, acc.Slot)
	}
	// boss.damage resolved to Unit's effect index.
	guard := cd.Run.Stmts[3].(*ast.IfStmt)
	ea := guard.Then.Stmts[0].(*ast.EffectAssign)
	if ea.TargetClass != "Unit" || ea.AttrIdx != cls.EffectIndex("damage") {
		t.Errorf("cross-object emission resolution: %+v", ea)
	}
}

func TestStateReadOnlyEffectWriteOnly(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { x <- 1; }
}`, "no effect attribute")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    if (e > 0) { x <- 1; }
  }
}`, "write-only")
	// Effects readable in update rules.
	mustAnalyze(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  update: x = x + e;
}`)
}

func TestAccumRules(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    accum number c with sum over C u from C {
      if (c > 0) { c <- 1; }
    } in { }
  }
}`, "write-only inside the accum body")
	wantErr(t, `
class C {
  state: number x = 0;
  run {
    accum number c with sum over C u from C {
      accum number d with sum over C v from C { } in { }
    } in { }
  }
}`, "nested accum")
	wantErr(t, `
class C {
  state: number x = 0;
  run {
    accum number c with bogus over C u from C { } in { }
  }
}`, "unknown combinator")
	wantErr(t, `
class C {
  state: number x = 0;
  run {
    accum number c with sum over D u from D { } in { }
  }
}`, "unknown class")
	// Accum over a set<ref> source is fine; accum in the in-block is fine.
	mustAnalyze(t, `
class C {
  state:
    number x = 0;
    set<ref<C>> friends;
  run {
    accum number c with sum over C u from friends {
      c <- u.x;
    } in {
      accum number d with max over C v from C {
        d <- v.x;
      } in { }
    }
  }
}`)
}

func TestWaitRestrictions(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    if (x > 0) { waitNextTick; }
  }
}`, "top level")
	wantErr(t, `
class C {
  state: number x = 0;
  run {
    accum number c with sum over C u from C {
      waitNextTick;
    } in { }
  }
}`, "top level")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    atomic { waitNextTick; e <- 1; }
  }
}`, "top level")
}

func TestLocalsDoNotSurviveWait(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    let a = 1;
    waitNextTick;
    e <- a;
  }
}`, "undefined name")
}

func TestAtomicRules(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : max;
  run {
    atomic (x >= 0) { e <- 1; }
  }
}`, "invertible combinator")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    atomic (x + 1) { e <- 1; }
  }
}`, "want bool")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    atomic { atomic { e <- 1; } }
  }
}`, "nested atomic")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run {
    atomic (x >= 0) {
      accum number n with sum over C o from C { o.e <- 1; n <- 1; } in { e <- n; }
    }
  }
}`, "cannot sit in an accum body")
}

func TestTypeErrors(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { e <- true; }
}`, "assigning bool")
	wantErr(t, `
class C {
  state: bool b = false;
  effects: number e : sum;
  run { if (b + 1 > 0) { e <- 1; } }
}`, "needs numbers")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { if (x) { e <- 1; } }
}`, "want bool")
	wantErr(t, `
class C {
  state: set<number> s;
  effects: number e : sum;
  run { if (s == s) { e <- 1; } }
}`, "sets are compared")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: ref<C> r : maxby;
  run { r <- self(); }
}`, "requires a `by <key>`")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { e <- 1 by 2; }
}`, "only valid for minby/maxby")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { e <= 1; }
}`, "inserts into set effects")
}

func TestSchemaErrors(t *testing.T) {
	wantErr(t, `
class C {
  state:
    number x = 0;
    number x = 1;
}`, "duplicate attribute")
	wantErr(t, `
class C {
  state: ref<Nope> r = null;
}`, "unknown class")
	wantErr(t, `
class C { state: number x = 0; }
class C { state: number y = 0; }
`, "duplicate class")
	wantErr(t, `
class C {
  effects: bool b : sum;
}`, "cannot combine")
	wantErr(t, `
class C {
  state: number x = 0;
  update: y = 1;
}`, "unknown state attribute")
	wantErr(t, `
class C {
  state: number x = 0 by physics;
  update: x = 1;
}`, "owned by component")
}

func TestHandlerRules(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  handlers:
    when (x) { e <- 1; }
}`, "want bool")
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  handlers:
    when (x > 0) {
      accum number c with sum over C u from C { } in { }
    }
}`, "not allowed inside handlers")
}

func TestAnalyzeExpr(t *testing.T) {
	info := mustAnalyze(t, okSrc)
	e, err := parser.ParseExpr("hp < 50 && x > 0")
	if err != nil {
		t.Fatal(err)
	}
	ty, err := info.AnalyzeExpr("Unit", e)
	if err != nil {
		t.Fatal(err)
	}
	if ty.Kind != value.KindBool {
		t.Errorf("type = %v", ty)
	}
	e2, _ := parser.ParseExpr("nonexistent > 1")
	if _, err := info.AnalyzeExpr("Unit", e2); err == nil {
		t.Error("undefined name must error")
	}
	if _, err := info.AnalyzeExpr("Nope", e); err == nil {
		t.Error("unknown class must error")
	}
}

func TestShadowingRejected(t *testing.T) {
	wantErr(t, `
class C {
  state: number x = 0;
  effects: number e : sum;
  run { let x = 1; e <- x; }
}`, "shadows a class attribute")
	wantErr(t, `
class C {
  state: number y = 0;
  effects: number e : sum;
  run { let a = 1; let a = 2; e <- a; }
}`, "redeclared local")
}
