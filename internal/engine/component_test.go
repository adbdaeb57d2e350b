package engine

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/value"
)

// stagedSrc gives one component a number, a ref and a string attribute, a
// second component one number, and leaves hp to an expression rule.
const stagedSrc = `
class P {
  state:
    number x = 0 by mover;
    ref<P> buddy = null by mover;
    string tag = "" by mover;
    number z = 0 by other;
    number hp = 10;
  effects:
    number dhp : sum;
  update:
    hp = hp + dhp;
}
`

// stagedWorld spawns n objects with x = 100+i and registers mover and an
// idle other; the test sets mover's update before ticking.
func stagedWorld(t *testing.T, n int) (*World, []value.ID, *scripted) {
	t.Helper()
	w := newWorld(t, stagedSrc, Options{})
	mover := &scripted{name: "mover", update: func(*UpdateCtx) error { return nil }}
	other := &scripted{name: "other", update: func(*UpdateCtx) error { return nil }}
	for _, c := range []UpdateComponent{mover, other} {
		if err := w.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]value.ID, n)
	for i := range ids {
		id, err := w.Spawn("P", map[string]value.Value{"x": value.Num(float64(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return w, ids, mover
}

// drainRows returns the changefeed's rows for class P since the last drain.
func drainRows(w *World) []int32 {
	var rows []int32
	w.DrainChangeFeed(func(d ClassDelta) {
		if d.Class == "P" {
			rows = append(rows, d.Rows...)
		}
	})
	return rows
}

func xs(w *World, ids []value.ID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = w.MustGet("P", id, "x").AsNumber()
	}
	return out
}

// TestClassStageRejects pins the column API's checks: Stage only hands out
// payload columns the running component owns, State and Effect only payload
// attributes that exist.
func TestClassStageRejects(t *testing.T) {
	w, _, mover := stagedWorld(t, 2)
	mover.update = func(ctx *UpdateCtx) error {
		c, err := ctx.Class("P")
		if err != nil {
			return err
		}
		for _, attr := range []string{"z", "hp", "tag", "nope"} {
			if _, err := c.Stage(attr); err == nil {
				t.Errorf("mover staged column %s", attr)
			}
		}
		if _, err := c.State("tag"); err == nil {
			t.Error("State handed out a string column")
		}
		if _, err := c.Effect("nope"); err == nil {
			t.Error("Effect resolved an unknown effect")
		}
		if _, err := ctx.Class("Nope"); err == nil {
			t.Error("Class resolved an unknown class")
		}
		if _, err := c.Stage("buddy"); err != nil {
			t.Errorf("ref column: %v", err)
		}
		_, err = c.Stage("x")
		return err
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	// The rule evaluator's context (a TxnPolicy's) owns no component column.
	if _, err := (ClassCols{u: w.updateCtx(""), rt: w.classes["P"]}).Stage("x"); err == nil {
		t.Error("the rule evaluator staged a component's column")
	}
}

// TestClassStagePrefill pins that a column handed out by Stage starts at the
// tick-start payloads: rows the component leaves alone commit unchanged and
// stay out of the changefeed, and so do rows rewritten to the same bits.
func TestClassStagePrefill(t *testing.T) {
	w, ids, mover := stagedWorld(t, 5)
	w.EnableChangeFeed()
	drainRows(w)
	if err := w.Kill("P", ids[1]); err != nil {
		t.Fatal(err)
	}
	drainRows(w)
	target, same := w.classes["P"].tab.Row(ids[3]), w.classes["P"].tab.Row(ids[4])
	mover.update = func(ctx *UpdateCtx) error {
		c, err := ctx.Class("P")
		if err != nil {
			return err
		}
		x, err := c.Stage("x")
		if err != nil {
			return err
		}
		for r, ok := range c.Alive() {
			if ok && x[r] != float64(100+r) {
				t.Errorf("row %d prefilled with %v, want %d", r, x[r], 100+r)
			}
		}
		x[target] = -1
		x[same] = 104
		return nil
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got, want := xs(w, []value.ID{ids[0], ids[2], ids[3], ids[4]}), []float64{100, 102, -1, 104}; !slices.Equal(got, want) {
		t.Fatalf("x = %v, want %v", got, want)
	}
	if got := drainRows(w); !slices.Equal(got, []int32{int32(target)}) {
		t.Fatalf("changefeed rows %v, want [%d]", got, target)
	}
}

// TestFailedComponentStagesNothing: a component that stages a whole column
// and then errs fails the tick, and nothing it staged commits then or later.
func TestFailedComponentStagesNothing(t *testing.T) {
	w, ids, mover := stagedWorld(t, 3)
	mover.update = func(ctx *UpdateCtx) error {
		c, _ := ctx.Class("P")
		x, err := c.Stage("x")
		if err != nil {
			return err
		}
		for r := range x {
			x[r] = 99
		}
		if err := ctx.Stage("P", ids[0], "tag", value.Str("late")); err != nil {
			return err
		}
		return errors.New("boom")
	}
	if err := w.RunTick(); err == nil {
		t.Fatal("a failing component must fail the tick")
	}
	mover.update = func(*UpdateCtx) error { return nil }
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := xs(w, ids); !slices.Equal(got, []float64{100, 101, 102}) {
		t.Fatalf("x = %v: the failed tick's column applied", got)
	}
	if got := w.MustGet("P", ids[0], "tag").AsString(); got != "" {
		t.Fatalf("tag = %q: the failed tick's cell applied", got)
	}
}

// TestMixedStageLastWriteWins: cell-wise and column Stage on one attribute
// in one tick land in one next-epoch column, and each row commits its last
// write — including a cell staged before the column was handed out. Cells
// of a column nobody handed out commit row by row, entering the changefeed
// only when their bits change.
func TestMixedStageLastWriteWins(t *testing.T) {
	w, ids, mover := stagedWorld(t, 5)
	w.EnableChangeFeed()
	drainRows(w)
	rt := w.classes["P"]
	mover.update = func(ctx *UpdateCtx) error {
		if err := ctx.Stage("P", ids[0], "x", value.Num(1)); err != nil {
			return err
		}
		c, _ := ctx.Class("P")
		x, err := c.Stage("x")
		if err != nil {
			return err
		}
		if r := rt.tab.Row(ids[0]); x[r] != 1 {
			t.Errorf("column Stage dropped the earlier cell: x = %v", x[r])
		}
		x[rt.tab.Row(ids[1])] = 2
		x[rt.tab.Row(ids[2])] = 3
		if err := ctx.Stage("P", ids[2], "x", value.Num(4)); err != nil {
			return err
		}
		again, _ := c.Stage("x")
		if &again[0] != &x[0] || again[rt.tab.Row(ids[1])] != 2 {
			t.Error("a second Stage call did not return the same column")
		}
		if err := ctx.Stage("P", ids[4], "buddy", value.NullRef()); err != nil {
			return err
		}
		return ctx.Stage("P", ids[3], "buddy", value.Ref(ids[1]))
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := xs(w, ids); !slices.Equal(got, []float64{1, 2, 4, 103, 104}) {
		t.Fatalf("x = %v, want [1 2 4 103 104]", got)
	}
	if got := w.MustGet("P", ids[3], "buddy").AsRef(); got != ids[1] {
		t.Fatalf("buddy = %v, want %v", got, ids[1])
	}
	var want []int32
	for _, id := range ids[:4] {
		want = append(want, int32(rt.tab.Row(id)))
	}
	slices.Sort(want)
	if got := drainRows(w); !slices.Equal(got, want) {
		t.Fatalf("changefeed rows %v, want %v", got, want)
	}
}
