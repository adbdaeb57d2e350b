package views

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
)

// TestIndexProbeMatchesBruteForce is the property the whole indexed path
// rests on: for random boxes and bands (integer corners, so points land on
// edges constantly; radii over two orders of magnitude; strict and closed
// compares) under subscribe/unsubscribe churn, a point probe of the
// subscription index returns exactly the subscriptions whose bounds — kept
// here as plain numbers, independent of the slot vectors — contain the
// point.
func TestIndexProbeMatchesBruteForce(t *testing.T) {
	w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w, plan.DefaultCosts())
	rng := rand.New(rand.NewSource(77))

	// The oracle's copy of one subscription: its compares as plain
	// (axis, op, bound) triples.
	type compare struct {
		axis  int
		op    string
		bound float64
	}
	type oracle struct {
		sub  *Sub
		cmps []compare
	}
	holds := func(c compare, v float64) bool {
		switch c.op {
		case "<":
			return v < c.bound
		case "<=":
			return v <= c.bound
		case ">":
			return v > c.bound
		default:
			return v >= c.bound
		}
	}
	var boxes, bands, thresholds []oracle
	addBox := func() {
		radius := float64(1 + rng.Intn(3)*rng.Intn(40))
		cx, cy := float64(rng.Intn(220)-10), float64(rng.Intn(220)-10)
		lower, upper := ">=", "<="
		if rng.Intn(4) == 0 {
			lower, upper = ">", "<"
		}
		cmps := []compare{
			{0, lower, cx - radius}, {0, upper, cx + radius},
			{1, lower, cy - radius}, {1, upper, cy + radius},
		}
		pred := fmt.Sprintf("x %s %v && x %s %v && y %s %v && y %s %v",
			lower, cmps[0].bound, upper, cmps[1].bound, lower, cmps[2].bound, upper, cmps[3].bound)
		s, err := r.Subscribe(Def{Class: "Unit", Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Indexed() {
			t.Fatalf("%s not indexed: %s", pred, s.IndexReason())
		}
		boxes = append(boxes, oracle{s, cmps})
	}
	addBand := func() {
		lo := float64(rng.Intn(100))
		cmps := []compare{{0, []string{">", ">="}[rng.Intn(2)], lo}, {0, []string{"<", "<="}[rng.Intn(2)], lo + float64(rng.Intn(30))}}
		pred := fmt.Sprintf("health %s %v && health %s %v", cmps[0].op, cmps[0].bound, cmps[1].op, cmps[1].bound)
		s, err := r.Subscribe(Def{Class: "Unit", Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Indexed() {
			t.Fatalf("%s not indexed: %s", pred, s.IndexReason())
		}
		bands = append(bands, oracle{s, cmps})
	}
	// A single compare is a whole predicate, which the probe answers by its
	// exact edge in the sorted bounds, without a recheck.
	addThreshold := func() {
		c := compare{0, []string{"<", "<=", ">", ">="}[rng.Intn(4)], float64(rng.Intn(100) - 20)}
		bound := fmt.Sprint(c.bound)
		if rng.Intn(8) == 0 {
			c.bound, bound = math.Copysign(0, -1), "-0"
		}
		pred := fmt.Sprintf("health %s %s", c.op, bound)
		s, err := r.Subscribe(Def{Class: "Unit", Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Indexed() {
			t.Fatalf("%s not indexed: %s", pred, s.IndexReason())
		}
		thresholds = append(thresholds, oracle{s, []compare{c}})
	}
	drop := func(set *[]oracle) {
		i := rng.Intn(len(*set))
		if !r.Unsubscribe((*set)[i].sub.id) {
			t.Fatal("unsubscribe failed")
		}
		*set = slices.Delete(*set, i, i+1)
	}

	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e300}
	coord := func() float64 {
		if rng.Intn(12) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float64(rng.Intn(240) - 20)
	}
	// One probe row: columns indexed by state attribute.
	cls := r.prog.Classes["Unit"].Class
	xAttr, yAttr, hAttr := cls.StateIndex("x"), cls.StateIndex("y"), cls.StateIndex("health")
	cols := make([][]float64, len(cls.State))
	for i := range cols {
		cols[i] = []float64{0}
	}
	check := func(set []oracle, point [2]float64) {
		t.Helper()
		// Strict and closed variants are different shapes, hence different
		// groups: probe each group and pool the answers.
		var want, got []SubID
		var groups []*subGroup
		for _, o := range set {
			if !slices.Contains(groups, o.sub.grp) {
				groups = append(groups, o.sub.grp)
			}
			in := true
			for _, c := range o.cmps {
				in = in && holds(c, point[c.axis])
			}
			if in {
				want = append(want, o.sub.id)
			}
		}
		for _, g := range groups {
			if g.stale {
				g.rebuildGrid()
			}
			for _, slot := range g.match(&probeScratch{}, cols, 0, nil) {
				got = append(got, g.slots[slot].id)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("point %v over %d subscriptions: probe %v, brute force %v", point, len(set), got, want)
		}
	}
	for round := 0; round < 400; round++ {
		switch {
		case round < 40 || rng.Intn(3) > 0:
			addBox()
			addBand()
			addThreshold()
		default:
			drop(&boxes)
			drop(&bands)
			drop(&thresholds)
		}
		for probe := 0; probe < 25; probe++ {
			p := [2]float64{coord(), coord()}
			cols[xAttr][0], cols[yAttr][0] = p[0], p[1]
			check(boxes, p)
			cols[hAttr][0] = p[0]
			check(bands, p)
			check(thresholds, p)
		}
	}
	if len(boxes) < 100 {
		t.Fatalf("churn left only %d boxes", len(boxes))
	}
}

// TestIndexEligibility pins which predicates the index takes and that every
// refusal explains itself.
func TestIndexEligibility(t *testing.T) {
	w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w, plan.DefaultCosts())
	for _, c := range []struct {
		def Def
		why string
	}{
		{Def{Class: "Unit", Pred: "health < 50"}, ""},
		{Def{Class: "Unit", Pred: "health >= -5 && health <= 5"}, ""},
		{Def{Class: "Unit", Pred: "x >= 1 && x <= 2 && y > -3 && y < 4"}, ""},
		{Def{Class: "Unit", Pred: "health < 50", Kind: Sum, Attr: "health"}, ""},
		{Def{Class: "Unit", Pred: "health < 50", Mode: plan.ViewDelta}, whyForced},
		{Def{Class: "Unit", Pred: "health < 50", Mode: plan.ViewRescan}, whyForced},
		{Def{Class: "Unit", Pred: "true"}, whyShape},
		{Def{Class: "Unit", Pred: "50 > health"}, whyShape},
		{Def{Class: "Unit", Pred: "health < 50 || x > 3"}, whyShape},
		{Def{Class: "Unit", Pred: "health < x"}, whyShape},
		{Def{Class: "Unit", Pred: "x > 0 && y > 0 && health > 0"}, whyDims},
		{Def{Class: "Unit", Pred: "x > 0 && x < 9 && y > 0"}, whyOpen},
		{Def{Class: "Unit", Pred: "x >= 5 && x <= 5 && y >= 0 && y <= 9"}, whyEmpty},
		{Def{Class: "Unit", Pred: "x >= 1e18 && x <= 1e18 + 1024 && y >= 0 && y <= 1"}, whyShape},
		{Def{Class: "Unit", Pred: "x >= 1e18 && x <= 1000000000000001024 && y >= 0 && y <= 1"}, whyTiny},
	} {
		s, err := r.Subscribe(c.def)
		if err != nil {
			t.Fatalf("%+v: %v", c.def, err)
		}
		if s.IndexReason() != c.why || s.Indexed() != (c.why == "") {
			t.Errorf("%q mode %v: Indexed=%v reason %q, want reason %q",
				c.def.Pred, c.def.Mode, s.Indexed(), s.IndexReason(), c.why)
		}
	}
}
