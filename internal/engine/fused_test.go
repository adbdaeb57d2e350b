package engine_test

// Integration pins for the fused/specialized kernel path and the
// dictionary-encoded string lanes: the optimizer must change the physical
// plan (fused superinstructions, batched string residuals, vectorized
// string emissions) without changing a single bit of any world trajectory.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestRTSStringResidualBatched pins the dictionary's two wins on the rts
// combat predicate. The string inequality `u.player != player` is a key
// conjunct: the grid tests it on code payloads inside the probe and no
// residual is left. A string conjunct that stays residual (`u.player !=
// "neutral"`, whose other side is no attribute) compiles to a code-lane mask
// kernel, so the batched driver keeps its vectorized residual instead of
// bailing to the per-candidate closure.
func TestRTSStringResidualBatched(t *testing.T) {
	withLiteral := strings.Replace(core.SrcRTS, "u.player != player &&", `u.player != player && u.player != "neutral" &&`, 1)
	for _, tc := range []struct {
		name, src string
		residual  bool
	}{{"rts", core.SrcRTS, false}, {"rts+literal", withLiteral, true}} {
		sc, err := core.LoadScenario(tc.name, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sites := w.SiteBatchSummaries()
		if len(sites) == 0 {
			t.Fatal("rts has an accum join; expected at least one site")
		}
		for _, s := range sites {
			if s.Class != "Soldier" {
				continue
			}
			if !s.Keyed {
				t.Errorf("%s: u.player != player is not a key conjunct", tc.name)
			}
			if s.Residual != tc.residual || s.VecResidual != tc.residual {
				t.Errorf("%s: residual %v, vectorized %v; want both %v", tc.name, s.Residual, s.VecResidual, tc.residual)
			}
		}
	}
}

// srcBeacon exercises the string-emission lane: a maxby effect with a
// string payload in an otherwise plain self-emission phase. The kernel
// emits dictionary codes; the engine must decode them at the accumulator
// boundary so the fold sees real strings.
const srcBeacon = `
class Beacon {
  state:
    number heat = 50;
    string label = "";
  effects:
    string hottest : maxby;
    number pull : sum;
  update:
    label = hottest;
    heat = heat + pull * 0.01 - 0.2;
  run {
    if (heat > 50) {
      hottest <- "hot" by heat;
    } else {
      hottest <- "cold" by (0 - heat);
    }
    pull <- heat * 0.1;
  }
}
`

func beaconWorld(t *testing.T, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("beacon", srcBeacon)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range workload.Uniform(600, 100, 100, 11) {
		if _, err := w.Spawn("Beacon", map[string]value.Value{
			"heat": value.Num(30 + p.X/2 + float64(i%7)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestStringEmissionVectorized(t *testing.T) {
	vec := beaconWorld(t, engine.Options{Exec: plan.ExecVectorized})
	d := vec.VecDecisions("Beacon")
	if len(d.Phases) == 0 || !d.Phases[0] {
		t.Fatal("phase with a string maxby emission must compile to batch form")
	}
	// The string-targeted update rule must stay scalar: a staged code write
	// would bypass the column's string storage.
	for _, a := range d.VecUpdates {
		if a == 1 { // label
			t.Fatal("string update rule compiled to a kernel")
		}
	}
	scal := beaconWorld(t, engine.Options{Exec: plan.ExecScalar})
	for tick := 0; tick < 5; tick++ {
		if err := vec.RunTick(); err != nil {
			t.Fatal(err)
		}
		if err := scal.RunTick(); err != nil {
			t.Fatal(err)
		}
		for _, id := range vec.IDs("Beacon") {
			for _, attr := range []string{"heat", "label"} {
				a := vec.MustGet("Beacon", id, attr)
				b := scal.MustGet("Beacon", id, attr)
				if !a.Equal(b) {
					t.Fatalf("tick %d beacon %d %s: vectorized %v, scalar %v", tick, id, attr, a, b)
				}
			}
		}
	}
	if vec.ExecStats().VectorRows == 0 {
		t.Fatal("vectorized world reported no kernel rows")
	}
	if vec.ExecStats().DictLookups == 0 {
		t.Fatal("string emissions ran without any dictionary decodes")
	}
	// Someone must have been labeled by a real decoded string.
	seen := map[string]bool{}
	for _, id := range vec.IDs("Beacon") {
		seen[vec.MustGet("Beacon", id, "label").AsString()] = true
	}
	if !seen["hot"] || !seen["cold"] {
		t.Fatalf("expected both labels to appear, got %v", seen)
	}
}

// TestUnfusedDifferential pins CompileUnfused as a pure physical-plan
// switch: disabling fusion/specialization/hoisting must not change any
// world bit, while the default build must actually fuse something on the
// fusion-rich traffic workload.
func TestUnfusedDifferential(t *testing.T) {
	build := func(unfused bool) *engine.World {
		sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
		if err != nil {
			t.Fatal(err)
		}
		w, err := engine.NewFromCompiled(sc.Compiled(unfused), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(1500, 4000, 4000, 3)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	fused := build(false)
	plain := build(true)
	if fused.ExecStats().FusedOps == 0 {
		t.Fatal("traffic workload compiled zero superinstructions")
	}
	if n := plain.ExecStats().FusedOps; n != 0 {
		t.Fatalf("Unfused world reports %d fused ops", n)
	}
	for tick := 0; tick < 4; tick++ {
		if err := fused.RunTick(); err != nil {
			t.Fatal(err)
		}
		if err := plain.RunTick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range fused.IDs("Vehicle") {
		for _, attr := range []string{"x", "y", "dx", "dy", "fuel", "odo", "stress"} {
			a := fused.MustGet("Vehicle", id, attr)
			b := plain.MustGet("Vehicle", id, attr)
			if !a.Equal(b) {
				t.Fatalf("vehicle %d %s: fused %v, unfused %v", id, attr, a, b)
			}
		}
	}
}
