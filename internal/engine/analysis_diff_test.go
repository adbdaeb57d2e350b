package engine_test

// Differential pin for the unified static-analysis refactor: every
// physical-plan decision the engine now routes through internal/analysis —
// batch-kernel eligibility per phase and update rule, the cross-self-
// emission hazard, atomic-site stability classification with its kernel
// read sets, and the partitioned reach derivation's static preconditions —
// must be identical to what the pre-refactor ad-hoc code computed. The
// old logic lives on, verbatim, as test-only copies in export_test.go;
// these tests run both over every shipped scenario and demand equality.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/vexpr"
	"repro/internal/workload"
)

var diffScenarios = []struct {
	name string
	src  string
}{
	{"fig2", core.SrcFig2},
	{"rts", core.SrcRTS},
	{"market", core.SrcMarket},
	{"market-unsafe", core.SrcMarketUnsafe},
	{"vehicles", core.SrcVehicles},
	{"traffic-prox", core.SrcTraffic},
	{"flock", core.SrcFlock},
	{"swarm", core.SrcSwarm},
	{"guard", core.SrcGuard},
}

func diffWorld(t *testing.T, name, src string, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario(name, src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func classNames(t *testing.T, name, src string) []string {
	t.Helper()
	sc, err := core.LoadScenario(name, src)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range sc.Prog.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestVecDecisionDifferential pins exec-mode eligibility: per class, the
// cross-self-emission verdict, which phases compiled to batch kernels and
// which update rules took the kernel vs closure path must match the
// pre-refactor inline logic exactly.
func TestVecDecisionDifferential(t *testing.T) {
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := diffWorld(t, sc.name, sc.src, engine.Options{})
			for _, cls := range classNames(t, sc.name, sc.src) {
				got := w.VecDecisions(cls)
				want := w.OldVecDecisions(cls)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s.%s: vec decisions diverged\n new: %+v\n old: %+v",
						sc.name, cls, got, want)
				}
			}
		})
	}
}

// TestTxnSiteDifferential pins transaction-site classification: per atomic
// block, analyzability, the kernel column/slot/view read sets, conflict
// bases and which constraints compiled to mask kernels must match the
// pre-refactor consAnalysis walk exactly.
func TestTxnSiteDifferential(t *testing.T) {
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := diffWorld(t, sc.name, sc.src, engine.Options{})
			got := w.TxnSiteSummaries()
			want := w.OldTxnSiteSummaries()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: txn site classification diverged\n new: %+v\n old: %+v",
					sc.name, got, want)
			}
		})
	}
}

// srcReachEdges carries the bound shapes the reach derivation must agree
// on at its edges: a box whose width is per-row state (a NaN width
// collapses it), a site bounded on one side only (whole-world fallback),
// and one bounded on one side in x but boxed in y (anchored on y alone).
const srcReachEdges = `
class Probe {
  state:
    number x = 0;
    number y = 0;
    number w = 8;
    number near = 0;
  effects:
    number nb : sum;
  update:
    near = nb;
  run {
    accum number box with sum over Probe u from Probe {
      if (u.x >= x - w && u.x <= x + w && u.y >= y - w && u.y <= y + w) {
        box <- 1;
      }
    } in {
      accum number right with sum over Probe u from Probe {
        if (u.x >= x - 5) {
          right <- 1;
        }
      } in {
        accum number band with sum over Probe u from Probe {
          if (u.x >= x && u.y >= y - 3 && u.y <= y + 3) {
            band <- 1;
          }
        } in {
          nb <- box + right + band;
        }
      }
    }
  }
}
`

// TestReachDifferential pins the partitioned interaction-radius
// derivation: on populated partitioned worlds after each of three real
// ticks, deriveSiteReach's bound kernels must give the same verdicts and
// anchor the same dimensions to the same axes with bit-identical reach
// bounds as the closure oracle, and spatial sites must never have fallen
// back to the shared whole-extent index. The worlds cover NaN bounds, ±Inf
// and NaN anchors, a one-sided site, a probing class over two kernel
// windows with rows killed in both, and a stationary world, whose reach
// must not move between ticks; each runs at Workers 1 and 2.
func TestReachDifferential(t *testing.T) {
	builds := []struct {
		name       string
		build      func(*testing.T, engine.Options) *engine.World
		edit       func(*testing.T, *engine.World) // applied after the first tick
		wantShared int                             // sites that must fall back
		stationary bool
	}{
		{name: "flock", build: func(t *testing.T, o engine.Options) *engine.World {
			return flockWorldFor(t, 600, o)
		}},
		{name: "traffic-prox", build: func(t *testing.T, o engine.Options) *engine.World {
			return carWorldFor(t, 500, o)
		}},
		{name: "fig2", build: func(t *testing.T, o engine.Options) *engine.World {
			return reachFig2World(t, 400, o)
		}},
		{name: "swarm", build: func(t *testing.T, o engine.Options) *engine.World {
			return reachSwarmWorld(t, 0.7, -0.3, o)
		}},
		{name: "swarm-stationary", stationary: true, build: func(t *testing.T, o engine.Options) *engine.World {
			return reachSwarmWorld(t, 0, 0, o)
		}},
		{name: "fig2-two-windows", build: func(t *testing.T, o engine.Options) *engine.World {
			return reachFig2World(t, vexpr.BatchSize+500, o)
		}, edit: func(t *testing.T, w *engine.World) {
			// The widest live box is in the second window; the killed rows
			// keep wider ones in their dead cells.
			ids := w.IDs("Unit")
			if err := w.SetState("Unit", ids[vexpr.BatchSize+300], "range", value.Num(60)); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{3, 200, 201, vexpr.BatchSize - 1, vexpr.BatchSize, vexpr.BatchSize + 77, len(ids) - 1} {
				if err := w.SetState("Unit", ids[i], "range", value.Num(100)); err != nil {
					t.Fatal(err)
				}
				if err := w.Kill("Unit", ids[i]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "edges", wantShared: 1, build: func(t *testing.T, o engine.Options) *engine.World {
			return reachProbeWorld(t, 300, 8, o)
		}, edit: func(t *testing.T, w *engine.World) {
			ids := w.IDs("Probe")
			nan, inf := math.NaN(), math.Inf(1)
			for k, e := range []struct {
				attr string
				v    float64
			}{{"w", nan}, {"w", nan}, {"x", inf}, {"x", -inf}, {"x", nan}, {"y", inf}, {"y", -inf}, {"y", nan}} {
				if err := w.SetState("Probe", ids[17*k+5], e.attr, value.Num(e.v)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		// Zero-width boxes reach exactly 0 from their anchors; the first
		// row's reaches -0, which the whole-extent fold keeps.
		{name: "edges-zero-width", wantShared: 1, build: func(t *testing.T, o engine.Options) *engine.World {
			w := reachProbeWorld(t, vexpr.BatchSize+100, 0, o)
			negZero := value.Num(math.Copysign(0, -1))
			id := w.IDs("Probe")[0]
			for _, a := range []string{"x", "w"} {
				if err := w.SetState("Probe", id, a, negZero); err != nil {
					t.Fatal(err)
				}
			}
			return w
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					w := b.build(t, engine.Options{Partitions: 4, Workers: workers})
					var first []engine.ReachComparison
					for tick := 0; tick < 3; tick++ {
						if err := w.RunTick(); err != nil {
							t.Fatal(err)
						}
						if tick == 0 && b.edit != nil {
							b.edit(t, w)
							continue
						}
						comps := w.CompareReachDerivations()
						checkReaches(t, comps, b.wantShared)
						if b.stationary && first != nil && !reflect.DeepEqual(comps, first) {
							t.Errorf("tick %d: a stationary world's reach moved\n now: %+v\n was: %+v", tick, comps, first)
						}
						first = comps
					}
				})
			}
		})
	}
}

func reachFig2World(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	w := diffWorld(t, "fig2", core.SrcFig2, opts)
	if _, err := core.PopulateUnits(w, workload.Uniform(n, 600, 600, 5), 25); err != nil {
		t.Fatal(err)
	}
	return w
}

func reachProbeWorld(t *testing.T, n int, width float64, opts engine.Options) *engine.World {
	t.Helper()
	w := diffWorld(t, "edges", srcReachEdges, opts)
	for _, p := range workload.Uniform(n, 200, 200, 11) {
		if _, err := w.Spawn("Probe", map[string]value.Value{
			"x": value.Num(p.X), "y": value.Num(p.Y), "w": value.Num(width),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func reachSwarmWorld(t *testing.T, vx, vy float64, opts engine.Options) *engine.World {
	t.Helper()
	w := diffWorld(t, "swarm", core.SrcSwarm, opts)
	if _, err := core.PopulateMotes(w, workload.Uniform(400, 500, 500, 7), vx, vy, 0.01); err != nil {
		t.Fatal(err)
	}
	return w
}

// checkReaches requires every site's kernel derivation to equal the
// closure oracle bit for bit, and exactly wantShared sites to fall back.
func checkReaches(t *testing.T, comps []engine.ReachComparison, wantShared int) {
	t.Helper()
	if len(comps) == 0 {
		t.Fatal("no indexed accum sites to compare")
	}
	shared := 0
	for _, rc := range comps {
		if rc.Shared {
			shared++
		}
		if rc.Spatial != rc.OldSpatial {
			t.Errorf("%s←%s phase %d: spatial verdict diverged: kernels %v closures %v",
				rc.Class, rc.Source, rc.Phase, rc.Spatial, rc.OldSpatial)
		}
		if rc.Spatial && !sameReach(rc.Reach, rc.OldReach) {
			t.Errorf("%s←%s phase %d: reach diverged\n kernels:  %+v\n closures: %+v",
				rc.Class, rc.Source, rc.Phase, rc.Reach, rc.OldReach)
		}
		if rc.Spatial && rc.Shared {
			t.Errorf("%s←%s phase %d: spatial site fell back to shared index",
				rc.Class, rc.Source, rc.Phase)
		}
	}
	if shared != wantShared {
		t.Errorf("%d sites fell back to the shared index, want %d", shared, wantShared)
	}
}

// sameReach compares reaches bit for bit (-0 against +0 included).
func sameReach(a, b []engine.ReachDim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Axis != b[i].Axis || math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}
