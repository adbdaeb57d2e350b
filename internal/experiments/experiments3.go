package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/workload"
)

// E15 measures batched join execution (PR 3) against the scalar per-match
// interpreter on join-dominated workloads, single core: the paper's Fig-2
// crowding loop, the rts combat maxby join, and the flocking scenario whose
// tick is almost entirely range-join work. Both arms use the same
// strategies and the same per-tick indexes; only match execution
// differs — interpreted loop body per candidate versus batch-gathered rows,
// split-predicate re-check over raw columns and columnar contribution folds.
// The last columns expose the join/index counters of the batched arm.
func E15(sizes map[string][]int, ticks int) (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "batched vs scalar join execution (single core, ms/tick)",
		Header: []string{"workload", "n", "scalar", "batched", "unfused", "batched speedup", "fused speedup", "cand/probe", "build ms/tick"},
		Notes:  "batched speedup = scalar/batched; fused speedup = unfused/batched (residual-mask and fold kernels with fusion disabled) — expect ~1x here: candidate gather and index build dominate batched join ticks, so the fusion delta concentrates in E13's per-object kernels; cand/probe and index build time measured on the batched arm; strategies adapt identically in every arm; captured on " + hostStamp(),
	}
	type wk struct {
		name     string
		src      string
		populate func(w *engine.World, n int) error
	}
	workloads := []wk{
		{"fig2", core.SrcFig2, func(w *engine.World, n int) error {
			_, err := core.PopulateUnits(w, workload.Uniform(n, 1200, 1200, 7), 10)
			return err
		}},
		{"rts", core.SrcRTS, func(w *engine.World, n int) error {
			ph := physics.New2D(physics.Config{
				Class: "Soldier", XAttr: "x", YAttr: "y",
				VXEffect: "vx", VYEffect: "vy",
				Radius: 1, MaxSpeed: 3,
			})
			if err := w.Register(ph); err != nil {
				return err
			}
			_, err := core.PopulateSoldiers(w, workload.Clustered(n, 8, 60, 1500, 1500, 11))
			return err
		}},
		{"flock", core.SrcFlock, func(w *engine.World, n int) error {
			_, err := core.PopulateBoids(w, workload.Uniform(n, 1400, 1400, 3))
			return err
		}},
	}
	for _, wl := range workloads {
		sc, err := core.LoadScenario(wl.name, wl.src)
		if err != nil {
			return t, err
		}
		for _, n := range sizes[wl.name] {
			arms := []struct {
				join    plan.JoinMode
				unfused bool
			}{
				{plan.JoinScalar, false},
				{plan.JoinBatched, false},
				{plan.JoinBatched, true},
			}
			times := make([]time.Duration, len(arms))
			var candPerProbe, buildMS float64
			for i, arm := range arms {
				w, err := engine.NewFromCompiled(sc.Compiled(arm.unfused), engine.Options{Join: arm.join})
				if err != nil {
					return t, err
				}
				if err := wl.populate(w, n); err != nil {
					return t, err
				}
				// Batched arms run several times faster than the scalar
				// one; more measured ticks keep the unfused/batched ratio
				// out of timer noise.
				armTicks := ticks
				if arm.join == plan.JoinBatched {
					armTicks = ticks * 5
				}
				if times[i], err = tickTime(w.RunTick, armTicks); err != nil {
					return t, err
				}
				if arm.join == plan.JoinBatched && !arm.unfused {
					st := w.ExecStats()
					if st.JoinProbeRows > 0 {
						candPerProbe = float64(st.JoinBatchedRows) / float64(st.JoinProbeRows)
					}
					// Counters span the warmup tick too.
					buildMS = float64(st.IndexBuildNanos) / 1e6 / float64(armTicks+1)
				}
			}
			scalar, batched, unfused := times[0], times[1], times[2]
			t.Rows = append(t.Rows, []string{
				wl.name, fmt.Sprint(n),
				ms(scalar), ms(batched), ms(unfused),
				fmt.Sprintf("%.1fx", float64(scalar)/float64(batched)),
				fmt.Sprintf("%.2fx", float64(unfused)/float64(batched)),
				fmt.Sprintf("%.1f", candPerProbe),
				fmt.Sprintf("%.2f", buildMS),
			})
		}
	}
	return t, nil
}
