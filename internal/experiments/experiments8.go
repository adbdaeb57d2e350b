package experiments

// E21: incremental subscription views (internal/views, DESIGN.md §4.13).

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/views"
)

// e21Arm is one measured configuration: a fresh arena world plus a
// registry of `subs` spectator subscriptions maintained under `mode`.
type e21Arm struct {
	msPerTick      float64
	rowsPerTick    float64
	kbPerTick      float64
	rescansPerTick float64
	allocsPerTick  float64
}

func e21Run(objects, subs, ticks int, mode plan.ViewMode) (e21Arm, error) {
	var a e21Arm
	sc, err := core.LoadScenario("arena", core.SrcArena)
	if err != nil {
		return a, err
	}
	w, err := sc.NewWorld(engine.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return a, err
	}
	ph := physics.New2D(physics.Config{
		Class: "Fighter", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy", MaxSpeed: 4,
	})
	if err := w.Register(ph); err != nil {
		return a, err
	}
	if _, err := core.PopulateArena(w, objects, 0.02, 0.05, 17); err != nil {
		return a, err
	}
	r := views.New(w, plan.DefaultCosts())

	// Spectator mix: mostly camera interest boxes scattered over the map,
	// a band of health-threshold watchers, and a sprinkle of scoreboard
	// aggregates. All stable predicates; the boxes canonicalize to one
	// shared kernel and the thresholds to another.
	side := core.ArenaSide(objects)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < subs; i++ {
		var def views.Def
		switch {
		case i%20 < 17:
			pred, err := views.InterestPred([]string{"x", "y"},
				[]float64{rng.Float64() * side, rng.Float64() * side}, 40)
			if err != nil {
				return a, err
			}
			def = views.Def{Class: "Fighter", Pred: pred,
				Payload: []string{"x", "y", "health"}, Mode: mode}
		case i%20 < 19:
			def = views.Def{Class: "Fighter",
				Pred:    fmt.Sprintf("health < %d", 20+i%60),
				Payload: []string{"health"}, Mode: mode}
		default:
			switch i % 3 {
			case 0:
				def = views.Def{Class: "Fighter", Pred: "health < 50",
					Kind: views.Count, Mode: mode}
			case 1:
				def = views.Def{Class: "Fighter", Pred: "health < 100",
					Kind: views.Sum, Attr: "health", Mode: mode}
			default:
				def = views.Def{Class: "Fighter", Pred: "true",
					Kind: views.TopK, Attr: "health", K: 10, Mode: mode}
			}
		}
		if _, err := r.Subscribe(def); err != nil {
			return a, err
		}
	}

	// Warmup: the initial resync rescan plus two maintained ticks, so the
	// timed window measures steady-state maintenance only.
	for i := 0; i < 3; i++ {
		if err := w.RunTick(); err != nil {
			return a, err
		}
		r.Apply(nil)
	}
	base := w.ExecStats()
	var maint time.Duration
	var bytes, rescans int64
	var allocs uint64
	for i := 0; i < ticks; i++ {
		if err := w.RunTick(); err != nil {
			return a, err
		}
		m0 := readMallocs()
		start := time.Now()
		r.Apply(nil)
		maint += time.Since(start)
		allocs += readMallocs() - m0
		bytes += r.DeltaBytes()
		rescans += r.Rescans()
	}
	st := w.ExecStats()
	n := float64(ticks)
	a.msPerTick = maint.Seconds() * 1e3 / n
	a.rowsPerTick = float64(st.ViewDeltaRows-base.ViewDeltaRows) / n
	a.kbPerTick = float64(bytes) / 1024 / n
	a.rescansPerTick = float64(rescans) / n
	a.allocsPerTick = float64(allocs) / n
	return a, nil
}

// E21 measures incremental subscription views on the battle-royale
// spectator workload: `objects` fighters of which ~7% actually change per
// tick (hotspot combat + map-crossing movers), watched by up to `maxSubs`
// subscriptions. The rescan arm re-evaluates every subscription over the
// whole extent every tick — the naive serve-by-rerunning-the-query
// baseline; the delta arm forces every subscription to filter the engine's
// touched-row changefeed through its own kernel; the indexed arm is the
// default (ViewAuto): touched rows probe the subscription index and only
// the subscriptions they enter, leave or stay in are visited. All arms emit
// bit-identical delta streams (internal/views differential wall); the
// table reports what that identical stream costs to produce.
func E21(objects int, subSizes []int, ticks int) (Table, error) {
	t := Table{
		ID: "E21",
		Title: fmt.Sprintf("incremental subscription views (battle royale, %d fighters, %d ticks)",
			objects, ticks),
		Header: []string{"subs", "arm", "maint ms/tick", "delta rows/tick",
			"delta KB/tick", "rescans/tick", "allocs/tick", "speedup", "vs delta"},
		Notes: "arena: 2% hotspot fighters + 5% movers touched per tick, rest camp untouched; " +
			"subscription mix 85% spatial interest boxes / 10% health thresholds / 5% aggregates (count, sum, top-10); " +
			"rescan = every subscription re-evaluated over the full extent per tick (forced ViewRescan), " +
			"delta = every subscription filters the changefeed through its own kernel (forced ViewDelta), " +
			"indexed = the default ViewAuto: touched rows probe the per-shape subscription index, the top-10 subscriptions (predicate `true`, no box) stay on the per-subscription path; " +
			"all arms emit identical delta streams; maint ms/tick excludes the engine tick itself; speedup is over rescan, vs delta over the forced-delta arm; " +
			"allocs/tick = heap allocations during maintenance per tick after a 3-tick warmup: membership sets still reaching their high-water mark as movers cross boxes (headroom growth; a recurring pattern allocates nothing, see the views zero-alloc guards); " +
			"captured on " + hostStamp(),
	}
	for _, subs := range subSizes {
		var arms [3]e21Arm
		for i, mode := range []plan.ViewMode{plan.ViewRescan, plan.ViewDelta, plan.ViewAuto} {
			a, err := e21Run(objects, subs, ticks, mode)
			if err != nil {
				return t, err
			}
			arms[i] = a
		}
		for i, name := range []string{"rescan", "delta", "indexed"} {
			a := arms[i]
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(subs), name,
				fmt.Sprintf("%.2f", a.msPerTick),
				fmt.Sprintf("%.0f", a.rowsPerTick),
				fmt.Sprintf("%.1f", a.kbPerTick),
				fmt.Sprintf("%.1f", a.rescansPerTick),
				fmt.Sprintf("%.1f", a.allocsPerTick),
				fmt.Sprintf("%.1f", arms[0].msPerTick/a.msPerTick),
				fmt.Sprintf("%.1f", arms[1].msPerTick/a.msPerTick),
			})
		}
	}
	return t, nil
}

// hostStamp names what a capture ran on: CPU count, GOMAXPROCS, Go version
// and — when the binary was built inside the repository — the commit.
func hostStamp() string {
	commit, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				commit = kv.Value[:min(12, len(kv.Value))]
			case kv.Key == "vcs.modified" && kv.Value == "true":
				modified = "+modified"
			}
		}
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d %s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit+modified)
}
