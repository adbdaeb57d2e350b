package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

// readMallocs returns the cumulative heap allocation count (objects).
func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// E19 measures the many-world server (DESIGN.md §4.12): the paper's target
// deployment is thousands of small concurrent game instances, not one huge
// one. The experiment contrasts three arms over the same total object
// count and tick budget:
//
//   - one-world: a single standalone world holding the whole population,
//     sharded over the engine's own worker pool — the monolith baseline;
//   - many-world: the population split across N small worlds ticked by the
//     server's shared pool, with the compiled plan cached across worlds
//     ((N-1)/N hit rate) and per-tick arenas checked out of the shared
//     pool (steady-state allocations per world-tick ≈ 0);
//   - many-world+hibernate: same fleet with only a rotating 10% of worlds
//     touched per round, the rest hibernating past their idle horizon —
//     the resident-world gauge drops while touched worlds
//     restore transparently.
func E19(worlds, objects, rounds int) (Table, error) {
	t := Table{
		ID: "E19",
		Title: fmt.Sprintf("many-world server (%d worlds × %d objects vs 1 × %d)",
			worlds, objects, worlds*objects),
		Header: []string{"arm", "worlds", "world-ticks", "world-ticks/s", "Mobj-ticks/s",
			"plan hit rate", "allocs/world-tick", "resident", "hibernated"},
		Notes: "same total object count and tick budget per arm; plan hit rate = compiled-plan cache hits over AddWorld calls; allocs/world-tick = heap allocation count delta across the timed run over world-ticks (steady state, after one warmup round); hibernate arm touches a fixed 10% of worlds (the played set) every round over twice the tick budget",
	}

	engineWorkers := runtime.NumCPU()

	// Arm A: one monolithic world with the entire population, using the
	// engine's internal parallelism.
	{
		sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
		if err != nil {
			return t, err
		}
		w, err := sc.NewWorld(engine.Options{Workers: engineWorkers})
		if err != nil {
			return t, err
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(worlds*objects, 4000, 4000, 11)); err != nil {
			return t, err
		}
		if err := w.RunTick(); err != nil { // warmup
			return t, err
		}
		m0 := readMallocs()
		start := time.Now()
		if err := w.Run(rounds); err != nil {
			return t, err
		}
		elapsed := time.Since(start)
		allocs := float64(readMallocs()-m0) / float64(rounds)
		t.Rows = append(t.Rows, []string{
			"one-world", "1", fmt.Sprint(rounds),
			fmt.Sprintf("%.0f", float64(rounds)/elapsed.Seconds()),
			fmt.Sprintf("%.2f", float64(rounds)*float64(worlds*objects)/elapsed.Seconds()/1e6),
			"-", fmt.Sprintf("%.1f", allocs), "1", "0",
		})
	}

	// Arm B: the same population split across `worlds` server-hosted
	// worlds ticked by the shared pool.
	{
		srv := server.New(server.Config{Workers: engineWorkers})
		if err := addVehicleFleet(srv, worlds, objects); err != nil {
			return t, err
		}
		if err := srv.RunRounds(1); err != nil { // warmup
			return t, err
		}
		base := srv.Counters()
		m0 := readMallocs()
		start := time.Now()
		if err := srv.RunRounds(rounds); err != nil {
			return t, err
		}
		elapsed := time.Since(start)
		c := srv.Counters()
		ticks := c.TicksRun - base.TicksRun
		allocs := float64(readMallocs()-m0) / float64(ticks)
		t.Rows = append(t.Rows, []string{
			"many-world", fmt.Sprint(worlds), fmt.Sprint(ticks),
			fmt.Sprintf("%.0f", float64(ticks)/elapsed.Seconds()),
			fmt.Sprintf("%.2f", float64(ticks)*float64(objects)/elapsed.Seconds()/1e6),
			fmt.Sprintf("%.4f", float64(c.PlanCacheHits)/float64(c.PlanCacheHits+c.PlanCacheMisses)),
			fmt.Sprintf("%.1f", allocs),
			fmt.Sprint(c.WorldsActive), fmt.Sprint(c.WorldsHibernated),
		})
	}

	// Arm C: hibernation under sparse interest — only 10% of the fleet
	// has players (touched every round); the rest idle past the cost
	// model's break-even horizon and checkpoint out, so steady-state
	// work and resident heap track the played fraction, not fleet size.
	{
		srv := server.New(server.Config{Workers: engineWorkers, HibernateAfter: 2})
		if err := addVehicleFleet(srv, worlds, objects); err != nil {
			return t, err
		}
		slice := worlds / 10
		if slice < 1 {
			slice = 1
		}
		cRounds := 2 * rounds // the idle horizon must pass before hibernation shows
		start := time.Now()
		for r := 0; r < cRounds; r++ {
			for i := 0; i < slice; i++ {
				h, ok := srv.World(fmt.Sprintf("world-%05d", i))
				if !ok {
					return t, fmt.Errorf("E19: fleet world missing")
				}
				if err := h.Touch(); err != nil {
					return t, err
				}
			}
			if err := srv.RunRounds(1); err != nil {
				return t, err
			}
		}
		elapsed := time.Since(start)
		c := srv.Counters()
		t.Rows = append(t.Rows, []string{
			"many-world+hibernate", fmt.Sprint(worlds), fmt.Sprint(c.TicksRun),
			fmt.Sprintf("%.0f", float64(c.TicksRun)/elapsed.Seconds()),
			fmt.Sprintf("%.2f", float64(c.TicksRun)*float64(objects)/elapsed.Seconds()/1e6),
			fmt.Sprintf("%.4f", float64(c.PlanCacheHits)/float64(c.PlanCacheHits+c.PlanCacheMisses)),
			"-",
			fmt.Sprint(c.WorldsActive), fmt.Sprint(c.WorldsHibernated),
		})
	}
	return t, nil
}

func addVehicleFleet(srv *server.Server, worlds, objects int) error {
	for i := 0; i < worlds; i++ {
		h, err := srv.AddWorld(fmt.Sprintf("world-%05d", i), core.SrcVehicles, 1)
		if err != nil {
			return err
		}
		eng, err := h.Engine()
		if err != nil {
			return err
		}
		if _, err := core.PopulateVehicles(eng, workload.Uniform(objects, 4000, 4000, int64(100+i))); err != nil {
			return err
		}
	}
	return nil
}
