// Package experiments regenerates every quantitative claim of the paper as
// a table (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured narratives). The CIDR 2009 paper is a vision paper with
// no numbered evaluation tables, so each experiment operationalizes one of
// its claims; cmd/sglbench prints these tables and bench_test.go wraps the
// same workloads as testing.B benchmarks.
package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/workload"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders a table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// JSON renders the table as one machine-readable JSON object (cmd/sglbench
// -json emits one per line, so experiment output can be captured for
// longitudinal perf tracking).
func (t Table) JSON() string {
	b, err := json.Marshal(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  string     `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
	if err != nil {
		return fmt.Sprintf(`{"id":%q,"error":%q}`, t.ID, err.Error())
	}
	return string(b)
}

// Markdown renders the table as GitHub markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s — %s**\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n_%s_\n", t.Notes)
	}
	return b.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// tickTime measures mean wall time per tick.
func tickTime(run func() error, ticks int) (time.Duration, error) {
	// One warmup tick amortizes lazy setup (kernel compilation, scratch and
	// effect-lane growth) out of the measurement, and a forced collection
	// keeps the previous arm's garbage off this arm's clock.
	if err := run(); err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < ticks; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(ticks), nil
}

// E1 compares set-at-a-time execution against the object-at-a-time baseline
// on the Fig-2 workload across population sizes (§1–2: the headline claim
// of [17] that database processing scales game AI).
func E1(sizes []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "set-at-a-time engine vs object-at-a-time baseline (Fig-2 workload, ms/tick)",
		Header: []string{"n", "baseline", "engine(NL)", "engine(default)", "speedup(default vs baseline)"},
		Notes:  "uniform placement in a world scaled to keep ~6 neighbors in range",
	}
	sc, err := core.LoadScenario("fig2", core.SrcFig2)
	if err != nil {
		return t, err
	}
	for _, n := range sizes {
		// Scale the world so neighborhood density stays constant.
		side := worldSide(n, 6, 10)
		ps := workload.Uniform(n, side, side, 42)

		base := sc.NewBaseline()
		if _, err := core.PopulateUnits(base, ps, 10); err != nil {
			return t, err
		}
		bt, err := tickTime(base.RunTick, ticks)
		if err != nil {
			return t, err
		}

		nlWorld, err := sc.NewWorld(engine.Options{Strategy: plan.NestedLoop})
		if err != nil {
			return t, err
		}
		if _, err := core.PopulateUnits(nlWorld, ps, 10); err != nil {
			return t, err
		}
		nt, err := tickTime(nlWorld.RunTick, ticks)
		if err != nil {
			return t, err
		}

		adWorld, err := sc.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		if _, err := core.PopulateUnits(adWorld, ps, 10); err != nil {
			return t, err
		}
		at, err := tickTime(adWorld.RunTick, ticks)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(bt), ms(nt), ms(at),
			fmt.Sprintf("%.1fx", float64(bt)/float64(at)),
		})
	}
	return t, nil
}

// worldSide sizes a square world so a box of half-width r around each of n
// uniform points contains ~k neighbors.
func worldSide(n, k int, r float64) float64 {
	area := float64(n) * (2 * r) * (2 * r) / float64(k)
	side := 1.0
	for side*side < area {
		side *= 1.2
	}
	return side
}

// E2 isolates the accum join: physical strategy cost across population
// sizes (§2.1, Fig. 2 — the compiled join is the headline optimization).
func E2(sizes []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "accum-loop physical strategies (Fig-2 range count, ms/tick)",
		Header: []string{"n", "nested-loop", "grid", "range-tree"},
		Notes:  "constant ~6-neighbor density; NL is O(n^2), indexes are O(n log n)",
	}
	sc, err := core.LoadScenario("fig2", core.SrcFig2)
	if err != nil {
		return t, err
	}
	for _, n := range sizes {
		side := worldSide(n, 6, 10)
		ps := workload.Uniform(n, side, side, 7)
		row := []string{fmt.Sprint(n)}
		for _, strat := range []plan.Strategy{plan.NestedLoop, plan.GridIndex, plan.RangeTreeIndex} {
			w, err := sc.NewWorld(engine.Options{Strategy: strat})
			if err != nil {
				return t, err
			}
			if _, err := core.PopulateUnits(w, ps, 10); err != nil {
				return t, err
			}
			d, err := tickTime(w.RunTick, ticks)
			if err != nil {
				return t, err
			}
			row = append(row, ms(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E4 measures transaction admission (§3.1): abort rates under rising
// contention, plus the duping count of the unsafe control arm.
func E4(buyersPerItem []int) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "transactions under contention (1 item each, 20 sellers)",
		Header: []string{"buyers/item", "committed", "aborted", "abort rate", "oversold (no txn)"},
		Notes:  "atomic+constraints: stock never oversold; control arm dupes",
	}
	for _, bpi := range buyersPerItem {
		m := workload.Market{Sellers: 20, BuyersPerItem: bpi, Stock: 1, Price: 25, Gold: 25}

		sc, err := core.LoadScenario("market", core.SrcMarket)
		if err != nil {
			return t, err
		}
		w, err := sc.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		if _, _, err := core.PopulateMarket(w, m); err != nil {
			return t, err
		}
		counting := &txn.CountingPolicy{}
		w.SetTxnPolicy(counting)
		if err := w.RunTick(); err != nil {
			return t, err
		}

		// Control arm: same workload without atomic.
		scU, err := core.LoadScenario("unsafe", core.SrcMarketUnsafe)
		if err != nil {
			return t, err
		}
		wu, err := scU.NewWorld(engine.Options{})
		if err != nil {
			return t, err
		}
		sellers, _, err := core.PopulateMarket(wu, m)
		if err != nil {
			return t, err
		}
		if err := wu.RunTick(); err != nil {
			return t, err
		}
		oversold := 0.0
		for _, id := range sellers {
			if s := wu.MustGet("Trader", id, "stock").AsNumber(); s < 0 {
				oversold += -s
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bpi),
			fmt.Sprint(counting.Stats.Committed),
			fmt.Sprint(counting.Stats.Aborted),
			fmt.Sprintf("%.2f", counting.Stats.AbortRate()),
			fmt.Sprintf("%.0f", oversold),
		})
	}
	return t, nil
}

// E7 runs the alternating explore/combat regime (§4.1) under the default
// plan (the index the join's predicate shape names: a grid for Fig2's
// bounded 2-D box) against static nested-loop and range-tree plans. It is
// the table that shows one plan serving both regimes.
func E7(n, blockLen, blocks int) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("plans across explore/combat regimes (n=%d, %d-tick blocks, total ms)", n, blockLen*blocks),
		Header: []string{"plan", "explore ms", "combat ms", "total ms"},
		Notes:  "positions re-seeded at each regime boundary; default indexes by predicate shape (grid here)",
	}
	sc, err := core.LoadScenario("fig2", core.SrcFig2)
	if err != nil {
		return t, err
	}
	side := worldSide(n, 6, 10)
	configs := []struct {
		name  string
		strat plan.Strategy
	}{
		{"static nested-loop", plan.NestedLoop},
		{"static range-tree", plan.RangeTreeIndex},
		{"default (grid)", plan.Auto},
	}
	for _, cfg := range configs {
		w, err := sc.NewWorld(engine.Options{Strategy: cfg.strat})
		if err != nil {
			return t, err
		}
		ids, err := core.PopulateUnits(w, workload.Positions(workload.Explore, n, side, side, 1), 10)
		if err != nil {
			return t, err
		}
		var exploreT, combatT time.Duration
		for blk := 0; blk < blocks; blk++ {
			regime := workload.RegimeSchedule(blk*blockLen, blockLen)
			ps := workload.Positions(regime, n, side, side, int64(blk))
			for i, id := range ids {
				w.SetState("Unit", id, "x", value.Num(ps[i].X))
				w.SetState("Unit", id, "y", value.Num(ps[i].Y))
			}
			start := time.Now()
			if err := w.Run(blockLen); err != nil {
				return t, err
			}
			if regime == workload.Explore {
				exploreT += time.Since(start)
			} else {
				combatT += time.Since(start)
			}
		}
		t.Rows = append(t.Rows, []string{cfg.name, ms(exploreT), ms(combatT), ms(exploreT + combatT)})
	}
	return t, nil
}

// E8 measures the overhead of statistics collection (§4.1: statistics must
// be cheap enough for real time).
func E8(n, ticks int) (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  fmt.Sprintf("statistics collection overhead (n=%d, ms/tick)", n),
		Header: []string{"stats", "ms/tick"},
	}
	sc, err := core.LoadScenario("fig2", core.SrcFig2)
	if err != nil {
		return t, err
	}
	side := worldSide(n, 6, 10)
	ps := workload.Uniform(n, side, side, 3)
	for _, disable := range []bool{false, true} {
		w, err := sc.NewWorld(engine.Options{Strategy: plan.RangeTreeIndex, DisableStats: disable})
		if err != nil {
			return t, err
		}
		if _, err := core.PopulateUnits(w, ps, 10); err != nil {
			return t, err
		}
		d, err := tickTime(w.RunTick, ticks)
		if err != nil {
			return t, err
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, ms(d)})
	}
	return t, nil
}

// E9 measures effect-phase parallel speedup (§4.2: read-only query/effect
// phases parallelize without synchronization).
func E9(n int, workers []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  fmt.Sprintf("parallel effect computation (n=%d, ms/tick)", n),
		Header: []string{"workers", "ms/tick", "speedup"},
	}
	sc, err := core.LoadScenario("fig2", core.SrcFig2)
	if err != nil {
		return t, err
	}
	side := worldSide(n, 6, 10)
	ps := workload.Uniform(n, side, side, 11)
	var base time.Duration
	for _, wk := range workers {
		w, err := sc.NewWorld(engine.Options{Workers: wk, Strategy: plan.RangeTreeIndex})
		if err != nil {
			return t, err
		}
		if _, err := core.PopulateUnits(w, ps, 10); err != nil {
			return t, err
		}
		d, err := tickTime(w.RunTick, ticks)
		if err != nil {
			return t, err
		}
		if wk == workers[0] {
			base = d
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(wk), ms(d), fmt.Sprintf("%.2fx", float64(base)/float64(d)),
		})
	}
	return t, nil
}

// E10 reproduces the §4.2 space analysis: range-tree memory versus n and d,
// including the paper's "100,000 entries ≈ 2 GB" shape for high-d trees.
func E10(sizes []int) Table {
	t := Table{
		ID:     "E10",
		Title:  "orthogonal range tree space, Θ(n·log^{d−1} n)",
		Header: []string{"n", "d=1 MB", "d=2 MB", "d=3 MB", "d=2 replicas/pt", "d=3 replicas/pt"},
		Notes:  "replicas/pt grows with log^{d−1} n — the growth that exhausts single-node memory (§4.2)",
	}
	const maxD3 = 30000 // d=3 replication is cubic in log n; cap memory
	for _, n := range sizes {
		row := []string{fmt.Sprint(n)}
		var reps []string
		for d := 1; d <= 3; d++ {
			if d == 3 && n > maxD3 {
				row = append(row, "-")
				reps = append(reps, "-")
				continue
			}
			es := make([]index.Entry, n)
			for i := range es {
				c := make([]float64, d)
				for k := range c {
					c[k] = float64((i*2654435761 + k*40503) % 1000003)
				}
				es[i] = index.Entry{ID: value.ID(i + 1), Coords: c}
			}
			tree := index.BuildRangeTree(d, es)
			row = append(row, fmt.Sprintf("%.1f", float64(tree.EstimatedBytes())/(1<<20)))
			if d >= 2 {
				reps = append(reps, fmt.Sprintf("%.1f", float64(tree.StoredEntries())/float64(n)))
			}
		}
		row = append(row, reps...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// stripedTrafficWorld builds the SrcTraffic car scenario with the real
// engine, spawned stripe-major over the given stripe count so each
// partition's rows stay in a contiguous span — the shared fixture of
// E11/E12/E16.
func stripedTrafficWorld(cars, stripes int, opts engine.Options, seed int64) (*engine.World, error) {
	net := workload.TrafficNetwork{W: 4000, H: 4000, Roads: 60, Speed: 3}
	ents := net.Vehicles(cars, seed)
	core.SortEntitiesByStripe(ents, stripes, net.W)
	sc, err := core.LoadScenario("traffic-prox", core.SrcTraffic)
	if err != nil {
		return nil, err
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	if _, err := core.PopulateCars(w, ents); err != nil {
		return nil, err
	}
	return w, nil
}

// E11 measures shared-nothing partitioned execution (§4.2) on the real
// engine: per-tick cross-partition messages (ghost refreshes + foreign
// effects + migrations), resident ghost replicas and load balance, under
// spatial versus hash partitioning of the headway-join traffic workload.
// Earlier revisions answered this with a standalone simulator; these
// numbers now come from the engine's own partition executor.
func E11(vehicles int, nodes []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  fmt.Sprintf("partitioned execution: messages and balance (traffic, %d cars)", vehicles),
		Header: []string{"parts", "partition", "msgs/tick", "ghost rows/tick", "migr/tick", "imbalance", "ms/tick"},
		Notes:  "real engine ticks; spatial partitioning keeps neighbors partition-local, hash replicates everything (§4.2)",
	}
	for _, k := range nodes {
		for _, strat := range []plan.PartitionStrategy{plan.PartitionStripes, plan.PartitionHash} {
			w, err := stripedTrafficWorld(vehicles, k, engine.Options{Partitions: k, Partition: strat}, 21)
			if err != nil {
				return t, err
			}
			d, err := tickTime(w.RunTick, ticks)
			if err != nil {
				return t, err
			}
			st := w.ExecStats()
			n := int64(ticks)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(k), strat.String(),
				fmt.Sprint(st.PartMessages() / n), fmt.Sprint(st.GhostRows / n),
				fmt.Sprint(st.MigratedRows / n),
				fmt.Sprintf("%.2f", st.PartImbalance(k)),
				ms(d),
			})
		}
	}
	return t, nil
}

// E12 reports per-partition accum-index memory (§4.2), measured from the
// engine's real per-tick partition indexes.
func E12(vehicles int, nodes []int) (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  fmt.Sprintf("partitioned index memory (traffic, %d cars)", vehicles),
		Header: []string{"parts", "max part MB", "total MB", "single-part MB"},
		Notes:  "spatial partitioning divides both n and the log factor; totals include ghost replicas",
	}
	single := 0.0
	for i, k := range nodes {
		w, err := stripedTrafficWorld(vehicles, k, engine.Options{Partitions: k, Partition: plan.PartitionStripes}, 33)
		if err != nil {
			return t, err
		}
		if err := w.RunTick(); err != nil {
			return t, err
		}
		maxB, totB := int64(0), int64(0)
		for _, b := range w.PartitionIndexBytes() {
			totB += b
			if b > maxB {
				maxB = b
			}
		}
		if i == 0 && k == 1 {
			single = float64(totB)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%.1f", float64(maxB)/(1<<20)),
			fmt.Sprintf("%.1f", float64(totB)/(1<<20)),
			fmt.Sprintf("%.1f", single/(1<<20)),
		})
	}
	return t, nil
}

// E13 measures the vectorized columnar execution path (§2/§4: set-at-a-time
// processing over columnar storage) against scalar closure interpretation
// and the object-at-a-time baseline, on the per-object traffic workload
// where expression evaluation — not joins — is the hot path.
func E13(sizes []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "vectorized batch kernels vs scalar closures (traffic workload)",
		Header: []string{"vehicles", "baseline ms/tick", "scalar ms/tick", "unfused ms/tick", "fused ms/tick", "vec speedup", "fused speedup", "vec rows %"},
		Notes:  "vec speedup = scalar/fused; fused speedup = unfused/fused (fusion+hoisting delta; both arms run one closure per kernel op); vec rows % = share of row evaluations run through batch kernels under the default Options",
	}
	sc := core.MustLoad("vehicles", core.SrcVehicles)
	for _, n := range sizes {
		ps := workload.Uniform(n, 4000, 4000, 1)

		bl := sc.NewBaseline()
		if _, err := core.PopulateVehicles(bl, ps); err != nil {
			return t, err
		}
		blTime, err := tickTime(bl.RunTick, ticks)
		if err != nil {
			return t, err
		}

		arms := []struct {
			opts    engine.Options
			unfused bool
		}{
			{engine.Options{Exec: plan.ExecScalar}, false},
			{engine.Options{}, true},
			{engine.Options{}, false},
		}
		// The vectorized arms run an order of magnitude faster than the
		// scalar ones, so they get proportionally more measured ticks to
		// keep the unfused/fused ratio out of timer noise.
		vecTicks := ticks * 10
		times := make([]time.Duration, len(arms))
		var fused *engine.World
		for i, arm := range arms {
			w, err := engine.NewFromCompiled(sc.Compiled(arm.unfused), arm.opts)
			if err != nil {
				return t, err
			}
			if _, err := core.PopulateVehicles(w, ps); err != nil {
				return t, err
			}
			armTicks := ticks
			if arm.opts.Exec != plan.ExecScalar {
				armTicks = vecTicks
			}
			if times[i], err = tickTime(w.RunTick, armTicks); err != nil {
				return t, err
			}
			fused = w
		}
		scalar, unfused, fusedT := times[0], times[1], times[2]

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(blTime), ms(scalar), ms(unfused), ms(fusedT),
			fmt.Sprintf("%.1fx", float64(scalar)/float64(fusedT)),
			fmt.Sprintf("%.2fx", float64(unfused)/float64(fusedT)),
			fmt.Sprintf("%.0f%%", fused.ExecStats().VectorFraction()*100),
		})
	}
	return t, nil
}

// E14 measures the sharded parallel×vectorized executor: worker scaling on
// the traffic workload for scalar vs vectorized shards, against the
// Workers=1/scalar reference. The composition claim is that Workers=N +
// vectorized shards beats both Workers=N scalar (the old parallel path) and
// Workers=1 vectorized (the old batch path).
func E14(vehicles int, workers []int, ticks int) (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  fmt.Sprintf("sharded parallel×vectorized ticks (traffic, %d vehicles)", vehicles),
		Header: []string{"workers", "scalar ms/tick", "vectorized ms/tick", "vectorized speedup", "shards/tick"},
		Notes:  "speedup vs workers=1 scalar; shards/tick = shards dispatched to the pool on the vectorized arm (0 = extent ran inline)",
	}
	sc := core.MustLoad("vehicles", core.SrcVehicles)
	ps := workload.Uniform(vehicles, 4000, 4000, 1)
	var base time.Duration
	for _, wk := range workers {
		times := map[plan.ExecMode]time.Duration{}
		shards := int64(0)
		for _, mode := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
			w, err := sc.NewWorld(engine.Options{Workers: wk, Exec: mode})
			if err != nil {
				return t, err
			}
			if _, err := core.PopulateVehicles(w, ps); err != nil {
				return t, err
			}
			d, err := tickTime(w.RunTick, ticks)
			if err != nil {
				return t, err
			}
			times[mode] = d
			if mode == plan.ExecVectorized {
				shards = w.ExecStats().ParallelShards / int64(ticks)
			}
		}
		if wk == workers[0] {
			base = times[plan.ExecScalar]
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(wk),
			ms(times[plan.ExecScalar]), ms(times[plan.ExecVectorized]),
			fmt.Sprintf("%.1fx", float64(base)/float64(times[plan.ExecVectorized])),
			fmt.Sprint(shards),
		})
	}
	return t, nil
}
