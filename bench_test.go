// Benchmarks regenerating the paper's quantitative claims, one per
// experiment in DESIGN.md §5 / EXPERIMENTS.md. The CIDR 2009 paper is a
// vision paper without numbered evaluation tables, so each benchmark
// operationalizes one of its claims; cmd/sglbench prints the corresponding
// full tables.
package sgl_test

import (
	"fmt"
	"runtime"
	"testing"

	sgl "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

// worldSide sizes a square world so each unit has ~k neighbors in a box of
// half-width r (constant density across n).
func worldSide(n, k int, r float64) float64 {
	area := float64(n) * (2 * r) * (2 * r) / float64(k)
	side := 1.0
	for side*side < area {
		side *= 1.2
	}
	return side
}

func fig2World(b *testing.B, n int, opts engine.Options) *engine.World {
	b.Helper()
	sc := core.MustLoad("fig2", core.SrcFig2)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	side := worldSide(n, 6, 10)
	if _, err := core.PopulateUnits(w, workload.Uniform(n, side, side, 42), 10); err != nil {
		b.Fatal(err)
	}
	return w
}

func fig2Baseline(b *testing.B, n int) interface{ RunTick() error } {
	b.Helper()
	sc := core.MustLoad("fig2", core.SrcFig2)
	w := sc.NewBaseline()
	side := worldSide(n, 6, 10)
	if _, err := core.PopulateUnits(w, workload.Uniform(n, side, side, 42), 10); err != nil {
		b.Fatal(err)
	}
	return w
}

// E1 — §1–2: set-at-a-time processing vs the object-at-a-time middleware
// model; the gap must grow with n.

func BenchmarkE1_ObjectAtATime(b *testing.B) {
	for _, n := range []int{1000, 2000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := fig2Baseline(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1_SetAtATime(b *testing.B) {
	for _, n := range []int{1000, 2000, 5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := fig2World(b, n, engine.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E2 — §2.1 Fig. 2: the accum-loop compiled to a join, per physical plan.

func BenchmarkE2_AccumJoin(b *testing.B) {
	for _, strat := range []plan.Strategy{plan.NestedLoop, plan.GridIndex, plan.RangeTreeIndex} {
		for _, n := range []int{1000, 5000} {
			b.Run(fmt.Sprintf("%s/n=%d", strat, n), func(b *testing.B) {
				w := fig2World(b, n, engine.Options{Strategy: strat})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.RunTick(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E3 — §2.2: the physics update component resolving conflicting intentions.

func BenchmarkE3_PhysicsUpdate(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("colliders=%d", n), func(b *testing.B) {
			sc := core.MustLoad("rts", core.SrcRTS)
			w, err := sc.NewWorld(engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ph := physics.New2D(physics.Config{
				Class: "Soldier", XAttr: "x", YAttr: "y",
				VXEffect: "vx", VYEffect: "vy", Radius: 1, MaxSpeed: 3,
			})
			if err := w.Register(ph); err != nil {
				b.Fatal(err)
			}
			for _, p := range workload.Clustered(n, 1, 40, 200, 200, 9) {
				if _, err := w.Spawn("Soldier", map[string]value.Value{
					"player": value.Str("red"),
					"x":      value.Num(p.X), "y": value.Num(p.Y),
					"tx": value.Num(100), "ty": value.Num(100),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4 — §3.1: transaction admission under contention.

func BenchmarkE4_Transactions(b *testing.B) {
	for _, bpi := range []int{2, 8} {
		b.Run(fmt.Sprintf("buyersPerItem=%d", bpi), func(b *testing.B) {
			sc := core.MustLoad("market", core.SrcMarket)
			w, err := sc.NewWorld(engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sellers, _, err := core.PopulateMarket(w, workload.Market{
				Sellers: 100, BuyersPerItem: bpi, Stock: 1, Price: 25, Gold: 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, id := range sellers {
					w.SetState("Trader", id, "stock", value.Num(1))
				}
				b.StartTimer()
			}
		})
	}
}

// E5 — §3.2: waitNextTick lowering vs a hand-written state machine.

func BenchmarkE5_MultiTick(b *testing.B) {
	for _, variant := range []struct{ name, src string }{
		{"waitNextTick", core.SrcGuard},
	} {
		b.Run(variant.name, func(b *testing.B) {
			sc := core.MustLoad(variant.name, variant.src)
			w, err := sc.NewWorld(engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10000; i++ {
				if _, err := w.Spawn("Guard", map[string]value.Value{
					"px": value.Num(float64(i % 50)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 — §3.2: reactive handler dispatch cost.

func BenchmarkE6_Reactive(b *testing.B) {
	sc := core.MustLoad("guard", core.SrcGuard)
	w, err := sc.NewWorld(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := w.Spawn("Guard", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunTick(); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — §4.1: the default plan (index by predicate shape) vs static plans
// across alternating regimes.

func BenchmarkE7_Adaptive(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		strat plan.Strategy
	}{
		{"staticNL", plan.NestedLoop},
		{"staticTree", plan.RangeTreeIndex},
		{"default", plan.Auto},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			const n = 2000
			sc := core.MustLoad("fig2", core.SrcFig2)
			w, err := sc.NewWorld(engine.Options{Strategy: cfg.strat})
			if err != nil {
				b.Fatal(err)
			}
			side := worldSide(n, 6, 10)
			ids, err := core.PopulateUnits(w, workload.Uniform(n, side, side, 1), 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate regimes every 5 iterations.
				if i%5 == 0 {
					b.StopTimer()
					regime := workload.RegimeSchedule(i, 5)
					ps := workload.Positions(regime, n, side, side, int64(i))
					for j, id := range ids {
						w.SetState("Unit", id, "x", value.Num(ps[j].X))
						w.SetState("Unit", id, "y", value.Num(ps[j].Y))
					}
					b.StartTimer()
				}
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 — §4.1: statistics collection must be cheap.

func BenchmarkE8_StatsOverhead(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run("stats="+name, func(b *testing.B) {
			w := fig2World(b, 10000, engine.Options{Strategy: plan.RangeTreeIndex, DisableStats: disabled})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 — §4.2: lock-free parallel effect computation.

func BenchmarkE9_Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := fig2World(b, 20000, engine.Options{Workers: workers, Strategy: plan.RangeTreeIndex})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E10 — §4.2: range-tree build cost and Θ(n·log^{d−1} n) space.

func BenchmarkE10_RangeTreeSpace(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("d=%d/n=20000", d), func(b *testing.B) {
			const n = 20000
			es := make([]index.Entry, n)
			for i := range es {
				c := make([]float64, d)
				for k := range c {
					c[k] = float64((i*2654435761 + k*40503) % 1000003)
				}
				es[i] = index.Entry{ID: value.ID(i + 1), Coords: c}
			}
			var tree *index.RangeTree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree = index.BuildRangeTree(d, es)
			}
			b.StopTimer()
			b.ReportMetric(float64(tree.StoredEntries())/n, "replicas/pt")
			b.ReportMetric(float64(tree.EstimatedBytes())/(1<<20), "MB")
		})
	}
}

// E11/E16 — §4.2: shared-nothing partitioned execution on the real engine.

func stripedCarWorld(b *testing.B, cars, stripes int, opts engine.Options) *sgl.World {
	b.Helper()
	net := workload.TrafficNetwork{W: 4000, H: 4000, Roads: 60, Speed: 3}
	ents := net.Vehicles(cars, 21)
	core.SortEntitiesByStripe(ents, stripes, net.W)
	sc := core.MustLoad("traffic-prox", core.SrcTraffic)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.PopulateCars(w, ents); err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkE11_Partitioned(b *testing.B) {
	const cars = 50000
	for _, cfg := range []struct {
		name  string
		strat sgl.PartitionStrategy
	}{
		{"stripes4", sgl.PartitionStripes},
		{"hash4", sgl.PartitionHash},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w := stripedCarWorld(b, cars, 4, engine.Options{Partitions: 4, Partition: cfg.strat})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := w.ExecStats()
			b.ReportMetric(float64(st.PartMessages())/float64(b.N), "msgs/tick")
			b.ReportMetric(float64(st.GhostRows)/float64(b.N), "ghosts/tick")
		})
	}
}

// BenchmarkE16_PartitionScaling ticks the same world with Workers=k
// unpartitioned and with Workers=k, Partitions=k.
func BenchmarkE16_PartitionScaling(b *testing.B) {
	const cars = 50000
	for _, k := range []int{1, 2, 4} {
		for _, parts := range []int{0, k} {
			b.Run(fmt.Sprintf("workers=%d/parts=%d", k, parts), func(b *testing.B) {
				w := stripedCarWorld(b, cars, k, engine.Options{Workers: k, Partitions: parts})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.RunTick(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := w.ExecStats()
				b.ReportMetric(float64(st.PartMessages())/float64(b.N), "msgs/tick")
				b.ReportMetric(st.PartImbalance(parts), "imbalance")
			})
		}
	}
}

// E20 — §3.1 at scale: serial vs batched vs partitioned transaction
// admission on a paired contended marketplace (one buyer per seller, so
// admission is conflict-free and batchable; shallow-stock segments sell
// out and keep aborting on seller.stock >= 0).

func marketBenchWorld(b *testing.B, pairs int, opts engine.Options) *sgl.World {
	b.Helper()
	sc := core.MustLoad("market", core.SrcMarket)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	// Varied segment sizes mix buyer/seller id offsets so the id-hash
	// partition layout yields both local and cross-partition transactions.
	sizes := []int{612, 613, 616, 619}
	deep := true
	for remaining, chunk := pairs, 0; remaining > 0; chunk++ {
		n := sizes[chunk%len(sizes)]
		if n > remaining {
			n = remaining
		}
		stock := 1 << 20
		if !deep {
			stock = 8
		}
		if _, _, err := core.PopulateMarket(w, workload.Market{
			Sellers: n, BuyersPerItem: 1, Stock: stock, Price: 25, Gold: 1e9,
		}); err != nil {
			b.Fatal(err)
		}
		deep = !deep
		remaining -= n
	}
	return w
}

func BenchmarkE20_TxnAdmission(b *testing.B) {
	const pairs = 10000
	for _, cfg := range []struct {
		name string
		opts engine.Options
	}{
		{"scalar", engine.Options{Txn: sgl.TxnScalar}},
		{"batched", engine.Options{Txn: sgl.TxnBatched}},
		{"batched+4part", engine.Options{Txn: sgl.TxnBatched, Partitions: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w := marketBenchWorld(b, pairs, cfg.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := w.ExecStats()
			b.ReportMetric(float64(st.TxnBatchedRows)/float64(b.N), "batched/tick")
			b.ReportMetric(float64(st.TxnCrossPart)/float64(b.N), "cross/tick")
		})
	}
}

// E19 — §4.12: the many-world server. One scheduling round over a fleet
// of small worlds sharing a compiled plan and arena pool, vs the engine's
// internal sharding over one monolithic world of the same total size.
func BenchmarkE19_ManyWorldServer(b *testing.B) {
	const worlds, objects = 200, 500
	b.Run("many-world", func(b *testing.B) {
		srv := server.New(server.Config{})
		for i := 0; i < worlds; i++ {
			h, err := srv.AddWorld(fmt.Sprintf("w%03d", i), core.SrcVehicles, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := h.Engine()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.PopulateVehicles(eng, workload.Uniform(objects, 4000, 4000, int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := srv.RunRounds(1); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		c := srv.Counters()
		b.ReportMetric(float64(c.PlanCacheHits)/float64(c.PlanCacheHits+c.PlanCacheMisses), "plan-hit-rate")
	})
	b.Run("one-world", func(b *testing.B) {
		sc := core.MustLoad("vehicles", core.SrcVehicles)
		w, err := sc.NewWorld(engine.Options{Workers: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(worlds*objects, 4000, 4000, 42)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.RunTick(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation — DESIGN.md: per-tick index rebuild cost in isolation, the
// design choice of rebuilding instead of maintaining indexes incrementally
// under O(n) updates per tick (§4.1).

func BenchmarkAblation_IndexRebuild(b *testing.B) {
	const n = 20000
	side := worldSide(n, 6, 10)
	ps := workload.Uniform(n, side, side, 4)
	es := make([]index.Entry, n)
	coords := make([]float64, 2*n)
	xs, ys, rows := make([]float64, n), make([]float64, n), make([]int32, n)
	for i, p := range ps {
		coords[2*i], coords[2*i+1] = p.X, p.Y
		es[i] = index.Entry{ID: value.ID(i + 1), Coords: coords[2*i : 2*i+2]}
		xs[i], ys[i], rows[i] = p.X, p.Y, int32(i)
	}
	b.Run("rangeTree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.BuildRangeTree(2, es)
		}
	})
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.BuildGrid(20, xs, ys, nil, rows)
		}
	})
}

// Ablation — compilation cost: loading (parse+check+compile) a scenario.

func BenchmarkAblation_CompileScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sgl.Load(core.SrcRTS); err != nil {
			b.Fatal(err)
		}
	}
}

// E13 — §2/§4: vectorized batch execution vs scalar closure interpretation
// on the hot per-object expression path. Three workload shapes: vehicles
// (traffic; pure per-object work, fully vectorizable phases + updates),
// fig2 (dungeon-style crowding; accum-join dominated, only the update rule
// vectorizes), and rts (mixed combat with a physics component).

func vehiclesWorld(b *testing.B, n int, opts engine.Options) *engine.World {
	b.Helper()
	sc := core.MustLoad("vehicles", core.SrcVehicles)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 1)); err != nil {
		b.Fatal(err)
	}
	return w
}

func rtsWorld(b *testing.B, n int, opts engine.Options) *engine.World {
	b.Helper()
	sc := core.MustLoad("rts", core.SrcRTS)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Register(physics.New2D(physics.Config{
		Class: "Soldier", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy",
		Radius: 0.8, MaxSpeed: 2,
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 400, MaxY: 400},
	}))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.PopulateSoldiers(w, workload.Clustered(n, 2, 30, 400, 400, 7)); err != nil {
		b.Fatal(err)
	}
	return w
}

func benchTicks(b *testing.B, w *engine.World) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunTick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_VectorizedTraffic(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, mode := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				benchTicks(b, vehiclesWorld(b, n, engine.Options{Exec: mode}))
			})
		}
	}
}

func BenchmarkE13_VectorizedFig2(b *testing.B) {
	for _, mode := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, 20000), func(b *testing.B) {
			benchTicks(b, fig2World(b, 20000, engine.Options{Exec: mode}))
		})
	}
}

func BenchmarkE13_VectorizedRTS(b *testing.B) {
	for _, mode := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, 5000), func(b *testing.B) {
			benchTicks(b, rtsWorld(b, 5000, engine.Options{Exec: mode}))
		})
	}
}

// E14 — the sharded parallel×vectorized executor: worker scaling of scalar
// vs vectorized shards on the expression-bound traffic workload. The
// composition claim is that workers×vectorized beats both axes alone
// (compare against BenchmarkE13_VectorizedTraffic for the serial numbers).
func BenchmarkE14_ShardedTraffic(b *testing.B) {
	for _, n := range []int{100000, 200000} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, mode := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
				b.Run(fmt.Sprintf("%s/w=%d/n=%d", mode, workers, n), func(b *testing.B) {
					benchTicks(b, vehiclesWorld(b, n, engine.Options{Workers: workers, Exec: mode}))
				})
			}
		}
	}
}

// E14 companion: worker scaling on the join-dominated rts workload, where
// the sharded scalar path (worker sinks) carries the weight and the
// vectorized axis contributes only the update rules.
func BenchmarkE14_ShardedRTS(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("auto/w=%d/n=%d", workers, 5000), func(b *testing.B) {
			benchTicks(b, rtsWorld(b, 5000, engine.Options{Workers: workers}))
		})
	}
}

func flockWorld(b *testing.B, n int, opts engine.Options) *engine.World {
	b.Helper()
	sc := core.MustLoad("flock", core.SrcFlock)
	w, err := sc.NewWorld(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.PopulateBoids(w, workload.Uniform(n, 1400, 1400, 3)); err != nil {
		b.Fatal(err)
	}
	return w
}

// E15 — batched join execution: scalar per-match interpretation vs the
// batch-gathered driver (row probes, split-predicate re-check over raw
// columns, columnar folds), single core, on the join-dominated workloads.
func BenchmarkE15_BatchedJoinFig2(b *testing.B) {
	for _, mode := range []plan.JoinMode{plan.JoinScalar, plan.JoinBatched} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, 20000), func(b *testing.B) {
			benchTicks(b, fig2World(b, 20000, engine.Options{Join: mode}))
		})
	}
}

func BenchmarkE15_BatchedJoinFlock(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		for _, mode := range []plan.JoinMode{plan.JoinScalar, plan.JoinBatched} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				benchTicks(b, flockWorld(b, n, engine.Options{Join: mode}))
			})
		}
	}
}

func BenchmarkE15_BatchedJoinRTS(b *testing.B) {
	for _, mode := range []plan.JoinMode{plan.JoinScalar, plan.JoinBatched} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, 5000), func(b *testing.B) {
			benchTicks(b, rtsWorld(b, 5000, engine.Options{Join: mode}))
		})
	}
}

// E21 — §4.13: incremental subscription views. Steady-state maintenance
// cost for a pool of spectator subscriptions over the battle-royale arena
// (~7% of rows touched per tick): rescan-per-sub, forced per-sub delta
// maintenance, and the default — touched rows probing the subscription
// index. All arms emit bit-identical delta streams; only the maintenance
// work differs.
func BenchmarkE21_SubscriptionViews(b *testing.B) {
	const objects, subs = 4000, 2000
	for _, cfg := range []struct {
		name string
		mode plan.ViewMode
	}{
		{"rescan", plan.ViewRescan},
		{"delta", plan.ViewDelta},
		{"indexed", plan.ViewAuto},
	} {
		b.Run(fmt.Sprintf("%s/subs=%d", cfg.name, subs), func(b *testing.B) {
			sc := core.MustLoad("arena", core.SrcArena)
			w, err := sc.NewWorld(engine.Options{Workers: runtime.NumCPU()})
			if err != nil {
				b.Fatal(err)
			}
			ph := physics.New2D(physics.Config{
				Class: "Fighter", XAttr: "x", YAttr: "y",
				VXEffect: "vx", VYEffect: "vy", MaxSpeed: 4,
			})
			if err := w.Register(ph); err != nil {
				b.Fatal(err)
			}
			if _, err := core.PopulateArena(w, objects, 0.02, 0.05, 17); err != nil {
				b.Fatal(err)
			}
			r := views.New(w)
			side := core.ArenaSide(objects)
			for i := 0; i < subs; i++ {
				var def views.Def
				if i%10 < 8 {
					cx := float64(i%37) / 37 * side
					cy := float64(i%53) / 53 * side
					pred, err := views.InterestPred([]string{"x", "y"}, []float64{cx, cy}, 40)
					if err != nil {
						b.Fatal(err)
					}
					def = views.Def{Class: "Fighter", Pred: pred,
						Payload: []string{"x", "y", "health"}, Mode: cfg.mode}
				} else {
					def = views.Def{Class: "Fighter",
						Pred:    fmt.Sprintf("health < %d", 20+i%60),
						Payload: []string{"health"}, Mode: cfg.mode}
				}
				if _, err := r.Subscribe(def); err != nil {
					b.Fatal(err)
				}
			}
			var rows int64
			for i := 0; i < 3; i++ {
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
				r.Apply(nil)
			}
			baseRescans, baseProbes := w.ExecStats().ViewRescans, w.ExecStats().ViewIndexProbes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := w.RunTick(); err != nil {
					b.Fatal(err)
				}
				before := w.ExecStats().ViewDeltaRows
				b.StartTimer()
				r.Apply(nil)
				b.StopTimer()
				rows += w.ExecStats().ViewDeltaRows - before
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(rows)/float64(b.N), "deltarows/tick")
			b.ReportMetric(float64(w.ExecStats().ViewRescans-baseRescans)/float64(b.N), "rescans/tick")
			b.ReportMetric(float64(w.ExecStats().ViewIndexProbes-baseProbes)/float64(b.N), "probes/tick")
		})
	}
}
