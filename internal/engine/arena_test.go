package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/vexpr"
	"repro/internal/workload"
)

func pooledVehicleWorld(t *testing.T, n int, pool *engine.ArenaPool) *engine.World {
	return pooledVehicleWorldOpts(t, n, pool, engine.Options{Workers: 1})
}

func pooledVehicleWorldOpts(t *testing.T, n int, pool *engine.ArenaPool, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	w.SetArenaPool(pool)
	if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 3)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestKernelLanesWithinBatch pins the windowed executor's scratch: every
// pass runs in vexpr.BatchSize windows on the lanes of the worker running
// it, so on a vectorized vehicles world of 21 batches no kernel lane the
// world retains outgrows one batch, at any worker or partition count; and a
// world ticking on an ArenaPool retains none of its own, worker slot 0's
// lanes living in the pooled arena.
func TestKernelLanesWithinBatch(t *testing.T) {
	const n = 21 * vexpr.BatchSize
	tick := func(w *engine.World) {
		for i := 0; i < 3; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		if w.ExecStats().VectorRows == 0 {
			t.Fatal("no row ran as kernels")
		}
	}
	for _, c := range []struct {
		name string
		opts engine.Options
	}{
		{"workers=1", engine.Options{Workers: 1}},
		{"workers=2", engine.Options{Workers: 2}},
		{"partitions=2/workers=2", engine.Options{Workers: 2, Partitions: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := pooledVehicleWorldOpts(t, n, nil, c.opts)
			tick(w)
			bytes, longest := w.KernelLanes()
			if bytes == 0 {
				t.Fatal("the world's own arena holds no kernel lanes")
			}
			if longest > vexpr.BatchSize {
				t.Fatalf("a retained kernel lane is %d long, want at most %d", longest, vexpr.BatchSize)
			}
		})
	}
	t.Run("arena-pool", func(t *testing.T) {
		pool := &engine.ArenaPool{}
		w := pooledVehicleWorldOpts(t, n, pool, engine.Options{Workers: 1})
		tick(w)
		if bytes, _ := w.KernelLanes(); bytes != 0 {
			t.Fatalf("a pooled world retains %d bytes of kernel lanes, want 0", bytes)
		}
		bytes, longest := pool.KernelLanes()
		if bytes == 0 || longest > vexpr.BatchSize {
			t.Fatalf("pooled arenas hold %d bytes of kernel lanes, longest %d; want some, at most %d", bytes, longest, vexpr.BatchSize)
		}
	})
}

// TestSteadyStateTickAllocsZero is the arena-pooling acceptance guard: a
// warmed world ticking through a shared arena pool must not allocate at
// all in steady state — kernel machines, index builders, execution
// contexts, shard sinks and accumulator slabs are all checked out or
// pooled, never remade per tick. That holds for every split of the extent
// the driver runs inline (Workers=1, partitioned or not). A fan-out pays
// for its goroutines and nothing else: Workers=4 must allocate the same at
// 2k and 20k rows — nothing per row, per emission or per shard.
func TestSteadyStateTickAllocsZero(t *testing.T) {
	warmAllocs := func(w *engine.World) float64 {
		for i := 0; i < 5; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name string
		opts engine.Options
	}{
		{"serial", engine.Options{Workers: 1}},
		{"partitions=4", engine.Options{Workers: 1, Partitions: 4}},
		{"scalar", engine.Options{Workers: 1, Exec: plan.ExecScalar}},
		{"scalar/partitions=4", engine.Options{Workers: 1, Exec: plan.ExecScalar, Partitions: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := pooledVehicleWorldOpts(t, 500, &engine.ArenaPool{}, c.opts)
			if avg := warmAllocs(w); avg != 0 {
				t.Fatalf("steady-state RunTick allocates %.1f objects/tick, want 0", avg)
			}
		})
	}
	// A partitioned join whose probing class spans two kernel windows: the
	// reach derivation folds window by window on the arena's lanes.
	t.Run("fig2/partitions=4/two-windows", func(t *testing.T) {
		w := reachFig2World(t, vexpr.BatchSize+500, engine.Options{Workers: 1, Partitions: 4})
		w.SetArenaPool(&engine.ArenaPool{})
		if avg := warmAllocs(w); avg != 0 {
			t.Fatalf("steady-state partitioned fig2 RunTick allocates %.1f objects/tick, want 0", avg)
		}
		for _, r := range w.InteractionRadii() {
			if r.Shared {
				t.Fatalf("%s←%s fell back to the shared index: the reach went unmeasured", r.Class, r.Source)
			}
		}
	})
	// A changefeed attached: full kernel columns commit by swap and diff
	// old against new storage, and the drain hands the marks out.
	t.Run("changefeed", func(t *testing.T) {
		w := pooledVehicleWorldOpts(t, 500, &engine.ArenaPool{}, engine.Options{Workers: 1})
		w.EnableChangeFeed()
		rows := 0
		drain := func(d engine.ClassDelta) { rows += len(d.Rows) }
		tick := func() {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			w.DrainChangeFeed(drain)
		}
		for i := 0; i < 5; i++ {
			tick()
		}
		if avg := testing.AllocsPerRun(20, tick); avg != 0 {
			t.Fatalf("steady-state RunTick+drain with a changefeed allocates %.1f objects/tick, want 0", avg)
		}
		if rows == 0 {
			t.Fatal("the feed marked no rows: the diff went unmeasured")
		}
	})
	// A physics-owned class: the column loop resolves its handles, stages
	// whole columns and separates colliding soldiers on retained scratch.
	t.Run("physics", func(t *testing.T) {
		sc, err := core.LoadScenario("rts", core.SrcRTS)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w.SetArenaPool(&engine.ArenaPool{})
		ph := physics.New2D(physics.Config{
			Class: "Soldier", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy", Radius: 2, MaxSpeed: 4,
		})
		if err := w.Register(ph); err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateSoldiers(w, workload.Uniform(500, 200, 200, 3)); err != nil {
			t.Fatal(err)
		}
		if avg := warmAllocs(w); avg != 0 {
			t.Fatalf("steady-state physics RunTick allocates %.1f objects/tick, want 0", avg)
		}
		if ph.Collisions == 0 {
			t.Fatal("no collisions: the resolve path went unmeasured")
		}
	})
	// The rts phase around its hoisted join runs as kernels: the join
	// result is a lane, and foe.damage appends to the shard sink.
	t.Run("rts/kernel-phase", func(t *testing.T) {
		w := rtsWorldFor(t, 2000, engine.Options{Workers: 1})
		w.SetArenaPool(&engine.ArenaPool{})
		if avg := warmAllocs(w); avg != 0 {
			t.Fatalf("steady-state rts RunTick allocates %.1f objects/tick, want 0", avg)
		}
		if s := w.ExecStats(); s.ScalarRows != 0 || s.VectorRows == 0 || s.JoinProbeRows == 0 {
			t.Fatalf("the rts phase did not run as kernels around its join: %+v", s)
		}
	})
	// The market's atomic block runs as kernels: the guard is a mask and
	// each intent is copied from payload and target lanes into the intent log.
	t.Run("market/kernel-atomic", func(t *testing.T) {
		w := pooledMarketWorld(t, 2000, engine.Options{Workers: 1, Exec: plan.ExecVectorized})
		if avg := warmAllocs(w); avg != 0 {
			t.Fatalf("steady-state kernel market RunTick allocates %.1f objects/tick, want 0", avg)
		}
		if s := w.ExecStats(); s.ScalarRows != 0 || s.VectorRows == 0 {
			t.Fatalf("the market phase did not run as kernels: %+v", s)
		}
	})
	// A kernel-built market at a steady ~50 % abort mix: half the sellers
	// sell out within the first ticks, and from then on their buyers'
	// intents fail `seller.stock >= 0` every tick, so each tick folds,
	// validates and rolls back log lanes — on retained storage only.
	t.Run("market", func(t *testing.T) {
		w := pooledMarketWorld(t, 500, engine.Options{Workers: 1})
		if _, _, err := core.PopulateMarket(w, workload.Market{
			Sellers: 500, BuyersPerItem: 1, Stock: 3, Price: 25, Gold: 1e12,
		}); err != nil {
			t.Fatal(err)
		}
		counting := &txn.CountingPolicy{}
		w.SetTxnPolicy(passThrough{counting})
		if avg := warmAllocs(w); avg != 0 {
			t.Fatalf("steady-state market RunTick at a ~50%% abort mix allocates %.1f objects/tick, want 0", avg)
		}
		if r := counting.Stats.AbortRate(); r < 0.4 || r > 0.6 {
			t.Fatalf("abort rate %.2f, want about 0.5", r)
		}
		if s := w.ExecStats(); s.ScalarRows != 0 || s.TxnBatchedRows == 0 {
			t.Fatalf("the market did not build its intents with kernels and admit them batched: %+v", s)
		}
	})
	fanOut := 0.0 // the most a vehicle Workers=4 row allocates per tick
	for _, exec := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized} {
		t.Run(fmt.Sprintf("workers=4/%v", exec), func(t *testing.T) {
			var allocs [2]float64
			for i, n := range []int{2000, 20000} {
				w := pooledVehicleWorldOpts(t, n, &engine.ArenaPool{}, engine.Options{Workers: 4, Exec: exec})
				allocs[i] = warmAllocs(w)
				if w.ExecStats().ParallelShards == 0 {
					t.Fatalf("%d rows never fanned out", n)
				}
			}
			t.Logf("Workers=4 %v: %.1f allocs/tick", exec, allocs[0])
			if allocs[0] != allocs[1] {
				t.Fatalf("Workers=4 allocates %.1f objects/tick at 2k rows but %.1f at 20k", allocs[0], allocs[1])
			}
			fanOut = max(fanOut, allocs[0])
		})
	}
	// Transaction-bearing rows: every buyer of the market submits one atomic
	// intent per tick. Intents are recycled and admission runs on retained
	// scratch, so a market tick allocates nothing either — under both
	// admission drivers, with the default policy and with a pass-through
	// custom one — and a fan-out pays only what the vehicle fan-out pays.
	for _, mode := range []plan.TxnMode{plan.TxnScalar, plan.TxnBatched} {
		for _, custom := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("market/%v/custom=%v/workers=%d", mode, custom, workers), func(t *testing.T) {
					w := pooledMarketWorld(t, 2000, engine.Options{Workers: workers, Txn: mode})
					counting := &txn.CountingPolicy{}
					if custom {
						w.SetTxnPolicy(passThrough{counting})
					}
					avg := warmAllocs(w)
					if custom && counting.Stats.Committed == 0 {
						t.Fatal("no transaction committed")
					}
					if workers == 1 && avg != 0 {
						t.Fatalf("steady-state market RunTick allocates %.1f objects/tick, want 0", avg)
					}
					if workers > 1 && avg > fanOut {
						t.Fatalf("Workers=%d market allocates %.1f objects/tick, above the vehicle fan-out's %.1f", workers, avg, fanOut)
					}
				})
			}
		}
	}
}

// passThrough is the benchmark's policy shape: the default greedy
// admission behind a custom TxnPolicy.
type passThrough struct{ inner *txn.CountingPolicy }

func (p passThrough) Admit(ctx *engine.UpdateCtx, txns []*engine.Txn) error {
	return p.inner.Admit(ctx, txns)
}

// pooledMarketWorld spawns pairs buyer/seller pairs whose gold and stock
// never run out, so every buyer submits a transaction every tick.
func pooledMarketWorld(t *testing.T, pairs int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("market", core.SrcMarket)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	w.SetArenaPool(&engine.ArenaPool{})
	if _, _, err := core.PopulateMarket(w, workload.Market{
		Sellers: pairs, BuyersPerItem: 1, Stock: 1 << 40, Price: 25, Gold: 1e12,
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestArenaPoolSharedAcrossWorlds pins the checkout protocol: two worlds
// alternating ticks through one pool reuse the same arena (LIFO), and the
// builder-generation check keeps their index state bit-identical to worlds
// that own private arenas.
func TestArenaPoolSharedAcrossWorlds(t *testing.T) {
	pool := &engine.ArenaPool{}
	a := pooledVehicleWorld(t, 120, pool)
	b := pooledVehicleWorld(t, 120, pool)
	ref := func() *engine.World {
		sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(120, 4000, 4000, 3)); err != nil {
			t.Fatal(err)
		}
		return w
	}()
	for i := 0; i < 6; i++ {
		for _, w := range []*engine.World{a, b, ref} {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ref.IDs("Vehicle") {
		for _, attr := range []string{"x", "y", "dx", "dy", "fuel", "odo", "stress"} {
			rv, _ := ref.Get("Vehicle", id, attr)
			av, _ := a.Get("Vehicle", id, attr)
			bv, _ := b.Get("Vehicle", id, attr)
			if !rv.Equal(av) || !rv.Equal(bv) {
				t.Fatalf("vehicle %d %s: pooled %v/%v vs owned %v", id, attr, av, bv, rv)
			}
		}
	}
}
