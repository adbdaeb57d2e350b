package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/workload"
)

// rtsSkirmish is core.SrcRTS made stationary: the shipped script plus
// PopulateSoldiers sends every soldier to the common centroid, so its tick
// time doubles within 150 ticks. Here movement is unconditional, health is
// capped, and the command stream keeps waypoints near each soldier's home.
//
//go:embed scripts/rts_skirmish.sgl
var rtsSkirmish string

// sizing is the frozen input size of every workload. Run length never
// changes a population: a shorter run has fewer frames of the same size.
// HibernateAfter must exceed verifyFrames: the verification replay assumes
// every world ticked in each of the first rounds.
type sizing struct {
	Name                string  `json:"name"`
	Vehicles            int     `json:"vehicles"`
	Soldiers            int     `json:"soldiers"`
	MarketPairs         int     `json:"market_pairs"`
	Fighters            int     `json:"fighters"`
	Subs                int     `json:"subs"`
	Fig2Worlds          int     `json:"fig2_worlds"`
	Fig2Units           int     `json:"fig2_units"`
	Fig2Subs            int     `json:"fig2_subs"`
	MarketWorlds        int     `json:"market_worlds"`
	MarketWorldPairs    int     `json:"market_world_pairs"`
	VehicleWorlds       int     `json:"vehicle_worlds"`
	VehicleWorldUnits   int     `json:"vehicle_world_units"`
	Window              int     `json:"client_window"`
	Slide               int     `json:"window_slide"`
	HibernateAfter      int     `json:"hibernate_after"`
	WarmupFrames        int     `json:"warmup_frames"`
	TrafficWarmupFrames int     `json:"traffic_warmup_frames"`
	PeriodMs            int     `json:"period_ms"`
	RetargetShare       float64 `json:"retarget_share"`
	SwapShare           float64 `json:"swap_share"`
}

// fullSize was measured on a 2-core box; see README.md for the frame times
// each size gives there.
var fullSize = sizing{
	Name: "full", Vehicles: 200000, Soldiers: 20000, MarketPairs: 20000,
	Fighters: 10000, Subs: 3000,
	Fig2Worlds: 8, Fig2Units: 1000, Fig2Subs: 50,
	MarketWorlds: 16, MarketWorldPairs: 500,
	VehicleWorlds: 256, VehicleWorldUnits: 500,
	Window: 64, Slide: 4, HibernateAfter: 8,
	WarmupFrames: 30, TrafficWarmupFrames: 100, PeriodMs: 50,
	RetargetShare: 0.02, SwapShare: 0.01,
}

// smokeSize checks that the harness works; it measures nothing.
var smokeSize = sizing{
	Name: "smoke", Vehicles: 3000, Soldiers: 400, MarketPairs: 300,
	Fighters: 400, Subs: 100,
	Fig2Worlds: 2, Fig2Units: 100, Fig2Subs: 5,
	MarketWorlds: 2, MarketWorldPairs: 40,
	VehicleWorlds: 12, VehicleWorldUnits: 40,
	Window: 4, Slide: 1, HibernateAfter: 6,
	WarmupFrames: 6, TrafficWarmupFrames: 6, PeriodMs: 10,
	RetargetShare: 0.02, SwapShare: 0.02,
}

// config is everything a workload is built from.
type config struct {
	seed int64
	size sizing
	// reference builds the scalar/serial arm the verification pass compares
	// against: ExecScalar, Workers 1, JoinScalar, TxnScalar, ViewRescan.
	reference bool
}

func workers() int { return min(runtime.NumCPU(), 4) }

func (c config) engineOptions() engine.Options {
	if c.reference {
		return engine.Options{Workers: 1, Exec: plan.ExecScalar, Join: plan.JoinScalar, Txn: plan.TxnScalar}
	}
	return engine.Options{Workers: workers()}
}

func (c config) viewMode() plan.ViewMode {
	if c.reference {
		return plan.ViewRescan
	}
	return plan.ViewAuto
}

// verifyFrames is how many frames (or rounds) from a fresh build the
// verification pass replays under the reference configuration.
const verifyFrames = 5

// window is what one timed stretch of a workload produced. Times are
// milliseconds unless the field says otherwise.
type window struct {
	frames     []float64 // one per frame, round or period
	wall       time.Duration
	worldTicks int64
	attempted  int64
	failed     int64
	err        error // the first failure, for the log

	subPairUs, subUs, unsubUs []float64 // arena_spectators
	wake                      []float64 // fleet_rounds
	schedWait, worldTick      []float64 // fleets, per world-tick
	poolBusy                  float64   // fleets: Σ world-tick spans / (workers × wall)
	released                  int64     // fleet_realtime: ticks released

	before, after counters
}

func (w *window) fail(err error) {
	w.failed++
	if w.err == nil {
		w.err = err
	}
}

// counters is one snapshot of what the layers export, read at window
// boundaries so ratios are taken where the work happened.
type counters struct {
	exec         stats.ExecCounters // summed over the counted worlds
	srv          stats.ServerCounters
	planSwitches int64
	txnSubmitted int64
	txnAborted   int64
	deltaBytes   int64
	mallocs      uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// addExec sums the counters the report uses; ViewSubs is a gauge and sums
// to the live subscriptions across the counted worlds.
func addExec(dst *stats.ExecCounters, s stats.ExecCounters) {
	dst.VectorRows += s.VectorRows
	dst.ScalarRows += s.ScalarRows
	dst.ParallelShards += s.ParallelShards
	dst.JoinProbeRows += s.JoinProbeRows
	dst.JoinMatchRows += s.JoinMatchRows
	dst.JoinBatchedRows += s.JoinBatchedRows
	dst.TxnBatchedRows += s.TxnBatchedRows
	dst.IndexBuildNanos += s.IndexBuildNanos
	dst.IndexReuses += s.IndexReuses
	dst.IndexIncrements += s.IndexIncrements
	dst.ViewSubs += s.ViewSubs
	dst.ViewDeltaRows += s.ViewDeltaRows
	dst.ViewRescans += s.ViewRescans
}

// instance is one built workload. advance and measure both run whole
// frames; only measure times them.
type instance interface {
	// advance runs n frames (or rounds) untimed: the first frames of set-up,
	// the verification replay and the warm-up.
	advance(n int) error
	// measure runs closed-loop frames (or serves open loop) for d, recording
	// spans into tr when it is non-nil.
	measure(d time.Duration, tr *tracer) *window
	// digest hashes every class table and the ordered delta stream emitted
	// since the build.
	digest() (string, error)
	// park is called once after the traced window; it returns the time of
	// each server.World.Hibernate call it made (fleet_rounds only).
	park() []float64
}

type workloadDef struct {
	name  string
	why   string
	build func(config) (instance, error)
	// reference returns the digest of the first verifyFrames frames under
	// the reference configuration; nil means build and run it like any
	// other configuration.
	reference func(config) (string, error)
	// scripts are the distinct sources the workload compiles.
	scripts map[string]string
	warmup  func(sizing) int
}

func defaultWarmup(s sizing) int { return s.WarmupFrames }

var workloadDefs = []workloadDef{
	{
		name:    "traffic_kernels",
		why:     "200k vehicles, vectorized kernels and sharded update rules only: the bypass workload for index, txn, views and server changes",
		build:   buildTraffic,
		scripts: map[string]string{"vehicles": core.SrcVehicles},
		warmup:  func(s sizing) int { return s.TrafficWarmupFrames },
	},
	{
		name:    "rts_joins",
		why:     "20k soldiers at ~12 index candidates per probe with physics: index build, batched join and cross-object emission dominate",
		build:   buildRTS,
		scripts: map[string]string{"rts_skirmish": rtsSkirmish},
		warmup:  defaultWarmup,
	},
	{
		name:    "market_txns",
		why:     "20k buyer/seller pairs, one atomic block per buyer per tick at a constant ~50% abort mix: the only workload where txn admission is a large share",
		build:   buildMarket,
		scripts: map[string]string{"market": core.SrcMarket},
		warmup:  defaultWarmup,
	},
	{
		name:    "arena_spectators",
		why:     "10k fighters watched by 3000 subscriptions with 1% of them replaced every frame: view maintenance dominates and joining competes with it",
		build:   buildArena,
		scripts: map[string]string{"arena": core.SrcArena},
		warmup:  defaultWarmup,
	},
	{
		name:      "fleet_rounds",
		why:       "280 small worlds under RunRounds with a sliding client window, closed loop: scheduler, plan cache, arena pool and hibernation do the work",
		build:     func(c config) (instance, error) { return buildFleet(c, false) },
		reference: fleetReference,
		scripts:   fleetScripts,
		warmup:    defaultWarmup,
	},
	{
		name:      "fleet_realtime",
		why:       "the same fleet under Serve at a 50 ms period, open loop, timed from each period's due time: the latency a hosted player sees below saturation",
		build:     func(c config) (instance, error) { return buildFleet(c, true) },
		reference: fleetReference,
		scripts:   fleetScripts,
		warmup:    defaultWarmup,
	},
}

var fleetScripts = map[string]string{"fig2": core.SrcFig2, "market": core.SrcMarket, "vehicles": core.SrcVehicles}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// Populations. Every generator is a pure function of (size, seed); the
// engine sees only the spawned objects.

func populateVehicles(w *engine.World, n int, seed int64) error {
	_, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, seed))
	return err
}

// populateMarket spawns buyer/seller pairs in alternating segments: sellers
// with stock that never runs out, then sellers that sell out within the
// first three ticks and whose buyers abort on `seller.stock >= 0` ever
// after. Every buyer submits one transaction per tick, so admission load
// and the ~50 % abort mix are constant. Segment sizes vary so pair id
// offsets vary (the E20 fixture's reason).
func populateMarket(w *engine.World, pairs int) error {
	sizes := []int{612, 613, 616, 619}
	deep := true
	for remaining, chunk := pairs, 0; remaining > 0; chunk++ {
		n := min(sizes[chunk%len(sizes)], remaining, max(pairs/8, 1))
		stock := 1 << 40
		if !deep {
			stock = 3
		}
		if _, _, err := core.PopulateMarket(w, workload.Market{
			Sellers: n, BuyersPerItem: 1, Stock: stock, Price: 25, Gold: 1e12,
		}); err != nil {
			return err
		}
		deep = !deep
		remaining -= n
	}
	return nil
}

// spectatorDefs is E21's 85/10/5 mix over a class with x, y and health:
// camera interest boxes, health-threshold watchers, scoreboard aggregates.
func spectatorDef(class string, i int, side float64, rng *rand.Rand, mode plan.ViewMode) (views.Def, error) {
	switch {
	case i%20 < 17:
		pred, err := views.InterestPred([]string{"x", "y"},
			[]float64{rng.Float64() * side, rng.Float64() * side}, 40)
		if err != nil {
			return views.Def{}, err
		}
		return views.Def{Class: class, Pred: pred, Payload: []string{"x", "y", "health"}, Mode: mode}, nil
	case i%20 < 19:
		return views.Def{Class: class, Pred: fmt.Sprintf("health < %d", 20+i%60),
			Payload: []string{"health"}, Mode: mode}, nil
	}
	switch i % 3 {
	case 0:
		return views.Def{Class: class, Pred: "health < 50", Kind: views.Count, Mode: mode}, nil
	case 1:
		return views.Def{Class: class, Pred: "health < 100", Kind: views.Sum, Attr: "health", Mode: mode}, nil
	}
	return views.Def{Class: class, Pred: "true", Kind: views.TopK, Attr: "health", K: 10, Mode: mode}, nil
}

// fig2Side keeps Figure 2's neighbour count near 4 at any unit count, so
// some units take crowding damage every tick and some never do.
func fig2Side(units int) float64 { return math.Sqrt(float64(units) * 100) }

func populateFig2(w *engine.World, units int, seed int64) error {
	side := fig2Side(units)
	_, err := core.PopulateUnits(w, workload.Uniform(units, side, side, seed), 10)
	return err
}

// Digests.

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashF64s(h hash.Hash, xs []float64) {
	for _, x := range xs {
		hashU64(h, math.Float64bits(x))
	}
}

// hashTables folds every class table of a world into h: ids, then each
// column's raw payload, classes in name order.
func hashTables(h hash.Hash, w *engine.World) error {
	c, err := w.Checkpoint()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(c.Tables))
	for name := range c.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	hashU64(h, uint64(c.Tick))
	for _, name := range names {
		snap := c.Tables[name]
		h.Write([]byte(name))
		for _, id := range snap.IDs {
			hashU64(h, uint64(id))
		}
		for _, col := range snap.Cols {
			h.Write([]byte(col.Name))
			hashF64s(h, col.Nums)
			for _, s := range col.Strs {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
			if len(col.Sets) > 0 {
				return fmt.Errorf("digest: set column %s.%s is not hashed", name, col.Name)
			}
		}
	}
	return nil
}

// hashDelta folds one subscription delta into h; a stream of them in
// emission order is the spectator-visible output.
func hashDelta(h hash.Hash, d *views.Delta) {
	hashU64(h, uint64(d.Sub))
	hashU64(h, uint64(d.Tick))
	flags := uint64(0)
	if d.Resync {
		flags |= 1
	}
	if d.AggChanged {
		flags |= 2
	}
	hashU64(h, flags)
	for _, ids := range [][]value.ID{d.AddIDs, d.UpdIDs, d.RemIDs} {
		hashU64(h, uint64(len(ids)))
		for _, id := range ids {
			hashU64(h, uint64(id))
		}
	}
	for _, c := range d.AddCols {
		hashF64s(h, c)
	}
	for _, c := range d.UpdCols {
		hashF64s(h, c)
	}
	hashU64(h, math.Float64bits(d.Agg))
	for _, e := range d.Top {
		hashU64(h, uint64(e.ID))
		hashU64(h, math.Float64bits(e.Key))
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:32] }

func newHash() hash.Hash { return sha256.New() }
