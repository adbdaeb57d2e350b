package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// metric is one reported number. N is the sample count behind it and Spread
// the (max-min)/median of its per-segment values, where it has them.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// metricDef names a metric of BENCHMARK.json; the lists below are printed
// in this order and checked against that file by the test.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frame_ms_p50", "ms"},
	{"world_ticks_per_s", "1/s"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	// sgl + compile + analysis
	{"compile_ms", "ms"}, {"plan_cache_hit_rate", "share"},
	// engine (+ vexpr, table)
	{"engine.tick_ms", "ms"}, {"engine.self_ms", "ms"}, {"engine.commands_ms", "ms"},
	{"vector_rows", "rows/frame"}, {"scalar_rows", "rows/frame"}, {"parallel_shards", "count/frame"},
	{"vector_fraction", "share"}, {"allocs_per_frame", "count/frame"},
	// index + plan
	{"index.build_ms", "ms"}, {"index_reuses", "count/frame"}, {"index_increments", "count/frame"},
	{"join_probe_rows", "rows/frame"}, {"join_match_rows", "rows/frame"}, {"join_batched_rows", "rows/frame"},
	{"plan_switches", "count/frame"},
	// txn
	{"txn.admit_ms", "ms"}, {"txn_submitted", "count/frame"}, {"txn_abort_share", "share"},
	{"txn_batched_rows", "rows/frame"},
	// physics
	{"physics.update_ms", "ms"},
	// views
	{"views.apply_ms", "ms"}, {"views.subscribe_us", "us"}, {"views.unsubscribe_us", "us"},
	{"view_delta_rows", "rows/frame"}, {"view_delta_bytes", "bytes/frame"}, {"view_rescans", "count/frame"},
	{"view_subs", "count"},
	// server
	{"server.round_ms", "ms"}, {"server.sched_wait_ms", "ms"}, {"server.world_tick_ms", "ms"},
	{"server.pool_busy_share", "share"}, {"server.hibernate_ms", "ms"}, {"server.wake_ms", "ms"},
	{"hibernations", "count/frame"}, {"restores", "count/frame"}, {"tick_lag_ms", "ms/frame"},
	// the traced pass itself
	{"explained_share", "share"}, {"trace_overhead_share", "share"},
	// user-visible numbers that exist on one workload only or are not
	// steady enough to gate; see README.md
	{"frame_ms_p95", "ms"}, {"subscribe_us_p50", "us"}, {"wake_ms_p50", "ms"},
	{"deadline_miss_share", "share"}, {"failed_share", "share"},
}

// stationarity is the guard's verdict on the primary timing of a window.
type stationarity struct {
	FirstQuartile float64 `json:"first_quartile_ms"`
	LastQuartile  float64 `json:"last_quartile_ms"`
	Gap           float64 `json:"gap"`
	Drifting      bool    `json:"drifting"`
}

// result is one pass of one workload.
type result struct {
	Workload     string            `json:"workload"`
	Traced       bool              `json:"traced"`
	Metrics      map[string]metric `json:"metrics"`
	Diagnostics  map[string]metric `json:"diagnostics,omitempty"`
	Stationarity stationarity      `json:"stationarity"`
	Digest       string            `json:"digest"`
	Verified     bool              `json:"verified"`
	Golden       string            `json:"golden"` // match, mismatch or none
	Problems     []string          `json:"problems,omitempty"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	TraceFile    string            `json:"trace_file,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 }

func (r *result) problem(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// golden holds the digests of seed 1 per sizing and workload, so that a
// change of meaning between commits is caught even when the fast and the
// reference configuration change together. Float results depend on whether
// the compiler fuses multiply-add, so they are pinned for one GOARCH.
//
//go:embed golden/digests.json
var goldenJSON []byte

type goldenFile struct {
	GOARCH  string            `json:"goarch"`
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"` // "<sizing>/<workload>"
}

func checkGolden(size sizing, workload string, seed int64, digest string) string {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.GOARCH != runtime.GOARCH || g.Seed != seed {
		return "none"
	}
	want, ok := g.Digests[size.Name+"/"+workload]
	switch {
	case !ok:
		return "none"
	case want == digest:
		return "match"
	}
	return "mismatch"
}

// setupRepeats is how many times an untraced run builds its workload; the
// reported set-up time is the median, and the last build is the one timed.
const setupRepeats = 3

type runOptions struct {
	seed    int64
	size    sizing
	seconds float64
	traced  bool
	outDir  string
	log     io.Writer
}

// runWorkload builds, verifies, warms up and measures one workload. The
// error is for failures that leave nothing to report; everything else is
// counted in the result.
func runWorkload(def workloadDef, o runOptions) (*result, error) {
	res := &result{Workload: def.name, Traced: o.traced, Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	cfg := config{seed: o.seed, size: o.size}

	repeats := setupRepeats
	if o.traced {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		inst = nil
		runtime.GC() // the previous build must not be collected on this one's clock
		t0 := time.Now()
		var err error
		if inst, err = def.build(cfg); err != nil {
			return nil, fmt.Errorf("%s: build: %w", def.name, err)
		}
		if err := inst.advance(verifyFrames); err != nil {
			return nil, fmt.Errorf("%s: first frames: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Verification: the frames just run against the same frames under the
	// reference configuration, then against the committed digest.
	digest, err := inst.digest()
	if err != nil {
		return nil, fmt.Errorf("%s: digest: %w", def.name, err)
	}
	want, err := def.referenceDigest(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", def.name, err)
	}
	res.Digest, res.Verified = digest, digest == want
	res.Attempted++
	if !res.Verified {
		res.problem("digest %s differs from the reference configuration's %s", digest, want)
	}
	if res.Golden = checkGolden(o.size, def.name, o.seed, digest); res.Golden == "mismatch" {
		res.problem("digest %s differs from golden/digests.json", digest)
	}

	if err := inst.advance(max(def.warmup(o.size)-verifyFrames, 0)); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
	}
	runtime.GC()

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		win := inst.measure(d, nil)
		res.fold(win)
		res.endToEnd(win, setups)
		// The workload is still resident when the heap is read.
		res.Metrics["heap_mb"] = metric{Value: heapMB(), Unit: "MB", N: 1}
		runtime.KeepAlive(inst)
		return res, nil
	}
	base := inst.measure(d/3, nil)
	tr := newTracer()
	win := inst.measure(d-d/3, tr)
	res.fold(base)
	res.fold(win)
	res.perLayer(def, base, win, tr, inst.park())
	if res.TraceFile, err = tr.write(o.outDir, def.name); err != nil {
		return nil, err
	}
	return res, nil
}

func (d workloadDef) referenceDigest(c config) (string, error) {
	c.reference = true
	if d.reference != nil {
		return d.reference(c)
	}
	inst, err := d.build(c)
	if err != nil {
		return "", err
	}
	if err := inst.advance(verifyFrames); err != nil {
		return "", err
	}
	return inst.digest()
}

func (r *result) fold(win *window) {
	r.Attempted += win.attempted
	r.Failed += win.failed
	if win.err != nil {
		r.Problems = append(r.Problems, win.err.Error())
	}
}

// heapMB is HeapInuse after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func (r *result) setStationarity(frames []float64) {
	first, last, gap := drift(frames)
	r.Stationarity = stationarity{first, last, gap, gap > driftLimit}
}

func (r *result) endToEnd(win *window, setups []float64) {
	r.setStationarity(win.frames)
	v, spread := segmented(win.frames, median)
	r.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	r.Metrics["frame_ms_p50"] = metric{Value: v, Unit: "ms", N: len(win.frames), Spread: spread}
	r.Metrics["world_ticks_per_s"] = metric{Value: float64(win.worldTicks) / win.wall.Seconds(), Unit: "1/s", N: int(win.worldTicks)}
	for name, m := range tails(win) {
		r.Diagnostics[name] = m
	}
}

// tails are the user-visible numbers that are printed but not gated: upper
// percentiles (only where enough samples lie beyond them) and the timings
// that exist on one workload only.
func tails(win *window) map[string]metric {
	out := map[string]metric{}
	timing := func(name, unit string, xs []float64, p float64, atLeast int) {
		if len(xs) >= atLeast {
			out[name] = metric{Value: percentile(xs, p), Unit: unit, N: len(xs)}
		}
	}
	timing("frame_ms_p95", "ms", win.frames, 95, 200)
	timing("frame_ms_p99", "ms", win.frames, 99, 1000)
	timing("subscribe_us_p50", "us", win.subPairUs, 50, 1)
	timing("subscribe_us_p95", "us", win.subPairUs, 95, 200)
	timing("wake_ms_p50", "ms", win.wake, 50, 1)
	timing("wake_ms_p95", "ms", win.wake, 95, 200)
	timing("world_tick_ms_p50", "ms", win.worldTick, 50, 1)
	timing("world_tick_ms_p95", "ms", win.worldTick, 95, 200)
	if win.released > 0 {
		misses := win.after.srv.TickDeadlineMisses - win.before.srv.TickDeadlineMisses
		out["deadline_miss_share"] = metric{Value: float64(misses) / float64(win.released), Unit: "share", N: int(win.released)}
	}
	return out
}

// compileMs is the mean time to parse, check, compile and plan one of the
// workload's distinct scripts.
func compileMs(scripts map[string]string) (float64, error) {
	var total time.Duration
	for name, src := range scripts {
		t0 := time.Now()
		sc, err := core.LoadScenario(name, src)
		if err != nil {
			return 0, err
		}
		sc.Compiled(false)
		total += time.Since(t0)
	}
	return ms(total) / float64(len(scripts)), nil
}

func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer fills every per-layer metric from the traced window, its counter
// deltas and its spans; base is the untraced window run just before it.
func (r *result) perLayer(def workloadDef, base, win *window, tr *tracer, hibernate []float64) {
	r.setStationarity(base.frames)
	frames := float64(max(len(win.frames), 1))
	b, a := win.before, win.after
	set := func(name string, v float64, n int) {
		for _, d := range perLayer {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit, N: n}
				return
			}
		}
		panic("bench: undeclared per-layer metric " + name)
	}
	perFrame := func(name string, delta int64) { set(name, float64(delta)/frames, len(win.frames)) }

	// Span totals by layer.
	dur := map[string]int64{}
	count := map[string]int{}
	for _, s := range tr.spans {
		dur[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	att := tr.attribute()
	spanMean := func(name, spanName string, total int64) {
		n := count[spanName]
		set(name, float64(total)/1e6/float64(max(n, 1)), n)
	}

	if c, err := compileMs(def.scripts); err != nil {
		r.problem("compile: %v", err)
	} else {
		set("compile_ms", c, len(def.scripts))
	}
	set("plan_cache_hit_rate", share(a.srv.PlanCacheHits, a.srv.PlanCacheHits+a.srv.PlanCacheMisses), int(a.srv.PlanCacheHits+a.srv.PlanCacheMisses))

	spanMean("engine.tick_ms", "engine.tick", dur["engine.tick"])
	spanMean("engine.self_ms", "engine.tick", att.selfNs["engine.tick"])
	spanMean("engine.commands_ms", "engine.commands", dur["engine.commands"])
	vec, sca := a.exec.VectorRows-b.exec.VectorRows, a.exec.ScalarRows-b.exec.ScalarRows
	perFrame("vector_rows", vec)
	perFrame("scalar_rows", sca)
	perFrame("parallel_shards", a.exec.ParallelShards-b.exec.ParallelShards)
	set("vector_fraction", share(vec, vec+sca), int(vec+sca))
	perFrame("allocs_per_frame", int64(a.mallocs-b.mallocs))

	set("index.build_ms", float64(a.exec.IndexBuildNanos-b.exec.IndexBuildNanos)/1e6/frames, len(win.frames))
	perFrame("index_reuses", a.exec.IndexReuses-b.exec.IndexReuses)
	perFrame("index_increments", a.exec.IndexIncrements-b.exec.IndexIncrements)
	perFrame("join_probe_rows", a.exec.JoinProbeRows-b.exec.JoinProbeRows)
	perFrame("join_match_rows", a.exec.JoinMatchRows-b.exec.JoinMatchRows)
	perFrame("join_batched_rows", a.exec.JoinBatchedRows-b.exec.JoinBatchedRows)
	perFrame("plan_switches", a.planSwitches-b.planSwitches)

	spanMean("txn.admit_ms", "txn.admit", dur["txn.admit"])
	submitted := a.txnSubmitted - b.txnSubmitted
	perFrame("txn_submitted", submitted)
	set("txn_abort_share", share(a.txnAborted-b.txnAborted, submitted), int(submitted))
	perFrame("txn_batched_rows", a.exec.TxnBatchedRows-b.exec.TxnBatchedRows)

	spanMean("physics.update_ms", "physics.update", dur["physics.update"])

	spanMean("views.apply_ms", "views.apply", dur["views.apply"])
	set("views.subscribe_us", median(win.subUs), len(win.subUs))
	set("views.unsubscribe_us", median(win.unsubUs), len(win.unsubUs))
	perFrame("view_delta_rows", a.exec.ViewDeltaRows-b.exec.ViewDeltaRows)
	perFrame("view_delta_bytes", a.deltaBytes-b.deltaBytes)
	perFrame("view_rescans", a.exec.ViewRescans-b.exec.ViewRescans)
	set("view_subs", float64(a.exec.ViewSubs), 1)

	spanMean("server.round_ms", "server.round", dur["server.round"])
	set("server.sched_wait_ms", mean(win.schedWait), len(win.schedWait))
	set("server.world_tick_ms", mean(win.worldTick), len(win.worldTick))
	set("server.pool_busy_share", win.poolBusy, len(win.worldTick))
	set("server.hibernate_ms", median(hibernate), len(hibernate))
	set("server.wake_ms", median(win.wake), len(win.wake))
	perFrame("hibernations", a.srv.Hibernations-b.srv.Hibernations)
	perFrame("restores", a.srv.Restores-b.srv.Restores)
	set("tick_lag_ms", float64(a.srv.TickLagNanos-b.srv.TickLagNanos)/1e6/frames, len(win.frames))

	set("explained_share", att.explained, count["frame"])
	overhead := 0.0
	if bp := median(base.frames); bp > 0 {
		overhead = median(win.frames)/bp - 1
	}
	set("trace_overhead_share", overhead, len(win.frames))

	// The tails come from both windows together: the untraced third alone
	// has too few frames for a p95, and tracing moves a frame by less than
	// the run-to-run noise.
	t := tails(&window{
		frames:    append(append([]float64(nil), base.frames...), win.frames...),
		subPairUs: append(append([]float64(nil), base.subPairUs...), win.subPairUs...),
		wake:      append(append([]float64(nil), base.wake...), win.wake...),
		released:  base.released + win.released,
		before:    base.before,
		after:     win.after,
	})
	for _, name := range []string{"frame_ms_p95", "subscribe_us_p50", "wake_ms_p50", "deadline_miss_share"} {
		set(name, t[name].Value, t[name].N)
	}
	set("failed_share", share(r.Failed, r.Attempted), int(r.Attempted))

	// Self time per layer, for the log.
	for name, ns := range att.selfNs {
		r.Diagnostics["self."+name] = metric{Value: float64(ns) / 1e6 / frames, Unit: "ms/frame", N: count[name]}
	}

	// A layer that a workload bypasses must do no work there: the "should
	// not move" column of the README's table rests on it.
	zero := func(metric string, workloads ...string) {
		for _, w := range workloads {
			if w == def.name && r.Metrics[metric].Value != 0 {
				r.problem("%s = %g on %s, which must bypass that layer", metric, r.Metrics[metric].Value, w)
			}
		}
	}
	zero("join_probe_rows", "traffic_kernels", "market_txns")
	zero("txn_submitted", "traffic_kernels", "rts_joins", "arena_spectators")
	zero("view_subs", "traffic_kernels", "rts_joins", "market_txns")
	if att.explained < 0.98 {
		r.Problems = append(r.Problems, fmt.Sprintf("spans explain only %.1f%% of frame wall time", 100*att.explained))
	}
}

// print writes the result's metrics by name and unit, in declaration order.
func (r *result) print(w io.Writer) {
	pass, defs := "end-to-end, tracing off", endToEnd
	if r.Traced {
		pass, defs = "per-layer, traced pass", perLayer
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.Workload, pass)
	line := func(name string, m metric) {
		fmt.Fprintf(w, "  %-26s %14.4f %-12s n=%d", name, m.Value, m.Unit, m.N)
		if m.Spread > 0 {
			fmt.Fprintf(w, " segment-spread=%.1f%%", 100*m.Spread)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		line(d.name, r.Metrics[d.name])
	}
	names := make([]string, 0, len(r.Diagnostics))
	for name := range r.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line("("+name+")", r.Diagnostics[name])
	}
	s := r.Stationarity
	verdict := "stationary"
	if s.Drifting {
		verdict = "drifting"
	}
	fmt.Fprintf(w, "  %s: first-quartile median %.3f ms, last %.3f ms, gap %.1f%%\n", verdict, s.FirstQuartile, s.LastQuartile, 100*s.Gap)
	fmt.Fprintf(w, "  verified=%v golden=%s digest=%s attempted=%d failed=%d\n", r.Verified, r.Golden, r.Digest, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}
