package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs both passes of all six workloads at the smoke sizing:
// every workload must build, verify against the reference configuration
// and the golden digests, lose no operation, and report every declared
// metric. Timings at this size mean nothing and are not checked.
func TestSmoke(t *testing.T) {
	var log bytes.Buffer
	rep, _, err := runAll(runOptions{seed: 1, size: smokeSize, seconds: 0.1, outDir: t.TempDir(), log: &log})
	if err != nil {
		t.Fatalf("runAll: %v\n%s", err, log.String())
	}
	if len(rep.Results) != 2*len(workloadDefs) {
		t.Fatalf("got %d results, want %d", len(rep.Results), 2*len(workloadDefs))
	}
	for _, r := range rep.Results {
		if !r.correct() {
			t.Errorf("%s (traced=%v): %d of %d operations failed: %v", r.Workload, r.Traced, r.Failed, r.Attempted, r.Problems)
		}
		if r.Golden != "match" && goldenApplies() {
			t.Errorf("%s: golden %s; digest is %s", r.Workload, r.Golden, r.Digest)
		}
		defs := endToEnd
		if r.Traced {
			defs = perLayer
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", r.Workload, err)
			}
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s (traced=%v): %d metrics, want %d", r.Workload, r.Traced, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", r.Workload, d.name, m.Unit, d.unit)
			}
		}
	}
	if t.Failed() {
		t.Log(log.String())
	}
}

func goldenApplies() bool { return checkGolden(smokeSize, "traffic_kernels", 1, "") != "none" }

// TestBenchmarkFile keeps BENCHMARK.json and the harness in step: the same
// workloads and the same metric names and units, in both directions.
func TestBenchmarkFile(t *testing.T) {
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range file.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s [%s], want %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range file.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s [%s], want %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSegmentsAndDrift(t *testing.T) {
	xs := []float64{1, 1, 1, 2, 2, 2, 9, 9, 9}
	v, spread := segmented(xs, median)
	if v != 2 || spread != 4 {
		t.Errorf("segmented = %g, %g; want 2, 4", v, spread)
	}
	if _, _, gap := drift([]float64{10, 10, 10, 10, 12, 12, 12, 12}); gap < 0.19 || gap > 0.21 {
		t.Errorf("drift gap = %g, want 0.2", gap)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 95); got != 5 {
		t.Errorf("p95 = %g, want 5", got)
	}
}

// TestAttribution checks self time and the explained share on a frame with
// two overlapping children and a grandchild.
func TestAttribution(t *testing.T) {
	tr := &tracer{}
	root := tr.add("frame", -1, 1, 0, 100)
	a := tr.add("a", root, 1, 10, 60)
	tr.add("b", root, 1, 40, 90) // overlaps a by 20
	tr.add("c", a, 1, 20, 30)
	att := tr.attribute()
	if att.selfNs["frame"] != 20 || att.selfNs["a"] != 40 || att.selfNs["b"] != 50 || att.selfNs["c"] != 10 {
		t.Errorf("self times = %v", att.selfNs)
	}
	if att.explained != 0.8 {
		t.Errorf("explained = %g, want 0.8", att.explained)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rep := func(frame, spread float64) report {
		var r report
		for _, d := range workloadDefs {
			r.Results = append(r.Results, &result{Workload: d.name, Metrics: map[string]metric{
				"frame_ms_p50": {Value: frame, Unit: "ms", Spread: spread},
			}})
		}
		return r
	}
	bench := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "frame_ms_p50", "better": "lower", "bound": 0.1},
	}})
	base := write("a.json", rep(10, 0.02))
	for _, c := range []struct {
		name    string
		after   report
		verdict string
		fails   bool
	}{
		{"same", rep(10.5, 0.02), " ok ", false},
		{"slower", rep(12, 0.02), " regressed ", true},
		{"noisy", rep(12, 0.3), " unresolved ", false},
	} {
		var out bytes.Buffer
		err := compareReports(bench, base, write(c.name+".json", c.after), &out)
		if (err != nil) != c.fails || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: err=%v, output %q lacks %q", c.name, err, out.String(), c.verdict)
		}
	}
}
