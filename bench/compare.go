package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports judges every (end-to-end metric, workload) pair of two
// reports: regressed when the new value is worse than the old by more than
// the metric's bound, unresolved when either run's own segment spread is
// wider than the bound (the runs cannot tell a change of that size from
// noise), ok otherwise. It returns an error if any pair regressed.
func compareReports(benchPath, oldPath, newPath string, w io.Writer) error {
	var bench benchmarkFile
	var before, after report
	for path, v := range map[string]any{benchPath: &bench, oldPath: &before, newPath: &after} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	untraced := func(rep report) map[string]*result {
		out := map[string]*result{}
		for _, r := range rep.Results {
			if !r.Traced {
				out[r.Workload] = r
			}
		}
		return out
	}
	olds, news := untraced(before), untraced(after)
	regressed := 0
	for _, def := range workloadDefs {
		o, n := olds[def.name], news[def.name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-18s missing from a report\n", def.name)
			continue
		}
		fmt.Fprintf(w, "%-18s", def.name)
		for _, m := range bench.EndToEnd {
			ov, nv := o.Metrics[m.Name], n.Metrics[m.Name]
			worse := nv.Value/ov.Value - 1
			if m.Better == "higher" {
				worse = ov.Value/nv.Value - 1
			}
			verdict := "ok"
			switch {
			case max(ov.Spread, nv.Spread) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "  %s %s (%+.1f%%)", m.Name, verdict, 100*worse)
		}
		if n.Failed > o.Failed {
			fmt.Fprintf(w, "  failed regressed (%d -> %d)", o.Failed, n.Failed)
			regressed++
		}
		fmt.Fprintln(w)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
