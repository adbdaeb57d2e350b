// Command bench is the repository's benchmark: six seeded workloads built
// from the shipped scenarios, measured end to end with tracing off and layer
// by layer in a traced pass, each verified against the scalar/serial
// reference configuration. README.md defines every metric and workload.
//
// The driver's form runs one pass of one workload and ends with one JSON
// line:
//
//	bench -workload rts_joins -seed 3 -seconds 10 -trace 0
//
// Without -workload it runs both passes of all six, prints every metric and
// writes <out>/report.json; -compare a.json b.json judges two such reports
// against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// report is what a run of all workloads leaves behind for -compare.
type report struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Sizes      sizing            `json:"sizes"`
	Results    []*result         `json:"results"`
	Digests    map[string]string `json:"digests"` // the format of golden/digests.json
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newReport(o runOptions) *report {
	return &report{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(),
		Seed: o.seed, Seconds: o.seconds, Sizes: o.size,
		Digests: map[string]string{},
	}
}

func (rep *report) add(r *result) {
	rep.Results = append(rep.Results, r)
	rep.Digests[rep.Sizes.Name+"/"+r.Workload] = r.Digest
}

func (rep *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "report.json")
	return path, os.WriteFile(path, data, 0o644)
}

// runAll runs both passes of every workload. It reports whether every
// workload was correct and stationary.
func runAll(o runOptions) (*report, bool, error) {
	rep := newReport(o)
	ok := true
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			o.traced = traced
			r, err := runWorkload(def, o)
			if err != nil {
				return rep, false, err
			}
			r.print(o.log)
			rep.add(r)
			// The smoke sizing is too short to judge drift.
			drifted := !traced && r.Stationarity.Drifting && o.size.Name != smokeSize.Name
			if !r.correct() || drifted {
				ok = false
			}
		}
	}
	return rep, ok, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one pass of this workload and end with the driver's JSON line; empty runs both passes of all six")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of each timed window; populations never change with it")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs the traced pass")
		smoke    = flag.Bool("smoke", false, "tiny populations: checks the harness, measures nothing")
		compare  = flag.Bool("compare", false, "compare two reports (arguments: old.json new.json) against BENCHMARK.json")
		outDir   = flag.String("out", "bench/out", "directory for traces and report.json")
	)
	flag.Parse()
	o := runOptions{seed: *seed, size: fullSize, seconds: *seconds, traced: *trace != 0, outDir: *outDir, log: os.Stdout}
	if *smoke {
		o.size = smokeSize
	}
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareReports("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	case *compare:
		err = fmt.Errorf("-compare needs two report files")
	case *workload == "":
		err = runEverything(o)
	default:
		err = runOne(*workload, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runEverything(o runOptions) error {
	rep, ok, err := runAll(o)
	if err != nil {
		return err
	}
	path, err := rep.write(o.outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "report: %s\n", path)
	if !ok {
		return fmt.Errorf("a workload failed verification, lost operations or drifted; see the problems above")
	}
	return nil
}

// runOne is the driver's form: one pass of one workload, ending with one
// JSON line.
func runOne(workload string, o runOptions) error {
	def, found := findWorkload(workload)
	if !found {
		var names []string
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
	}
	r, err := runWorkload(def, o)
	if err != nil {
		return err
	}
	r.print(o.log)
	rep := newReport(o)
	rep.add(r)
	if _, err := rep.write(o.outDir); err != nil {
		return err
	}
	// The driver reads the last line of standard output: values and units
	// only, sample counts and spreads are in the report.
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for name, m := range r.Metrics {
		metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", workload, r.Failed, r.Attempted)
	}
	return nil
}
