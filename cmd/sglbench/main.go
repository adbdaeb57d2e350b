// Command sglbench regenerates every experiment table in EXPERIMENTS.md
// (the reproduction of the paper's quantitative claims; see DESIGN.md §5
// for the experiment index).
//
// Usage:
//
//	sglbench [-quick] [-md] [-json] [-only E1,E7] [-cpuprofile prof.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "smaller populations and fewer ticks")
	md := flag.Bool("md", false, "emit markdown tables")
	jsonOut := flag.Bool("json", false, "emit one JSON object per table (machine-readable BENCH capture)")
	only := flag.String("only", "", "comma-separated experiment ids (default all)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// The baseline and nested-loop arms are O(n²); population sizes keep
	// the full run under a few minutes while preserving the scaling shape.
	sizes := []int{1000, 2000, 5000}
	e1Ticks, e2Ticks := 3, 3
	e7N, e7Block, e7Blocks := 2000, 10, 6
	e9N := 20000
	e10 := []int{10000, 30000, 100000}
	e11V, e11Ticks := 50000, 3
	e12V := 50000
	e13Sizes := []int{10000, 50000, 100000, 200000}
	e14N, e14Workers := 100000, []int{1, 2, 4, 8}
	e15Sizes := map[string][]int{
		"fig2":  {5000, 20000},
		"rts":   {5000, 20000},
		"flock": {5000, 20000},
	}
	e15Ticks := 5
	e16V, e16K, e16Ticks := 50000, []int{1, 2, 4}, 10
	e19Worlds, e19Objects, e19Rounds := 2000, 500, 20
	e20Pairs, e20Ticks := 10000, 24
	e21Objects, e21Subs, e21Ticks := 20000, []int{10000, 30000, 100000}, 5
	if *quick {
		sizes = []int{500, 1000, 2000}
		e1Ticks, e2Ticks = 3, 3
		e7N, e7Block, e7Blocks = 1000, 5, 4
		e9N = 5000
		e10 = []int{5000, 20000}
		e11V, e11Ticks = 20000, 2
		e12V = 20000
		e13Sizes = []int{5000, 20000}
		e14N, e14Workers = 20000, []int{1, 2, 4}
		e15Sizes = map[string][]int{"fig2": {2000}, "rts": {2000}, "flock": {2000}}
		e15Ticks = 2
		e16V, e16K, e16Ticks = 10000, []int{1, 2, 4}, 2
		e19Worlds, e19Objects, e19Rounds = 200, 200, 10
		e20Pairs, e20Ticks = 2000, 9
		e21Objects, e21Subs, e21Ticks = 4000, []int{2000, 10000}, 3
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	start := time.Now()
	emit := func(t experiments.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.ID, err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			fmt.Println(t.JSON())
		case *md:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.Format())
		}
	}

	if sel("E1") {
		emit(experiments.E1(sizes, e1Ticks))
	}
	if sel("E2") {
		emit(experiments.E2(sizes, e2Ticks))
	}
	if sel("E3") {
		emit(experiments.E3([]int{100, 400, 1000}, 5))
	}
	if sel("E4") {
		emit(experiments.E4([]int{1, 2, 4, 8, 16}))
	}
	if sel("E5") {
		emit(experiments.E5(10000, 9))
	}
	if sel("E6") {
		emit(experiments.E6(20000, 10))
	}
	if sel("E7") {
		emit(experiments.E7(e7N, e7Block, e7Blocks))
	}
	if sel("E8") {
		emit(experiments.E8(10000, 10))
	}
	if sel("E9") {
		emit(experiments.E9(e9N, []int{1, 2, 4, 8}, 5))
	}
	if sel("E10") {
		emit(experiments.E10(e10), nil)
	}
	if sel("E11") {
		emit(experiments.E11(e11V, []int{2, 4, 8, 16}, e11Ticks))
	}
	if sel("E12") {
		emit(experiments.E12(e12V, []int{1, 2, 4, 8, 16}))
	}
	if sel("E13") {
		emit(experiments.E13(e13Sizes, 3))
	}
	if sel("E14") {
		emit(experiments.E14(e14N, e14Workers, 3))
	}
	if sel("E15") {
		emit(experiments.E15(e15Sizes, e15Ticks))
	}
	if sel("E16") {
		emit(experiments.E16(e16V, e16K, e16Ticks))
	}
	if sel("E19") {
		emit(experiments.E19(e19Worlds, e19Objects, e19Rounds))
	}
	if sel("E20") {
		emit(experiments.E20(e20Pairs, e20Ticks))
	}
	if sel("E21") {
		emit(experiments.E21(e21Objects, e21Subs, e21Ticks))
	}
	fmt.Fprintf(os.Stderr, "total %s\n", experiments.ElapsedString(time.Since(start)))
}
