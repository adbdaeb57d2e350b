package main

// The `sglc vet` subcommand: author-facing diagnostics from the unified
// static-analysis layer (internal/analysis). Each finding is anchored to a
// source position and states the physical-planning consequence of the
// construct — dead handlers, provably dead branches, unsatisfiable or
// trivial atomic constraints, half-open join ranges that force full ghost
// replication, cross-object emissions that pin a class scalar, and effect
// attributes whose folded value nothing reads.
//
// With -perf, the opt-in scalar-fallback check also runs: it reports every
// point where execution silently leaves the fused kernel path (update
// rules and phase expressions the kernel compiler bails on, residual join
// conjuncts with no mask-kernel form, string-keyed ordered folds) along
// with the reason, and join-residual names each join conjunct the index
// probe cannot test. These are trade-offs, not mistakes, so they are not
// part of the default check set.
//
// Exit status is 0 when every file is clean, 1 when any file fails to
// compile or produces diagnostics, 2 on usage errors.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
)

type vetFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Code  string `json:"code"`
	Class string `json:"class"`
	Msg   string `json:"msg"`
}

func runVet(args []string) int {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	perf := fs.Bool("perf", false, "also report scalar-fallback performance diagnostics")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sglc vet [-json] [-perf] file.sgl...\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	findings := []vetFinding{}
	failed := false
	for _, file := range fs.Args() {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			continue
		}
		p, err := parser.Parse(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", file, err)
			failed = true
			continue
		}
		info, err := sem.Analyze(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", file, err)
			failed = true
			continue
		}
		prog, err := compile.CompileChecked(info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", file, err)
			failed = true
			continue
		}
		r := analysis.Analyze(prog)
		diags := analysis.VetResult(r)
		diags = append(diags, analysis.VetViews(prog, string(data))...)
		if *perf {
			diags = append(diags, analysis.VetPerfResult(r)...)
		}
		for _, d := range diags {
			findings = append(findings, vetFinding{
				File: file, Line: d.Pos.Line, Col: d.Pos.Col,
				Code: d.Code, Class: d.Class, Msg: d.Msg,
			})
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Code, f.Msg)
		}
	}
	if failed || len(findings) > 0 {
		return 1
	}
	return 0
}
