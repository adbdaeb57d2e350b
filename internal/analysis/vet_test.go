package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
)

var update = flag.Bool("update", false, "rewrite vet golden files")

func compileSrc(t *testing.T, name, src string) *compile.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatalf("%s: sem: %v", name, err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return prog
}

func vetLines(t *testing.T, name, src string) string {
	t.Helper()
	var b strings.Builder
	for _, d := range analysis.Vet(compileSrc(t, name, src)) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func vetPerfLines(t *testing.T, name, src string) string {
	t.Helper()
	var b strings.Builder
	for _, d := range analysis.VetPerf(compileSrc(t, name, src)) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func vetViewLines(t *testing.T, name, src string) string {
	t.Helper()
	var b strings.Builder
	for _, d := range analysis.VetViews(compileSrc(t, name, src), src) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestVetCorpusGoldens pins every diagnostic's position, code and message
// on the testdata/vet corpus — one script per check, each triggering
// exactly one finding. Files named scalar_fallback* and join_residual*
// exercise the opt-in perf check (VetPerf) and files named view_* the
// //view directive check (VetViews) instead of the default set; both must
// vet clean under plain Vet.
func TestVetCorpusGoldens(t *testing.T) {
	files, err := filepath.Glob("../../testdata/vet/*.sgl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no vet corpus found: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".sgl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			switch {
			case strings.HasPrefix(name, "scalar_fallback"), strings.HasPrefix(name, "join_residual"):
				if out := vetLines(t, name, string(src)); out != "" {
					t.Errorf("%s: perf corpus file must be clean under plain Vet, got:\n%s", name, out)
				}
				got = vetPerfLines(t, name, string(src))
			case strings.HasPrefix(name, "view_"):
				if out := vetLines(t, name, string(src)); out != "" {
					t.Errorf("%s: view corpus file must be clean under plain Vet, got:\n%s", name, out)
				}
				got = vetViewLines(t, name, string(src))
			default:
				got = vetLines(t, name, string(src))
			}
			if n := strings.Count(got, "\n"); n != 1 {
				t.Errorf("%s: want exactly 1 diagnostic, got %d:\n%s", name, n, got)
			}
			golden := strings.TrimSuffix(f, ".sgl") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: diagnostics diverged from golden\n got:\n%s want:\n%s",
					name, got, want)
			}
		})
	}
}

// TestShippedScenariosVetClean demands zero diagnostics on every shipped
// scenario: the core scenario sources, the testdata scripts outside the
// vet corpus, and the SGL programs embedded in the examples.
func TestShippedScenariosVetClean(t *testing.T) {
	srcs := map[string]string{
		"fig2":          core.SrcFig2,
		"rts":           core.SrcRTS,
		"market":        core.SrcMarket,
		"market-unsafe": core.SrcMarketUnsafe,
		"vehicles":      core.SrcVehicles,
		"traffic-prox":  core.SrcTraffic,
		"flock":         core.SrcFlock,
		"swarm":         core.SrcSwarm,
		"guard":         core.SrcGuard,
		"arena":         core.SrcArena,
	}
	scripts, err := filepath.Glob("../../testdata/*.sgl")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range scripts {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["testdata/"+filepath.Base(f)] = string(b)
	}
	// SGL programs embedded as raw strings in example mains.
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	embedded := regexp.MustCompile("(?s)`([^`]*class [A-Z][^`]*)`")
	for _, f := range mains {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range embedded.FindAllStringSubmatch(string(b), -1) {
			key := "examples/" + filepath.Base(filepath.Dir(f))
			if i > 0 {
				key += string(rune('a' + i))
			}
			srcs[key] = m[1]
		}
	}
	for name, src := range srcs {
		if out := vetLines(t, name, src); out != "" {
			t.Errorf("%s: expected zero diagnostics, got:\n%s", name, out)
		}
	}
}

// TestAtomicScalarFallback pins the perf finding for atomic sites: the
// shipped market builds its intents from kernel lanes and gets no finding;
// a site kept on the scalar row loop gets one, naming the reason.
func TestAtomicScalarFallback(t *testing.T) {
	if out := vetPerfLines(t, "market", core.SrcMarket); out != "" {
		t.Errorf("market: want no scalar-fallback finding, got:\n%s", out)
	}
	const tmpl = `
class Trader {
  state:
    number gold = 0;
    number x = 0;
    set<number> tags;
    ref<Trader> seller = null;
  effects:
    number dgold : sum;
    set<number> dtags : union;
  update:
    gold = gold + dgold;
    tags = dtags;
  run {
    %s
    atomic (gold >= 0) {
      dgold <- %s;
      seller.dgold <- 1;
      %s
    }
  }
}
`
	for _, c := range []struct{ name, before, val, body, want string }{
		{"set effect", "dtags <= gold;", "0 - 1", "", "a set effect"},
		{"nested accum", `if (gold > 0) {
      accum number n with sum over Trader u from Trader {
        if (u.x >= x - 1 && u.x <= x + 1) {
          n <- 1;
        }
      } in {
        dgold <- n;
      }
    }`, "0 - 1", "", "a nested accum loop"},
		{"emission", "", "size(tags)", "", "an emission that does not compile (set values have no columnar lane)"},
		{"conditional", "", "0 - 1", "if (x > 0) { dgold <- 1; }", "a statement other than an emission inside the block"},
	} {
		var sites []string
		for _, l := range strings.Split(vetPerfLines(t, c.name, fmt.Sprintf(tmpl, c.before, c.val, c.body)), "\n") {
			if strings.Contains(l, "atomic block in phase 0 of Trader") {
				sites = append(sites, l)
			}
		}
		if len(sites) != 1 || !strings.HasSuffix(sites[0], ": "+c.want) {
			t.Errorf("%s: want one atomic-site finding naming %q, got %q", c.name, c.want, sites)
		}
	}
}
