package analyzers

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fmaPackages are the packages whose float arithmetic reaches world state
// or plan choice and must round identically on every GOARCH. amd64 never
// fuses a multiply-add; arm64 (and ppc64le, s390x, riscv64) may, unless the
// product is rounded explicitly with float64(a*b).
var fmaPackages = []string{
	"./internal/stats",
	"./internal/physics",
	"./internal/cluster",
	"./internal/engine",
	"./internal/views",
	"./internal/index",
	"./internal/plan",
	"./internal/vexpr",
	"./internal/combinator",
	"./internal/expr",
	"./internal/table",
	"./internal/value",
}

// fmaAllowed lists fused instructions that are accepted, keyed by
// "<path relative to the repo root>:<line>", each with the reason it cannot
// reach state. Empty: every fused site in fmaPackages was rounded.
var fmaAllowed = map[string]string{}

// fusedOp matches an arm64 fused multiply-add/subtract in the compiler's -S
// listing and captures the source position it was emitted for.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\s`)

// TestNoFusedMultiplyAdd cross-compiles fmaPackages for arm64 with -S and
// fails on any fused multiply-add not in fmaAllowed: a fused product skips
// one rounding, so an arm64 world would drift from an amd64 one.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, append([]string{"build", "-gcflags=-S"}, fmaPackages...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatal("no assembly listing in the build output; -S was not applied")
	}
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		rel, err := filepath.Rel(root, m[1])
		if err != nil {
			rel = m[1]
		}
		key := filepath.ToSlash(rel) + ":" + m[2]
		if _, ok := fmaAllowed[key]; !ok {
			t.Errorf("%s: %s fuses a multiply-add; round the product with float64(a*b)", key, m[3])
		}
	}
}
