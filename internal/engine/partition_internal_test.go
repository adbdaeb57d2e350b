package engine

// White-box test for the partitioned prepare path: the zero-allocation guard
// on the steady-state ownership rescan and load fold.

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/plan"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
	"repro/internal/value"
)

const srcClusterJoin = `
class P {
  state:
    number x = 0;
    number y = 0;
    number v = 0;
    number near = 0;
  effects:
    number nb : sum;
  update:
    x = x + v;
    near = nb;
  run {
    accum number cnt with sum over P u from P {
      if (u.x >= x - 9 && u.x <= x + 9 && u.y >= y - 9 && u.y <= y + 9) {
        cnt <- 1;
      }
    } in {
      nb <- cnt;
    }
  }
}
`

func internalWorld(t *testing.T, src string, opts Options) *World {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.CompileChecked(info)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSteadyStateEpochReuseAllocs is the frozen-layout allocation guard:
// once the layout is measured, the per-tick ownership rescan with its
// migration/clamp tallies and the load fold must allocate nothing.
// (Assignment slabs, span arrays and load tallies are retained across
// ticks.)
func TestSteadyStateEpochReuseAllocs(t *testing.T) {
	w := internalWorld(t, srcClusterJoin, Options{
		Partitions: 4, Partition: plan.PartitionStripes,
	})
	for i := 0; i < 400; i++ {
		if _, err := w.Spawn("P", map[string]value.Value{
			"x": value.Num(float64(i%20) * 9), "y": value.Num(float64(i/20) * 8),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Static population (v = 0 everywhere): after warm-up every slab has
	// its steady-state capacity.
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		w.assignPartitions(true)
		w.foldPartitionLoads()
	}); allocs > 0 {
		t.Fatalf("steady-state ownership rescan allocated %.1f objects per run", allocs)
	}
}
