package value

import (
	"math"
	"math/rand"
	"testing"
)

// TestMinMaxBitExact pins Min and Max to math.Min and math.Max bit for bit,
// in both argument orders, over every special class and random bit
// patterns. Both helpers must also stay inlinable — kernel loops call them
// per lane — which `go build -gcflags=-m ./internal/value` confirms with
// "can inline Max" / "can inline Min"; BenchmarkVexprClamp
// (internal/vexpr) shows a non-inlinable edit as a slowdown.
func TestMinMaxBitExact(t *testing.T) {
	bits := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FFC0000DEADBEEF, 0xFFFFFFFFFFFFFFFF, // quiet NaNs
		0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000, 0x7FF7FFFFFFFFFFFF, // signalling NaNs
		1, 1<<63 | 1, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, // ±subnormals
		0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // ±MaxFloat64
		0x3FF0000000000000, 0xBFF0000000000000, // ±1
	}
	nSpecial := len(bits)
	rng := rand.New(rand.NewSource(29))
	for len(bits) < 2100 {
		bits = append(bits, rng.Uint64())
	}
	check := func(x, y float64) {
		t.Helper()
		if got, want := math.Float64bits(Max(x, y)), math.Float64bits(math.Max(x, y)); got != want {
			t.Fatalf("Max(%#x, %#x) = %#x, math.Max = %#x", math.Float64bits(x), math.Float64bits(y), got, want)
		}
		if got, want := math.Float64bits(Min(x, y)), math.Float64bits(math.Min(x, y)); got != want {
			t.Fatalf("Min(%#x, %#x) = %#x, math.Min = %#x", math.Float64bits(x), math.Float64bits(y), got, want)
		}
	}
	for _, a := range bits[:nSpecial] {
		for _, b := range bits {
			x, y := math.Float64frombits(a), math.Float64frombits(b)
			check(x, y)
			check(y, x)
		}
	}
	for i := nSpecial; i+1 < len(bits); i++ {
		x, y := math.Float64frombits(bits[i]), math.Float64frombits(bits[i+1])
		check(x, y)
		check(y, x)
		check(x, x)
	}
}
