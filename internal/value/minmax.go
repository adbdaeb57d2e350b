package value

import "math"

// Result bits math.Max and math.Min return when an operand is NaN: +Inf
// (resp. -Inf) if the other operand is, else the canonical NaN math.NaN().
const (
	posInfBits = 0x7FF0000000000000
	negInfBits = 0xFFF0000000000000
	nanBits    = 0x7FF8000000000001
)

// Max returns the larger of x and y with exactly math.Max's result bits:
// Max(x, +Inf) = +Inf, Max(x, NaN) = NaN otherwise, Max(+0, -0) = +0.
// It is small enough to inline, so kernel loops over it make no call
// (math.Max is an out-of-line assembly routine on amd64). Equal operands
// differ at most in the sign of a zero, which AND-ing the bits settles.
func Max(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x > math.MaxFloat64 || y > math.MaxFloat64:
		return math.Float64frombits(posInfBits)
	}
	return math.Float64frombits(nanBits)
}

// Min is Max's mirror image, bit-exact with math.Min: Min(x, -Inf) = -Inf,
// Min(x, NaN) = NaN otherwise, Min(+0, -0) = -0.
func Min(x, y float64) float64 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x < -math.MaxFloat64 || y < -math.MaxFloat64:
		return math.Float64frombits(negInfBits)
	}
	return math.Float64frombits(nanBits)
}
