package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs; 0
// when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// segments is the number of equal parts a timed window is cut into. The
// reported value of a timing is the median of the per-segment statistic, so
// one disturbed stretch of a run (a co-tenant burst, a GC cycle) moves at
// most one of the three inputs.
const segments = 3

// segmented applies stat to each of the window's equal segments and returns
// the median of the results and their spread, (max-min)/median. Windows too
// short to cut fall back to the whole sample with spread 0.
func segmented(xs []float64, stat func([]float64) float64) (value, spread float64) {
	if len(xs) < 2*segments {
		return stat(xs), 0
	}
	vals := make([]float64, segments)
	for i := range vals {
		vals[i] = stat(xs[i*len(xs)/segments : (i+1)*len(xs)/segments])
	}
	value = median(vals)
	if value > 0 {
		sort.Float64s(vals)
		spread = (vals[segments-1] - vals[0]) / value
	}
	return value, spread
}

// driftLimit is the stationarity guard: a workload whose last-quartile
// median differs from its first-quartile median by more than this share is
// not measuring a steady state.
const driftLimit = 0.25

// drift compares the first and last quartile of a timing series.
func drift(xs []float64) (first, last, gap float64) {
	q := len(xs) / 4
	if q == 0 {
		return 0, 0, 0
	}
	first, last = median(xs[:q]), median(xs[len(xs)-q:])
	if first > 0 {
		gap = math.Abs(last-first) / first
	}
	return first, last, gap
}
