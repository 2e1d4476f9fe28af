package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks, the rule numpy
// and R (type 7) use. An empty slice yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// p10 is the harness's wall-clock estimator: the 10th percentile of the
// samples. On a shared machine interference only ever adds time, so a
// low quantile sits on the undisturbed path while the mean, median and
// upper quantiles carry the neighbour's load (README, sizing table).
func p10(xs []float64) float64 { return quantile(sortedCopy(xs), 0.10) }

// ratio is a/b, or 0 when b is 0: counter-derived metrics of a workload
// that never touches a layer read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDelta is (b-a)/a, the signed share by which b differs from a.
func relDelta(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
