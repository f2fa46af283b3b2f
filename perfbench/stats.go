package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one outlier
// away from a different value.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median returns the median of xs, leaving xs unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the tail percentile reported for n samples: 0.99 when
// at least minBeyond samples lie beyond it, otherwise the highest
// percentile that still leaves minBeyond samples beyond (the
// (n−minBeyond)-th order statistic), and the median for tiny samples.
func tailQuantile(n int) float64 {
	if float64(n)*(1-0.99) >= minBeyond {
		return 0.99
	}
	if n <= 2*minBeyond {
		return 0.5
	}
	return float64(n-minBeyond) / float64(n)
}

// tail returns the tail value of xs under tailQuantile and the
// percentile used, leaving xs unchanged.
func tail(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return quantile(s, q), q
}

// geomean is the geometric mean of positive xs; NaN when xs is empty or
// holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
