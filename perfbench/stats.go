package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must leave
// beyond it. With fewer, the percentile names a handful of outliers, so
// the rule lowers it to the highest percentile that keeps ten behind.
const minTail = 10

// tail returns the value at quantile want of sorted (nearest rank),
// lowered to the highest quantile with at least minTail samples beyond
// it. It also returns the quantile actually used. Empty input gives
// (0, NaN).
func tail(sorted []float64, want float64) (q, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, math.NaN()
	}
	idx := int(math.Ceil(want*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if limit := n - 1 - minTail; idx > limit {
		idx = max(limit, 0)
		want = float64(idx+1) / float64(n)
	}
	return want, sorted[idx]
}

// quantile is the nearest-rank quantile of sorted, without the tail rule;
// use it for medians and other central values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(idx, 0), n-1)]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the median of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
