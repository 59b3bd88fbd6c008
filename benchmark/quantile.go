package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank p-quantile of sorted: the smallest
// value with at least p of the sample at or below it. Zero if empty.
func quantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the middle of v (the mean of the middle two for an even
// count) without reordering it. Zero if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// the spread printed here is the one the benchmark's driver applies.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
