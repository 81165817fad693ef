package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. An empty sample yields 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n); the epsilon keeps 99.9% of 1000 at 999
// although 99.9/100*1000 is a hair above it in floating point.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest candidate percentile that still
// has at least ten samples beyond it in a sample of n, or 0 when even the
// median does not (n < 20).
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// median returns the middle of a float sample (mean of the two middle
// values for an even count); it does not reorder its argument.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(vs []int64) (s int64) {
	for _, v := range vs {
		s += v
	}
	return s
}

func mean(vs []int64) float64 { return ratio(float64(sum(vs)), float64(len(vs))) }

// percentileUs is percentile for a sample in ns, in microseconds.
func percentileUs(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }

func sortInt64s(vs []int64) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// ratio is a/b with 0 for an empty denominator (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usOf converts nanoseconds to microseconds.
func usOf(ns float64) float64 { return ns / 1e3 }
