package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or -1 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileLadder lists, highest first, the percentiles a tail
// metric may report.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder, no
// higher than want, that leaves at least ten of n samples beyond it;
// 50 (the median) when none does.
func tailPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tail reports xs at tailPercentile(len(xs), want) by the nearest-rank
// rule, along with the percentile it used; the value is -1 when xs is
// empty.
func tail(xs []float64, want float64) (value, pct float64) {
	if len(xs) == 0 {
		return -1, want
	}
	pct = tailPercentile(len(xs), want)
	if pct == 50 {
		return median(xs), pct
	}
	return sortedCopy(xs)[rank(len(xs), pct)-1], pct
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
