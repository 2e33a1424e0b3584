package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{1000, 99.9, 99}, // 99.9 leaves 1 beyond, 99 leaves 10
		{1000, 95, 95},   // never above the percentile asked for
		{200, 95, 95},    // exactly 10 beyond
		{199, 95, 90},    // 9 beyond the 95th, 19 beyond the 90th
		{40, 95, 75},     // 10 beyond the 75th
		{20, 95, 50},     // 10 beyond the median
		{5, 95, 50},      // too few for any tail: the median
	}
	for _, c := range cases {
		if p := tailPercentile(c.n, c.want); p != c.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, p, c.got)
		}
	}
}

func TestTailValues(t *testing.T) {
	if v, p := tail(seq(200), 95); v != 190 || p != 95 {
		t.Errorf("tail(1..200, 95) = %v at p%v, want 190 at p95", v, p)
	}
	if v, p := tail(seq(199), 95); v != 180 || p != 90 {
		t.Errorf("tail(1..199, 95) = %v at p%v, want 180 at p90", v, p)
	}
	if v, p := tail(seq(5), 95); v != 3 || p != 50 {
		t.Errorf("tail(1..5, 95) = %v at p%v, want the median 3", v, p)
	}
	if v, _ := tail(nil, 95); v != -1 {
		t.Errorf("tail(nil) = %v, want -1", v)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, -1},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
