package main

import (
	"io"
	"testing"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int64
	}{
		{100, 50, 50}, {100, 99, 99}, {100, 100, 100}, {100, 0.5, 1},
		{5, 50, 3}, {5, 90, 5}, {4, 50, 2}, {1, 99, 1}, {1000, 99.9, 999},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %d, want 0", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestEndToEndReportsSampleCounts(t *testing.T) {
	m := rounds{lat: seq(2000), n: 3, ops: 600, busy: 0.5}
	out := &outcome{}
	m.endToEnd(out, params{report: io.Discard}, 1.5, 7, 800, 9)
	want := map[string]struct {
		value   float64
		samples int
	}{
		"setup_s": {1.5, setupReps}, "ops_per_s": {1200, 3}, "read_p50_us": {1, 2000},
		"read_p99_us": {1.98, 2000}, "pages_per_read": {7, 800}, "space_ratio": {9, 1},
	}
	for _, got := range out.metrics {
		w, ok := want[got.name]
		if !ok {
			continue
		}
		if got.value != w.value || got.samples != w.samples {
			t.Errorf("%s = %g (n=%d), want %g (n=%d)", got.name, got.value, got.samples, w.value, w.samples)
		}
		delete(want, got.name)
	}
	if len(want) > 0 {
		t.Errorf("metrics not reported: %v", want)
	}
}
