package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestHighPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {19, 50}, {39, 50}, // too few for anything above the median
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {384, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := highPercentile(tc.n); got != tc.want {
			t.Errorf("highPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		name           string
		xs             []float64
		n              int
		median, q1, q3 float64
	}{
		{"single", []float64{7}, 1, 7, 7, 7},
		{"pair", []float64{4, 2}, 2, 3, 1.5, 4.5},
		{"nineteen", seq(19), 19, 10, 5, 15},
		{"forty", seq(40), 40, 20.5, 10.25, 30.75},
		{"two hundred", seq(200), 200, 100.5, 50.25, 150.75},
	} {
		got := summarize(tc.xs)
		if got.N != tc.n || !near(got.Median, tc.median) || !near(got.Q1, tc.q1) || !near(got.Q3, tc.q3) {
			t.Errorf("%s: summarize = %+v, want n=%d median=%v q1=%v q3=%v", tc.name, got, tc.n, tc.median, tc.q1, tc.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Errorf("summarize(nil) = %+v, want N=0 and NaN median", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the driver's definition of a metric's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{3, 3, 3, 3, 9}, 3, 6},
	} {
		q1, q3 := quartiles(sortedCopy(tc.xs))
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestPercentileAtLeast(t *testing.T) {
	if v, used := percentileAtLeast(seq(384), 95); used != 95 || !near(v, 364.85) {
		t.Errorf("384 samples: got p%v = %v, want p95 = 364.85", used, v)
	}
	// 144 samples cannot support p95 (7 beyond): the rank drops to p90.
	if v, used := percentileAtLeast(seq(144), 95); used != 90 || !near(v, 129.7) {
		t.Errorf("144 samples: got p%v = %v, want p90 = 129.7", used, v)
	}
	// Below 20 samples (and up to 39) only the median is supported.
	if v, used := percentileAtLeast(seq(19), 95); used != 50 || !near(v, 10) {
		t.Errorf("19 samples: got p%v = %v, want p50 = 10", used, v)
	}
	// Asking for the highest supported percentile of a large sample.
	if v, used := percentileAtLeast(seq(200), 99.9); used != 95 || !near(v, 190.05) {
		t.Errorf("200 samples: got p%v = %v, want p95 = 190.05", used, v)
	}
}

func TestCovered(t *testing.T) {
	// Two overlapping children and one outside the parent: the union inside
	// [0, 10] is [1, 6] plus [9, 10].
	iv := [][2]float64{{3, 6}, {1, 4}, {9, 12}}
	if got := covered(iv, 0, 10); !near(got, 6) {
		t.Errorf("covered = %v, want 6", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
