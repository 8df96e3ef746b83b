package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("Mean(nil) error = %v", err)
	}
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || got != 2.5 {
		t.Errorf("Mean = (%v, %v), want (2.5, nil)", got, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%g): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: error = %v", err)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("p < 0: expected error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("p > 100: expected error")
	}
	if got, err := Percentile([]float64{7}, 50); err != nil || got != 7 {
		t.Errorf("single sample = (%v, %v)", got, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestBoxPlot(t *testing.T) {
	if _, err := NewBoxPlot(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: error = %v", err)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	bp, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatalf("NewBoxPlot: %v", err)
	}
	if bp.Median != 5 {
		t.Errorf("median = %g, want 5", bp.Median)
	}
	if len(bp.Outliers) != 1 || bp.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", bp.Outliers)
	}
	if bp.Min != 1 || bp.Max != 8 {
		t.Errorf("whiskers = [%g, %g], want [1, 8]", bp.Min, bp.Max)
	}
	if bp.String() == "" {
		t.Error("String() empty")
	}
	// Degenerate: constant sample, no outliers possible.
	bp2, err := NewBoxPlot([]float64{5, 5, 5})
	if err != nil || bp2.Min != 5 || bp2.Max != 5 || len(bp2.Outliers) != 0 {
		t.Errorf("constant sample boxplot = %+v (%v)", bp2, err)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = Exponential(rng, 2.0)
	}
	if m, err := Mean(xs); err != nil || math.Abs(m-2.0) > 0.05 {
		t.Errorf("exponential mean = (%.4f, %v), want ~2.0", m, err)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 100001)
	for i := range xs {
		xs[i] = LogNormal(rng, 1.0, 0.5)
	}
	med, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-math.E) > 0.1 {
		t.Errorf("log-normal median = %.4f, want ~e", med)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "resp"
	for i := 0; i < 6; i++ {
		s.Add(float64(i), float64(i*10))
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	vs := s.Values()
	if vs[3] != 30 {
		t.Fatalf("Values[3] = %g", vs[3])
	}
	m, err := s.WindowMean(2, 5)
	if err != nil || m != 30 {
		t.Fatalf("WindowMean = (%g, %v), want (30, nil)", m, err)
	}
	if _, err := s.WindowMean(100, 200); !errors.Is(err, ErrNoData) {
		t.Errorf("empty window error = %v", err)
	}
}

func TestSeriesSmooth(t *testing.T) {
	var s Series
	for i := 0; i < 7; i++ {
		s.Add(float64(i), float64(i))
	}
	sm, err := s.Smooth(3)
	if err != nil {
		t.Fatalf("Smooth: %v", err)
	}
	if sm.Len() != 3 {
		t.Fatalf("smoothed Len = %d, want 3", sm.Len())
	}
	if sm.Points[0].V != 1 { // mean of 0,1,2
		t.Errorf("first smoothed value = %g, want 1", sm.Points[0].V)
	}
	if sm.Points[2].V != 6 { // lone tail point
		t.Errorf("tail smoothed value = %g, want 6", sm.Points[2].V)
	}
	if _, err := s.Smooth(0); err == nil {
		t.Error("Smooth(0): expected error")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// Single element: every percentile is that element.
	for _, p := range []float64{0, 25, 50, 100} {
		if got, err := Percentile([]float64{42}, p); err != nil || got != 42 {
			t.Errorf("single-element p=%g = (%g, %v), want 42", p, got, err)
		}
	}
	// Two elements: endpoints at p=0/100, linear interpolation between.
	two := []float64{10, 20}
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {100, 20}, {50, 15}, {25, 12.5}, {75, 17.5},
	}
	for _, tt := range tests {
		got, err := Percentile(two, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%g): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("two-element p=%g = %g, want %g", tt.p, got, tt.want)
		}
	}
	// p=0 and p=100 pick min and max regardless of input order.
	xs := []float64{5, -3, 9, 0, 7}
	if got, _ := Percentile(xs, 0); got != -3 {
		t.Errorf("p=0 = %g, want -3", got)
	}
	if got, _ := Percentile(xs, 100); got != 9 {
		t.Errorf("p=100 = %g, want 9", got)
	}
	// All-equal samples: every percentile is the common value.
	if got, _ := Percentile([]float64{4, 4, 4, 4}, 73); got != 4 {
		t.Errorf("all-equal p=73 = %g, want 4", got)
	}
	// Empty input at the boundaries still errors.
	for _, p := range []float64{0, 100} {
		if _, err := Percentile(nil, p); !errors.Is(err, ErrNoData) {
			t.Errorf("empty p=%g: error = %v", p, err)
		}
	}
}
