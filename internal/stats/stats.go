// Package stats provides the statistical helpers shared by the experiment
// harnesses: random-variate generation (exponential inter-arrival times for
// Poisson processes, log-normal job sizes), mean and percentiles, the
// five-number boxplot summaries the paper's Figure 13 reports, and simple
// time-series accumulation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrNoData is returned when a statistic is requested over an empty sample.
var ErrNoData = errors.New("stats: no data")

// Exponential draws an exponentially distributed variate with the given
// mean. Inter-arrival times of a Poisson process with rate lambda are
// exponential with mean 1/lambda.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// LogNormal draws a log-normally distributed variate where the underlying
// normal has mean mu and standard deviation sigma.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g out of range", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// BoxPlot is the five-number summary plus outliers, matching the boxplots of
// the paper's Figure 13 (minimum, lower quartile, median, upper quartile,
// maximum, and any outliers beyond 1.5 IQR whiskers).
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	Outliers                 []float64
}

// NewBoxPlot computes the summary of a sample.
func NewBoxPlot(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrNoData
	}
	var bp BoxPlot
	var err error
	if bp.Q1, err = Percentile(xs, 25); err != nil {
		return BoxPlot{}, err
	}
	if bp.Median, err = Percentile(xs, 50); err != nil {
		return BoxPlot{}, err
	}
	if bp.Q3, err = Percentile(xs, 75); err != nil {
		return BoxPlot{}, err
	}
	iqr := bp.Q3 - bp.Q1
	loFence, hiFence := bp.Q1-1.5*iqr, bp.Q3+1.5*iqr
	bp.Min, bp.Max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			continue
		}
		bp.Min = math.Min(bp.Min, x)
		bp.Max = math.Max(bp.Max, x)
	}
	// All points outliers (degenerate): fall back to raw extremes.
	if math.IsInf(bp.Min, 1) {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		bp.Min, bp.Max = sorted[0], sorted[len(sorted)-1]
	}
	return bp, nil
}

// String renders the summary compactly.
func (b BoxPlot) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f outliers=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, len(b.Outliers))
}

// Point is one (time, value) sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series used to record write response times
// and cumulative encoded-stripe counts in the experiments.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values extracts the sample values in order.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vs[i] = p.V
	}
	return vs
}

// WindowMean averages the values with T in [t0, t1).
func (s *Series) WindowMean(t0, t1 float64) (float64, error) {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T >= t0 && p.T < t1 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0, ErrNoData
	}
	return sum / float64(n), nil
}

// Smooth returns a copy of the series where each point is the mean of
// groups of the given size, the paper's Figure 9 presentation ("each data
// point represents the averaged write response time of three consecutive
// write requests").
func (s *Series) Smooth(group int) (*Series, error) {
	if group <= 0 {
		return nil, fmt.Errorf("stats: smooth group %d", group)
	}
	out := &Series{Name: s.Name}
	for i := 0; i < len(s.Points); i += group {
		end := i + group
		if end > len(s.Points) {
			end = len(s.Points)
		}
		var st, sv float64
		for _, p := range s.Points[i:end] {
			st += p.T
			sv += p.V
		}
		n := float64(end - i)
		out.Add(st/n, sv/n)
	}
	return out, nil
}
