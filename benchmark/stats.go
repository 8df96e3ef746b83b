package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile
// for it to be trusted (choosing-metrics guide, section 1).
const tailSamples = 10

// summary describes one sample set: the median with its quartiles.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quartiles returns the first and third quartile of an ascending slice the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), because that is how the driver computes a metric's spread. One
// sample is its own quartiles; none gives NaN.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median,
// the driver's measure of how steady a metric is. 0 for fewer than two
// samples or a zero median.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	m := quantile(s, 0.5)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return math.Abs((q3 - q1) / m)
}

// sortedCopy returns the samples in ascending order, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of the samples; NaN when there are none.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// highPercentile picks the highest percentile, from the ladder
// 99.9/99/95/90/75, that leaves at least tailSamples samples beyond it.
// Below 40 samples not even p75 has ten beyond it, so the function falls
// back to the median alone.
func highPercentile(n int) float64 {
	for _, rung := range []struct {
		pct    float64
		beyond int // samples beyond the percentile, per thousand
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}} {
		if n*rung.beyond >= tailSamples*1000 {
			return rung.pct
		}
	}
	return 50
}

// summarize computes the summary of the samples.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: q1, Q3: q3}
}

// percentileAtLeast returns the p-th percentile when the sample supports
// it (tailSamples beyond) and otherwise the highest percentile that is
// supported, with the rank actually used.
func percentileAtLeast(xs []float64, p float64) (value, used float64) {
	s := sortedCopy(xs)
	used = math.Min(p, highPercentile(len(s)))
	return quantile(s, used/100), used
}
