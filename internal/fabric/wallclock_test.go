//go:build !goexperiment.synctest

package fabric

import (
	"testing"
	"time"
)

// onModel on the wall clock: the fabric never delivers early, so the model
// is a floor (to the rounding of a booking), and what a run takes beyond it
// is the host waking up, logged as the host tax and held to nothing. The
// equalities are bubble_test.go's. This file holds no upper limit, which is
// why, unlike hdfs's wallclock_test.go, it is built under -race too.
func onModel(t *testing.T, what string, model time.Duration, runs ...time.Duration) {
	t.Helper()
	for _, got := range runs {
		if got <= model-time.Microsecond {
			t.Errorf("%s took %v, under the model's %v: the fabric delivered early", what, got, model)
		}
		t.Logf("%s took %v on the wall, %v modelled: host tax x%.3f", what, got, model, float64(got)/float64(model))
	}
}

// inModel on the wall clock: the low end of the model's range is a floor,
// like onModel's model, and the high end is logged with the host tax.
func inModel(t *testing.T, what string, lo, hi, got time.Duration) {
	t.Helper()
	if got <= lo-time.Microsecond {
		t.Errorf("%s took %v, under the model's %v: the fabric delivered early", what, got, lo)
	}
	t.Logf("%s took %v on the wall, %v to %v modelled", what, got, lo, hi)
}

// timed runs op once and holds it to the model.
func timed(t *testing.T, what string, model time.Duration, op func()) {
	t.Helper()
	onModel(t, what, model, took(op))
}
