//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package fabric

import (
	"os"
	"testing"
	"testing/synctest"
	"time"
)

// TestMain runs the package's whole suite, unedited, inside one synctest
// bubble (GOEXPERIMENT=synctest go test ./internal/fabric): time.Now, timers
// and SleepUntil are on a fake clock that moves only when every goroutine is
// durably blocked, so a shaped duration is the design's and repeats to the
// nanosecond. DESIGN.md, "Time in tests", has what the tag does and its
// limits (synctest.Run is go1.24/1.25's API; never pass -bench with the tag).
func TestMain(m *testing.M) {
	var code int
	synctest.Run(func() { code = m.Run() })
	os.Exit(code)
}

// onModel holds the durations of one operation, run once or more, to its
// closed form. On the fake clock each equals the model to the rounding of a
// booking (a chunk's link time is truncated to the nanosecond) and every run
// equals the first exactly.
func onModel(t *testing.T, what string, model time.Duration, runs ...time.Duration) {
	t.Helper()
	for i, got := range runs {
		if d := got - model; d.Abs() >= time.Microsecond {
			t.Errorf("%s took %v, want the model's %v (off by %v)", what, got, model, d)
		}
		if got != runs[0] {
			t.Errorf("%s took %v on run %d and %v on run 0: virtual time did not repeat", what, got, i, runs[0])
		}
	}
}

// inModel holds a duration the model bounds but does not fix, as where two
// streams book one link at the same instant in an order the scheduler picks,
// to [lo, hi]: on the fake clock both ends hold.
func inModel(t *testing.T, what string, lo, hi, got time.Duration) {
	t.Helper()
	if got <= lo-time.Microsecond || got >= hi+time.Microsecond {
		t.Errorf("%s took %v, want the model's %v to %v", what, got, lo, hi)
	}
}

// timed runs op twice and holds both runs to the model.
func timed(t *testing.T, what string, model time.Duration, op func()) {
	t.Helper()
	onModel(t, what, model, took(op), took(op))
}
