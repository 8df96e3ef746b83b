//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package hdfs

import (
	"os"
	"testing"
	"testing/synctest"
	"time"
)

// TestMain runs the package's whole suite, unedited, inside one synctest
// bubble (GOEXPERIMENT=synctest go test ./internal/hdfs): time.Now, timers
// and fabric.SleepUntil are on a fake clock that moves only when every
// goroutine is durably blocked, so an operation takes what the design charges
// it and nothing for the host, and a goroutine left behind keeps the bubble
// from returning. DESIGN.md, "Time in tests", has the limits (synctest.Run is
// go1.24/1.25's API; never pass -bench with the tag).
func TestMain(m *testing.M) {
	var code int
	synctest.Run(func() { code = m.Run() })
	os.Exit(code)
}

// heldTo on the fake clock: every one of ops runs of op takes its closed
// form, to the rounding of a booking (the fabric truncates a slice's link
// time to the nanosecond: 8 ns in all over the 208 bookings of a degraded
// read), and the same time.Duration as the first. The limit is the wall
// clock's.
func heldTo(t *testing.T, what string, ops int, model, _ time.Duration, op func()) {
	t.Helper()
	first := took(op)
	for run := 1; run < ops; run++ {
		if got := took(op); got != first {
			t.Errorf("%s took %v on run %d and %v on run 0: virtual time did not repeat", what, got, run, first)
		}
	}
	if d := first - model; d.Abs() >= time.Microsecond {
		t.Errorf("%s took %v, want the model's %v (off by %v)", what, first, model, d)
	}
	t.Logf("%s took %v on each of %d runs, model %v", what, first, ops, model)
}

// TestLifecycleRepeats runs the benchmark's lifecycle twice in one process:
// the same bytes (each run reads every block back against its seeded
// payload) and, for every phase one client drives alone, the same virtual
// duration. Recovery rebuilds eight members at once and the encode runs four
// map tasks at once: streams that book a link at the same virtual instant are
// ordered by the Go scheduler, so those two phases are held only to their link
// bound and logged run beside run with the difference. Every plan, task
// preference and repair target is a function of (seed, what it is for), so
// the layouts repeat; over 360 runs the encode took 71.289 ms on 353 and
// 69.336 ms on 7, recovery 86.43-89.36 ms in steps of one 0.98 ms slice.
// That difference is what is left of ROADMAP item 1(b); the phases join the
// loop when it is zero.
func TestLifecycleRepeats(t *testing.T) {
	a, b := lifecycleOnBench(t), lifecycleOnBench(t)
	for _, phase := range []struct {
		what string
		a, b time.Duration
	}{{"4k writes", a.write, b.write}, {"k reads", a.read, b.read}, {"the degraded read", a.degraded, b.degraded}} {
		if phase.a != phase.b {
			t.Errorf("%s took %v, then %v: virtual time did not repeat", phase.what, phase.a, phase.b)
		}
		t.Logf("%s: %v", phase.what, phase.a)
	}
	t.Logf("encode: %v, then %v (difference %v), link bound %v", a.encode, b.encode, (a.encode - b.encode).Abs(), a.encodeBound)
	t.Logf("recovery: %v, then %v (difference %v), link bound %v", a.recover, b.recover, (a.recover - b.recover).Abs(), a.recoverBound)
}
