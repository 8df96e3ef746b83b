//go:build !race && !goexperiment.synctest

package fabric

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The exact wait on the host's timers. It holds an upper limit on a
// lateness, which the race detector and a fake clock would both void.
// internal/fabric/exactwake holds the same wait on a fake clock.

// lateness waits until n instants 0.3–4 ms ahead, one after another, and
// returns how late each wait returned, sorted.
func lateness(t *testing.T, n int, sleep func(context.Context, time.Time) error) []time.Duration {
	t.Helper()
	late := make([]time.Duration, n)
	for i := range late {
		at := time.Now().Add(300*time.Microsecond + time.Duration(i%38)*100*time.Microsecond)
		if err := sleep(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		late[i] = time.Since(at)
	}
	slices.Sort(late)
	return late
}

// TestSleepUntilExactWakesOnTime: 60 exact waits of 0.3–4 ms never return
// before their instant and return 250 µs late at the median at most. The
// plain timer, logged beside it, is about 0.6 ms late at the median on an idle
// process, since the runtime waits for timers in whole milliseconds, so the
// test fails if the exact wait no longer yields out the timer's slack.
func TestSleepUntilExactWakesOnTime(t *testing.T) {
	const waits = 60
	exact := lateness(t, waits, SleepUntilExact)
	plain := lateness(t, waits, SleepUntil)
	if exact[0] < 0 {
		t.Errorf("an exact wait returned %v before its instant", -exact[0])
	}
	if p50 := exact[waits/2]; p50 > 250*time.Microsecond {
		t.Errorf("exact waits returned %v late at the median, want at most 250µs", p50)
	}
	t.Logf("late by p50 %v, p90 %v exact; p50 %v, p90 %v plain",
		exact[waits/2], exact[waits*9/10], plain[waits/2], plain[waits*9/10])
}

// TestSleepUntilExactCancel: a canceled exact wait returns the context's
// error at once, whether it is on its timer or yielding out the slack, and no
// later wait returns before its instant.
func TestSleepUntilExactCancel(t *testing.T) {
	defer timerSlack.Store(timerSlack.Load())
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Millisecond, cancel)
		start := time.Now()
		err := SleepUntilExact(ctx, start.Add(time.Second))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled exact wait returned %v, want %v", err, context.Canceled)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Fatalf("canceled exact wait returned after %v", took)
		}
		// With the slack at its bound the whole wait yields, and a cancel
		// lands while it does. The canceler yields too, on the one P, so the
		// two take turns: a timer, or a goroutine on another P, may wait on
		// that P's poller tick or its thread, which the yields do not hasten.
		timerSlack.Store(int64(maxTimerSlack))
		procs := runtime.GOMAXPROCS(1)
		yielding, stop := context.WithCancel(context.Background())
		start = time.Now()
		go func() {
			for time.Since(start) < 100*time.Microsecond {
				runtime.Gosched()
			}
			stop()
		}()
		err = SleepUntilExact(yielding, start.Add(maxTimerSlack))
		took := time.Since(start)
		runtime.GOMAXPROCS(procs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("exact wait canceled while it yields returned %v after %v, want %v",
				err, took, context.Canceled)
		}
		// A wait canceled before it starts is shorter still; the next one
		// still ends no earlier than its instant.
		short, cancel := context.WithCancel(context.Background())
		cancel()
		_ = SleepUntilExact(short, time.Now().Add(500*time.Microsecond))
		at := time.Now().Add(2 * time.Millisecond)
		if err := SleepUntilExact(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		if early := at.Sub(time.Now()); early > 0 {
			t.Fatalf("an exact wait after a canceled one returned %v early", early)
		}
	}
}
