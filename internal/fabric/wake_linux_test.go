//go:build !race && !goexperiment.synctest

package fabric

import (
	"context"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// The exact wait on the host's timers. It holds an upper limit on a
// lateness, which the race detector and a fake clock would both void.

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
// test fails if the timerfd no longer wakes the poller.
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
// error at once, and the timerfd it leaves to the free list, armed for its
// instant when it was canceled, ends no later wait before that wait's own.
func TestSleepUntilExactCancel(t *testing.T) {
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
		// The recycled fd was armed for a second out; the next wait is
		// shorter, and one armed just before it, canceled at once, is
		// shorter still.
		short, cancel := context.WithCancel(context.Background())
		cancel()
		_ = SleepUntilExact(short, time.Now().Add(500*time.Microsecond))
		at := time.Now().Add(2 * time.Millisecond)
		if err := SleepUntilExact(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		if early := at.Sub(time.Now()); early > 0 {
			t.Fatalf("a wait on a recycled timerfd returned %v early", early)
		}
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestSleepUntilExactBoundsFDs: 1,000 concurrent exact waits, half of them
// canceled midway, each end as their context or instant says and leave at
// most maxWakeFDs more file descriptors open than there were before them.
func TestSleepUntilExactBoundsFDs(t *testing.T) {
	before := openFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 1000)
	ats := make([]time.Time, len(errs))
	ends := make([]time.Time, len(errs))
	for i := range errs {
		wctx := context.Background()
		if i%2 == 1 {
			wctx = ctx
		}
		ats[i] = start.Add(2*time.Millisecond + time.Duration(i)*2*time.Microsecond)
		wg.Add(1)
		go func(i int, wctx context.Context) {
			defer wg.Done()
			errs[i] = SleepUntilExact(wctx, ats[i])
			ends[i] = time.Now()
		}(i, wctx)
	}
	time.Sleep(time.Until(start.Add(3 * time.Millisecond)))
	cancel()
	wg.Wait()
	for i, err := range errs {
		switch {
		case i%2 == 0 && err != nil:
			t.Fatalf("wait %d: %v", i, err)
		case i%2 == 0 && ends[i].Before(ats[i]):
			t.Fatalf("wait %d returned %v early", i, ats[i].Sub(ends[i]))
		case i%2 == 1 && err != nil && !errors.Is(err, context.Canceled):
			t.Fatalf("canceled wait %d: %v", i, err)
		}
	}
	if after := openFDs(t); after > before+maxWakeFDs {
		t.Errorf("%d file descriptors open after the waits, %d before: more than the %d timerfds the free list may hold",
			after, before, maxWakeFDs)
	}
}
