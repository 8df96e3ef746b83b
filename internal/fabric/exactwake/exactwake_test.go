//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// Package exactwake holds fabric.SleepUntilExact on a fake clock entered
// after the wall clock taught it a slack. Its tests run outside any bubble of
// their own (fabric's tagged suite runs inside one, where no wall clock is),
// so a wait that hangs is caught by a real-time watchdog.
package exactwake_test

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"ear/internal/fabric"
)

// TestSleepUntilExactInBubbleAfterWall: once exact and plain waits on the
// wall clock have set the slack above zero (a timer never fires before its
// instant on the wall), exact waits run in a synctest bubble, one shorter
// than any slack and one longer, each return at their fake instant to the
// nanosecond. The clock does not move across a yield in a bubble, so the wait
// must finish on a timer; a wait that kept yielding would never let the fake
// clock reach its instant, and the watchdog fails the test instead of letting
// it hang.
func TestSleepUntilExactInBubbleAfterWall(t *testing.T) {
	for i := 0; i < 10; i++ {
		at := time.Now().Add(time.Duration(300+i*100) * time.Microsecond)
		if err := fabric.SleepUntilExact(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		if err := fabric.SleepUntil(context.Background(), time.Now().Add(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(func() {
			for _, d := range []time.Duration{time.Microsecond, 5 * time.Millisecond} {
				at := time.Now().Add(d)
				if err := fabric.SleepUntilExact(context.Background(), at); err != nil {
					t.Error(err)
				}
				if got := time.Now(); !got.Equal(at) {
					t.Errorf("an exact wait of %v in a bubble returned at %v, want its instant %v", d, got, at)
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("exact waits in a bubble still running after 10 s on the wall: the fake clock never reached their instant")
	}
}
