//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package fabric

import (
	"context"
	"errors"
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

// TestStreamRoom: Room never blocks. It names the zero time while the window
// has room for n more bytes and, once the window's 128 KiB are booked and
// unarrived, the instant the oldest booking arrives. A Book of at most
// ChunkBytes made at that instant returns without sleeping, and a Book on a
// closed stream still fails.
func TestStreamRoom(t *testing.T) {
	f, chunkTime := slowPair(t)
	ctx := context.Background()
	s, err := f.OpenStream(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	var arrivals []time.Time
	for booked := 0; booked < sendWindow; booked += ChunkBytes {
		if room := s.Room(ChunkBytes); !room.IsZero() {
			t.Fatalf("Room(%d) = %v with %d of %d bytes booked, want the zero time", ChunkBytes, room, booked, sendWindow)
		}
		arrival, err := s.Book(ctx, ChunkBytes, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		arrivals = append(arrivals, arrival)
	}
	if got := arrivals[0].Sub(start); got != chunkTime {
		t.Fatalf("the first chunk arrives %v after the start, want one chunk time, %v", got, chunkTime)
	}
	for _, n := range []int{1, ChunkBytes} {
		if room := s.Room(n); !room.Equal(arrivals[0]) {
			t.Errorf("Room(%d) with the window full = %v, want the oldest arrival %v", n, room, arrivals[0])
		}
	}
	if d := time.Since(start); d != 0 {
		t.Errorf("booking into a window with room and asking for room took %v, want no time", d)
	}
	if err := SleepUntil(ctx, arrivals[0]); err != nil {
		t.Fatal(err)
	}
	if room := s.Room(ChunkBytes); !room.IsZero() {
		t.Errorf("Room(%d) once the oldest booking arrived = %v, want the zero time", ChunkBytes, room)
	}
	at := time.Now()
	if _, err := s.Book(ctx, ChunkBytes, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(at); d != 0 {
		t.Errorf("a Book at the instant Room named slept %v", d)
	}
	if room := s.Room(ChunkBytes); !room.Equal(arrivals[1]) {
		t.Errorf("Room(%d) with the window full again = %v, want the oldest arrival %v", ChunkBytes, room, arrivals[1])
	}
	s.Close()
	if _, err := s.Book(ctx, ChunkBytes, time.Time{}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Book on a closed stream = %v, want ErrStreamClosed", err)
	}
}
