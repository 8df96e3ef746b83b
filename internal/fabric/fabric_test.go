package fabric

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"ear/internal/telemetry"
	"ear/internal/topology"
)

// took is how long op takes on the clock the suite was built for; onModel
// and timed (bubble_test.go, wallclock_test.go) hold it to a closed form.
func took(op func()) time.Duration {
	start := time.Now()
	op()
	return time.Since(start)
}

// onLink is n bytes on a link of the given rate, bytes per second.
func onLink(n int, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

func mustTop(t *testing.T, racks, nodes int) *topology.Topology {
	t.Helper()
	top, err := topology.New(racks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewLinkValidation(t *testing.T) {
	if _, err := NewLink("x", 0); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("rate 0: %v", err)
	}
	l, err := NewLink("x", 100)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "x" || l.Rate() != 100 {
		t.Error("accessors wrong")
	}
	if err := l.SetRate(-1); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("SetRate(-1): %v", err)
	}
	if err := l.SetRate(200); err != nil || l.Rate() != 200 {
		t.Errorf("SetRate(200): %v, rate %g", err, l.Rate())
	}
}

func TestTransferDeliversPayload(t *testing.T) {
	f, err := New(mustTop(t, 2, 2), 1<<30) // 1 GB/s: effectively instant
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, rack-aware world")
	got, err := f.Transfer(0, 3, data)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
	// No aliasing.
	got[0] = 'X'
	if data[0] == 'X' {
		t.Fatal("returned slice aliases input")
	}
	if f.CrossRackBytes() != int64(len(data)) {
		t.Errorf("CrossRackBytes = %d", f.CrossRackBytes())
	}
	if _, err := f.Transfer(0, 1, data); err != nil {
		t.Fatal(err)
	}
	if f.IntraRackBytes() != int64(len(data)) {
		t.Errorf("IntraRackBytes = %d", f.IntraRackBytes())
	}
}

func TestTransferLocalIsUnshaped(t *testing.T) {
	f, err := New(mustTop(t, 1, 1), 1) // 1 B/s
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := f.Transfer(0, 0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Error("local transfer was shaped")
	}
	if f.CrossRackBytes() != 0 || f.IntraRackBytes() != 0 {
		t.Error("local transfer counted as network traffic")
	}
}

func TestTransferShapingDuration(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	timed(t, "1 MiB at 10 MiB/s", 100*time.Millisecond, func() {
		if _, err := f.Transfer(0, 1, make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSharedUplinkHalvesThroughput(t *testing.T) {
	// Two nodes of rack 0 send cross-rack concurrently: the rack uplink they
	// share carries both payloads, so the pair takes twice what one alone does.
	top := mustTop(t, 2, 2)
	const rate = 8 << 20
	f, err := New(top, rate)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20) // alone 125 ms, shared 250 ms
	timed(t, "two flows over one rack uplink", 2*onLink(len(payload), rate), func() {
		var wg sync.WaitGroup
		var errs [2]error
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = f.Transfer(topology.NodeID(i), topology.NodeID(2+i), payload)
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				t.Fatal(e)
			}
		}
	})
}

func TestTransferBadNodes(t *testing.T) {
	f, err := New(mustTop(t, 2, 2), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Transfer(0, 99, nil); err == nil {
		t.Error("bad dst: expected error")
	}
	if _, err := f.Transfer(99, 0, nil); err == nil {
		t.Error("bad src: expected error")
	}
	if _, err := f.Transfer(99, 99, nil); err == nil {
		t.Error("bad local: expected error")
	}
}

func TestNewRejectsBadRate(t *testing.T) {
	if _, err := New(mustTop(t, 2, 2), 0); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("rate 0: %v", err)
	}
}

func TestInjectorConsumesCapacity(t *testing.T) {
	top := mustTop(t, 2, 1)
	f, err := New(top, 4<<20) // 4 MB/s
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512<<10)
	transfer := func() {
		if _, err := f.Transfer(0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	base := onLink(len(payload), 4<<20)
	timed(t, "512 KiB at 4 MiB/s", base, transfer)
	// Cross traffic is a rate off the links from the call on: 1 MiB/s is left.
	inj, err := f.InjectTraffic(0, 1, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	timed(t, "512 KiB beside 3 of the 4 MiB/s injected", 4*base, transfer)
}

func TestInjectorValidation(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectTraffic(0, 1, 0); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("rate 0: %v", err)
	}
	if _, err := f.InjectTraffic(0, 42, 100); err == nil {
		t.Error("bad node: expected error")
	}
}

func TestLinkMovedAccounting(t *testing.T) {
	l, err := NewLink("x", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	l.reserve(1000, time.Time{}, time.Time{})
	l.reserve(24, time.Time{}, time.Time{})
	if l.Moved() != 1024 {
		t.Errorf("Moved = %d, want 1024", l.Moved())
	}
}

func TestConcurrentTransfersRace(t *testing.T) {
	// Exercised under -race: many goroutines sharing links.
	top := mustTop(t, 3, 3)
	f, err := New(top, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := topology.NodeID(i % top.Nodes())
			dst := topology.NodeID((i * 7) % top.Nodes())
			if _, err := f.Transfer(src, dst, make([]byte, 100<<10)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestDiskShapedLocalRead(t *testing.T) {
	f, err := New(mustTop(t, 1, 1), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableDisk(0); err == nil {
		t.Error("EnableDisk(0): expected error")
	}
	if err := f.EnableDisk(10 << 20); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := f.Transfer(0, 0, make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	timed(t, "1 MiB off a 10 MiB/s disk", 100*time.Millisecond, read)
	// SetDiskRates speeds it up. What the disk made the reads wait is summed
	// from the bookings, not read off a clock, so it shows the new rate on the
	// wall clock too, where the model is only a floor.
	if err := f.SetDiskRates(1 << 30); err != nil {
		t.Fatal(err)
	}
	fast := (1 << 20) / ChunkBytes * onLink(ChunkBytes, 1<<30) // booked a chunk at a time
	waited := f.disk[0].Waited()
	read()
	if got := f.disk[0].Waited() - waited; got != fast {
		t.Errorf("the disk held a 1 MiB read for %v after SetDiskRates(1 GiB/s), want %v", got, fast)
	}
	timed(t, "1 MiB off a 1 GiB/s disk", fast, read)
	// SetDiskRates with disks disabled is a no-op.
	f2, err := New(mustTop(t, 1, 1), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.SetDiskRates(1); err != nil {
		t.Errorf("SetDiskRates without disks: %v", err)
	}
}

func TestSnapshotClassesAndDeltas(t *testing.T) {
	top := mustTop(t, 2, 2)
	f, err := New(top, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableDisk(1 << 28); err != nil {
		t.Fatal(err)
	}
	before := f.Snapshot()
	wantLinks := 2*top.Nodes() + 2*2 + top.Nodes() // NICs + rack links + disks
	if len(before.Links) != wantLinks {
		t.Fatalf("links = %d, want %d", len(before.Links), wantLinks)
	}

	payload := make([]byte, 128<<10)
	if _, err := f.Transfer(0, 3, payload); err != nil { // cross-rack
		t.Fatal(err)
	}
	if _, err := f.Transfer(0, 1, payload); err != nil { // intra-rack
		t.Fatal(err)
	}
	if _, err := f.Transfer(2, 2, payload); err != nil { // local disk
		t.Fatal(err)
	}

	d := f.Snapshot().Sub(before)
	if d.CrossRackBytes != int64(len(payload)) || d.IntraRackBytes != int64(len(payload)) {
		t.Errorf("cross/intra deltas = %d/%d, want %d each",
			d.CrossRackBytes, d.IntraRackBytes, len(payload))
	}
	// Both network transfers traverse a node-up link; only the cross-rack
	// one touches rack links.
	if got := d.ClassBytes[ClassNodeUp]; got != 2*int64(len(payload)) {
		t.Errorf("node-up bytes = %d, want %d", got, 2*len(payload))
	}
	if got := d.ClassBytes[ClassRackUp]; got != int64(len(payload)) {
		t.Errorf("rack-up bytes = %d, want %d", got, len(payload))
	}
	if got := d.ClassBytes[ClassDisk]; got != int64(len(payload)) {
		t.Errorf("disk bytes = %d, want %d", got, len(payload))
	}
}

func TestLinkWaitedAccounting(t *testing.T) {
	l, err := NewLink("x", 1<<20) // 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	l.reserve(1<<20, time.Time{}, time.Time{}) // one full second of backlog
	if w := l.Waited(); w != time.Second {
		t.Errorf("Waited = %v, want 1s", w)
	}
	if l.Class() != ClassOther {
		t.Errorf("Class = %q, want %q", l.Class(), ClassOther)
	}
}

func TestFabricTelemetry(t *testing.T) {
	top := mustTop(t, 2, 1)
	f, err := New(top, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	f.SetTelemetry(reg)
	payload := make([]byte, 64<<10)
	if _, err := f.Transfer(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	cross := reg.Counter("fabric_bytes_total", "", "locality").With("cross-rack")
	if got := cross.Value(); got != float64(len(payload)) {
		t.Errorf("fabric_bytes_total{cross-rack} = %g, want %d", got, len(payload))
	}
	linkBytes := reg.Counter("fabric_link_bytes_total", "", "link", "class")
	if got := linkBytes.With("node0.up", string(ClassNodeUp)).Value(); got != float64(len(payload)) {
		t.Errorf("link bytes = %g, want %d", got, len(payload))
	}
}

func TestTransferCtxCancelAborts(t *testing.T) {
	// 64 KB/s: a 1 MB transfer would take ~16s; cancellation must abort it
	// within roughly one chunk reservation.
	f, err := New(mustTop(t, 2, 1), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = f.TransferCtx(ctx, 0, 1, make([]byte, 1<<20))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TransferCtx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v; want prompt abort", elapsed)
	}
}

func TestStreamSendDeadline(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s, err := f.OpenStream(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(ctx, 1<<20); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Send = %v, want deadline exceeded", err)
	}
	if s.Sent() >= 1<<20 {
		t.Errorf("Sent = %d after deadline, want partial delivery", s.Sent())
	}
}

func TestStreamClosedRejectsSend(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenStream(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if err := s.Send(context.Background(), 10); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Send on closed stream = %v, want ErrStreamClosed", err)
	}
}

func TestStreamAccountsLocality(t *testing.T) {
	f, err := New(mustTop(t, 2, 2), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenStream(context.Background(), 0, 3) // cross-rack
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(context.Background(), 100<<10); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := f.CrossRackBytes(); got != 100<<10 {
		t.Errorf("CrossRackBytes = %d, want %d", got, 100<<10)
	}
	if got := f.IntraRackBytes(); got != 0 {
		t.Errorf("IntraRackBytes = %d, want 0", got)
	}
}

func TestConcurrentStreamsShareLinkFairly(t *testing.T) {
	// Two streams share node0's uplink, which serves them a window at a time:
	// the last finishes when both payloads have crossed it and the other
	// between one window and one chunk of bytes earlier, not a payload earlier
	// as it would if the link served them one after the other. Which end
	// depends on how the two streams' bookings at t = 0 interleave, which the
	// scheduler decides: one stream's whole window, then the other's, or
	// chunk by chunk.
	top := mustTop(t, 3, 1)
	const rate = 8 << 20
	f, err := New(top, rate)
	if err != nil {
		t.Fatal(err)
	}
	const payload = 1 << 20 // alone 125 ms, shared 250 ms
	var elapsed [2]time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := f.OpenStream(context.Background(), 0, topology.NodeID(1+i))
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if err := s.Send(context.Background(), payload); err != nil {
				t.Error(err)
			}
			elapsed[i] = time.Since(start)
		}()
	}
	wg.Wait()
	both := 2 * onLink(payload, rate)
	onModel(t, "the stream served last", both, max(elapsed[0], elapsed[1]))
	inModel(t, "the stream served first", both-onLink(sendWindow, rate), both-onLink(ChunkBytes, rate), min(elapsed[0], elapsed[1]))
}

func TestStreamTelemetryGauge(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	f.SetTelemetry(reg)
	active := reg.Gauge("fabric_streams_active", "").With()
	total := reg.Counter("fabric_streams_total", "").With()
	s, err := f.OpenStream(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := active.Value(); got != 1 {
		t.Errorf("fabric_streams_active = %g, want 1", got)
	}
	s.Close()
	s.Close()
	if got := active.Value(); got != 0 {
		t.Errorf("fabric_streams_active after close = %g, want 0", got)
	}
	if got := total.Value(); got != 1 {
		t.Errorf("fabric_streams_total = %g, want 1", got)
	}
}

func TestInjectorDoubleCloseAndFabricClose(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := f.InjectTraffic(0, 1, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	inj.Close()
	inj.Close() // must be a safe no-op

	// Fabric teardown stops still-running injectors.
	inj2, err := f.InjectTraffic(0, 1, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := f.nodeUp[0].injected; got != 0 {
		t.Fatalf("Fabric.Close left %g B/s of the running injector on node0.up", got)
	}
	inj2.Close() // still safe after fabric teardown
	f.Close()    // and fabric close is idempotent too
}

// slowPair is a two-rack, two-node fabric at 1 MiB/s, so one chunk is on a
// link for 62.5 ms: slow enough that a test goroutine reaches its next call
// long before the chunk in flight arrives.
func slowPair(t *testing.T) (f *Fabric, chunkTime time.Duration) {
	t.Helper()
	f, err := New(mustTop(t, 2, 1), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return f, time.Duration(float64(ChunkBytes) / (1 << 20) * float64(time.Second))
}

// bookChunks books n chunks one Book call each, the first behind a chunk of
// the stream's that arrives at `behind` (the zero time: the link is idle), and
// returns their arrival instants. It skips the test if the host held the
// goroutine up for so long that a chunk was booked after its predecessor had
// arrived: the link idled then, and the arithmetic the callers check does not
// apply.
func bookChunks(t *testing.T, s *Stream, n int, behind time.Time) []time.Time {
	t.Helper()
	arrivals := make([]time.Time, n)
	for i := range arrivals {
		var err error
		if arrivals[i], err = s.Book(context.Background(), ChunkBytes, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if !behind.IsZero() && !time.Now().Before(behind) {
			t.Skipf("chunk %d was booked after its predecessor had arrived: the host stalled the test and the link idled", i)
		}
		behind = arrivals[i]
	}
	return arrivals
}

// TestBookKeepsIdleLinkBusy is the window's arithmetic: on an idle link four
// chunks arrive exactly n/R after the first was booked, because each chunk is
// queued behind its predecessor before that one arrives. With one booking a
// stream, chunk i+1 starts when the sender has woken from chunk i, and every
// oversleep is added to the total.
func TestBookKeepsIdleLinkBusy(t *testing.T) {
	f, chunkTime := slowPair(t)
	ctx := context.Background()
	s, err := f.OpenStream(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := time.Now()
	first, err := s.Book(ctx, ChunkBytes, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	// The link was idle, so the first chunk was booked one chunk time before
	// it arrives; that instant lies inside the call.
	booked := first.Add(-chunkTime)
	if booked.Before(before) || booked.After(after) {
		t.Fatalf("first chunk arrives %v after the call began, want one chunk time (%v) after an instant inside the call (%v long)",
			first.Sub(before), chunkTime, after.Sub(before))
	}
	arrivals := bookChunks(t, s, 3, first)
	last := arrivals[2]
	if got := last.Sub(booked); got != 4*chunkTime {
		t.Errorf("4 chunks arrive %v after the first booking, want n/R = %v: the link idled for %v", got, 4*chunkTime, got-4*chunkTime)
	}
	// The calls had to wait for room in the window, never for an arrival of
	// their own: the last returned with its chunk and the one before it still
	// to come.
	if got := s.Sent(); got >= 3*ChunkBytes && time.Now().Before(arrivals[1]) {
		t.Errorf("Sent = %d with the last two chunks booked and not arrived", got)
	}
	if err := SleepUntil(ctx, last); err != nil {
		t.Fatal(err)
	}
	if got := s.Sent(); got != 4*ChunkBytes {
		t.Errorf("Sent = %d after the last arrival, want %d", got, 4*ChunkBytes)
	}

	// The same through Send, the call every data path makes: it returns once
	// the bytes have arrived and only then are they counted.
	onModel(t, "Send of 4 chunks", 4*chunkTime, took(func() {
		if err := s.Send(ctx, 4*ChunkBytes); err != nil {
			t.Fatal(err)
		}
	}))
	if got := s.Sent(); got != 8*ChunkBytes {
		t.Errorf("Sent = %d after Send, want %d", got, 8*ChunkBytes)
	}
	if got := f.CrossRackBytes(); got != 8*ChunkBytes {
		t.Errorf("CrossRackBytes = %d after Send, want %d", got, 8*ChunkBytes)
	}
	// Booking ahead counts no interval twice: a lone stream's chunk waits one
	// chunk time on every link of the path, from its booking on an idle link
	// or from the instant its predecessor cleared — not the ~2x a wait
	// measured from the booking call would add up to. No wall-clock reading
	// enters the sum, so it is exact however the host scheduled the test.
	for _, l := range s.links {
		if got := l.Waited(); got != 8*chunkTime {
			t.Errorf("%s waited %v over 8 chunks of a lone stream, want n·c/R = %v", l.Name(), got, 8*chunkTime)
		}
	}
}

// TestStreamsShareLinkWithinWindow: two streams booking through one uplink
// are served FIFO at chunk grain, and the window is as far as either gets
// ahead. In the order the link serves them, while both have chunks left, no
// stream has more than a window's worth of chunks in a row.
func TestStreamsShareLinkWithinWindow(t *testing.T) {
	// Rack-mates, so the sender's uplink is the one link the streams share:
	// the links of a path are booked one after another, and two streams
	// booking two shared links at the same instant could be served in one
	// order on the first and the other on the second.
	f, err := New(mustTop(t, 1, 3), 2<<20) // 31 ms a chunk
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 8
	type served struct {
		stream  int
		arrival time.Time
	}
	var (
		mu    sync.Mutex
		order []served
		wg    sync.WaitGroup
	)
	begin := make(chan struct{})
	for i := 0; i < 2; i++ {
		s, err := f.OpenStream(context.Background(), 0, topology.NodeID(1+i))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			for c := 0; c < chunks; c++ {
				arrival, err := s.Book(context.Background(), ChunkBytes, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, served{i, arrival})
				mu.Unlock()
			}
		}()
	}
	close(begin)
	wg.Wait()
	if len(order) != 2*chunks {
		t.Fatalf("%d chunks booked, want %d", len(order), 2*chunks)
	}
	// Every chunk crosses node0.up, which serves one at a time, and then a
	// downlink of the stream's own: arrival order is service order.
	sort.Slice(order, func(a, b int) bool { return order[a].arrival.Before(order[b].arrival) })
	const window = sendWindow / ChunkBytes
	left := [2]int{chunks, chunks}
	run, turns := 0, 0
	for i, o := range order {
		if i > 0 && order[i-1].stream == o.stream {
			run++
		} else {
			run, turns = 1, turns+1
		}
		left[o.stream]--
		// A run counts against the window only while the other stream is in
		// the queue too: after its first chunk and before its last.
		if other := 1 - o.stream; left[other] > 0 && left[other] < chunks && run > window {
			t.Errorf("stream %d served %d chunks in a row at position %d with stream %d waiting, window is %d", o.stream, run, i, other, window)
		}
	}
	if turns < chunks/window {
		t.Errorf("service changed stream %d times over %d chunks: the streams did not share the link", turns, 2*chunks)
	}
}

// TestCanceledSendOvershootsByTheWindow: a Send cut short leaves at most the
// window booked on the links beyond what arrived, and only what arrived is
// ever counted as delivered: by Sent, by the locality counters, and after
// Close whatever time passes.
func TestCanceledSendOvershootsByTheWindow(t *testing.T) {
	f, chunkTime := slowPair(t)
	start := time.Now()
	deadline := 3*chunkTime + chunkTime/5
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	s, err := f.OpenStream(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(ctx, 1<<20); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Send = %v, want deadline exceeded", err)
	}
	onModel(t, "a Send cut short by its deadline", deadline, time.Since(start))
	sent, moved := s.Sent(), f.nodeUp[0].Moved()
	if arrivedBy := int64(time.Since(start) / chunkTime * ChunkBytes); sent > arrivedBy {
		t.Errorf("Sent = %d, more than the %d bytes that can have arrived", sent, arrivedBy)
	}
	if sent < 2*ChunkBytes {
		t.Errorf("Sent = %d after three chunk times, want at least 2 chunks", sent)
	}
	if over := moved - sent; over <= 0 || over > sendWindow {
		t.Errorf("links hold %d bytes beyond the %d delivered, want within (0, %d]", over, sent, sendWindow)
	}
	s.Close()
	delivered := s.Sent()
	if delivered < sent || delivered > moved {
		t.Errorf("Sent = %d at Close, was %d with %d booked", delivered, sent, moved)
	}
	// The chunks still queued at Close clear the links later and are never
	// counted.
	f.nodeUp[0].mu.Lock()
	cleared := f.nodeUp[0].nextFree
	f.nodeUp[0].mu.Unlock()
	if err := SleepUntil(context.Background(), cleared); err != nil {
		t.Fatal(err)
	}
	if got := s.Sent(); got != delivered {
		t.Errorf("Sent = %d after the abandoned chunks cleared the link, want the %d delivered at Close", got, delivered)
	}
	if got := f.CrossRackBytes(); got != delivered {
		t.Errorf("CrossRackBytes = %d, want the %d delivered", got, delivered)
	}
}

// TestInjectorRejectsWhatNoLinkCarries: an injector whose chunk interval
// rounded to zero used to panic its goroutine in time.NewTicker after
// InjectTraffic had returned nil. Cross traffic is a rate on the links now,
// and one that leaves a link of the path nothing is refused, whole.
func TestInjectorRejectsWhatNoLinkCarries(t *testing.T) {
	const linkRate = 16 << 20
	f, err := New(mustTop(t, 2, 2), linkRate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rate := range []float64{1e15, linkRate, math.Inf(1), math.NaN(), -1} {
		if _, err := f.InjectTraffic(0, 3, rate); !errors.Is(err, ErrInvalidRate) {
			t.Errorf("InjectTraffic at %g B/s = %v, want ErrInvalidRate", rate, err)
		}
	}
	if _, err := f.InjectTraffic(1, 3, 0.75*linkRate); err != nil {
		t.Fatal(err)
	}
	// 0 -> 3 shares rack0.up, rack1.down and node3.down with 1 -> 3: refused
	// there, and taken back off node0.up, which had room for it.
	if _, err := f.InjectTraffic(0, 3, 0.5*linkRate); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("second injector past the link rate = %v, want ErrInvalidRate", err)
	}
	for l, want := range map[*Link]float64{f.nodeUp[0]: 0, f.nodeUp[1]: 0.75 * linkRate, f.rackUp[0]: 0.75 * linkRate, f.nodeDown[3]: 0.75 * linkRate} {
		if l.injected != want {
			t.Errorf("%s carries %g B/s of cross traffic, want %g", l.Name(), l.injected, want)
		}
	}
	if err := f.SetAllRates(0.75 * linkRate); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("SetAllRates down to the injected rate = %v, want ErrInvalidRate", err)
	}
}

// TestInjectedTrafficComesOffTheTop: cross traffic is open loop, so payload
// is shaped at what it leaves from a flow's first chunk on. However many
// chunks a stream queues ahead, it cannot get in front of traffic that never
// queues, and when the injector closes the link is whole again.
func TestInjectedTrafficComesOffTheTop(t *testing.T) {
	f, chunkTime := slowPair(t)
	inj, err := f.InjectTraffic(0, 1, 768<<10) // 3/4 of the link
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenStream(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := time.Now()
	arrivals := bookChunks(t, s, 3, time.Time{})
	onModel(t, "the first chunk beside 3/4 cross traffic", 4*chunkTime, arrivals[0].Sub(before))
	if got := arrivals[2].Sub(arrivals[0]); got != 8*chunkTime {
		t.Errorf("two more chunks arrive %v later, want %v", got, 8*chunkTime)
	}
	inj.Close()
	// The window has room once the second chunk has arrived; the third is on
	// the wire then.
	next := bookChunks(t, s, 1, arrivals[2])[0]
	if got := next.Sub(arrivals[2]); got != chunkTime {
		t.Errorf("a chunk booked after the injector closed takes %v, want %v", got, chunkTime)
	}
}

// TestInjectorBooksItsRate: an injector books rate × time on every link of
// its path.
func TestInjectorBooksItsRate(t *testing.T) {
	f, err := New(mustTop(t, 2, 1), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const rate = 16 << 20
	// The traffic is on the links from an instant inside InjectTraffic to one
	// inside Close: clock readings around the two calls bracket what the links
	// carried, and on a clock that stands still across a call they meet.
	before := time.Now()
	inj, err := f.InjectTraffic(0, 1, rate)
	if err != nil {
		t.Fatal(err)
	}
	injected := time.Now()
	time.Sleep(100 * time.Millisecond)
	closing := time.Now()
	inj.Close()
	closed := time.Now()
	least, most := int64(rate*closing.Sub(injected).Seconds()), int64(rate*closed.Sub(before).Seconds())
	for _, l := range []*Link{f.nodeUp[0], f.rackUp[0], f.rackDown[1], f.nodeDown[1]} {
		if got := l.Moved(); got < least || got > most {
			t.Errorf("%s carried %d injected bytes, want rate x time in [%d, %d]", l.Name(), got, least, most)
		}
	}
}

// TestStreamBookerAndReceiver uses a stream the way a stage run does, from
// two goroutines: one books chunks and hands the arrival instants over, the
// other sleeps until each, reads what has been delivered and closes the
// stream — after the last arrival, or early with the booker still at work.
func TestStreamBookerAndReceiver(t *testing.T) {
	const chunks = 24
	for _, closeAfter := range []int{chunks, 5} {
		f, err := New(mustTop(t, 2, 1), 64<<20) // 1 ms a chunk
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		s, err := f.OpenStream(ctx, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := make(chan time.Time, chunks)
		booked := make(chan error, 1)
		go func() {
			defer close(arrivals)
			for c := 0; c < chunks; c++ {
				arrival, err := s.Book(ctx, ChunkBytes, time.Time{})
				if err != nil {
					booked <- err
					return
				}
				arrivals <- arrival
			}
			booked <- nil
		}()
		for got := 1; got <= closeAfter; got++ {
			if err := SleepUntil(ctx, <-arrivals); err != nil {
				t.Fatal(err)
			}
			if sent := s.Sent(); sent < int64(got)*ChunkBytes {
				t.Fatalf("Sent = %d after the arrival of chunk %d", sent, got)
			}
		}
		s.Close()
		err = <-booked
		if closeAfter == chunks && err != nil {
			t.Fatalf("booker: %v", err)
		}
		if closeAfter < chunks && !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("booker on a stream closed under it = %v, want ErrStreamClosed", err)
		}
		sent, moved := s.Sent(), f.nodeUp[0].Moved()
		if sent < int64(closeAfter)*ChunkBytes || sent > moved || moved-sent > sendWindow {
			t.Errorf("closed after %d arrivals: Sent = %d with %d booked, want at least the arrivals and at most the window short of the bookings", closeAfter, sent, moved)
		}
		if got := f.CrossRackBytes(); got != sent {
			t.Errorf("CrossRackBytes = %d, want Sent = %d", got, sent)
		}
	}
}

// TestBookingStartsWhenItsBytesWereReady: a booking carries the instant its
// bytes were ready. On a link idle since then it starts there, not at the
// booking, so a sender that woke late still gets the link time it left idle
// and the bytes may have arrived by the time Book returns. A ready instant in
// the future starts at the booking, and one before the stream opened starts
// at the open.
func TestBookingStartsWhenItsBytesWereReady(t *testing.T) {
	ctx := context.Background()
	open := func() (*Stream, time.Duration) {
		f, chunkTime := slowPair(t)
		s, err := f.OpenStream(ctx, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, chunkTime
	}
	book := func(s *Stream, ready time.Time) time.Time {
		t.Helper()
		arrival, err := s.Book(ctx, ChunkBytes, ready)
		if err != nil {
			t.Fatal(err)
		}
		return arrival
	}

	s, chunkTime := open()
	time.Sleep(2 * chunkTime)
	ready := s.opened.Add(chunkTime / 2)
	if got := book(s, ready); got != ready.Add(chunkTime) {
		t.Errorf("a chunk ready in the idle past arrives %v after it was ready, want one chunk time (%v)", got.Sub(ready), chunkTime)
	}
	if got := s.Sent(); got != ChunkBytes {
		t.Errorf("Sent = %d right after booking a chunk whose link time had passed, want %d", got, ChunkBytes)
	}
	// The next chunk ready at the same instant waits behind the first: a
	// booking never takes time another one holds.
	first := ready.Add(chunkTime)
	if got := book(s, ready); got != first.Add(chunkTime) {
		t.Errorf("a second chunk ready at the same instant arrives %v after the first, want %v", got.Sub(first), chunkTime)
	}

	s, chunkTime = open()
	before := time.Now()
	booked := book(s, before.Add(time.Hour)).Add(-chunkTime)
	if after := time.Now(); booked.Before(before) || booked.After(after) {
		t.Errorf("a chunk ready an hour from now was served from %v after the call began, want an instant inside the call (%v long)",
			booked.Sub(before), after.Sub(before))
	}

	s, chunkTime = open()
	time.Sleep(chunkTime)
	if got := book(s, s.opened.Add(-time.Hour)); got != s.opened.Add(chunkTime) {
		t.Errorf("a chunk ready before the stream opened arrives %v after the open, want one chunk time (%v)", got.Sub(s.opened), chunkTime)
	}
}

// TestLinkNeverBooksMoreThanItsRate books a link with ready instants drawn
// from the idle past, the busy past, now and the future, between sleeps of
// random length. Whatever the instants, the link serves its bookings one
// after another: over any interval [a, b] it books no more than
// rate × (b − a) + one booking, it never starts a booking later than both its
// queue tail and the call (no hole in the future), and no booking adds a
// negative wait.
func TestLinkNeverBooksMoreThanItsRate(t *testing.T) {
	const rate = 1 << 20
	l, err := NewLink("x", rate)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	type served struct {
		start, end time.Time
		bytes      int
	}
	var log []served
	var tail time.Time
	// Bookings of up to 8 ms between sleeps of up to 8 ms: the link is busy
	// at some calls and idle at others.
	for i := 0; i < 80; i++ {
		time.Sleep(time.Duration(rng.Intn(8000)) * time.Microsecond)
		n := 1 + rng.Intn(8<<10)
		var ready time.Time
		switch rng.Intn(4) {
		case 1:
			ready = time.Now().Add(-time.Duration(rng.Intn(20000)) * time.Microsecond)
		case 2:
			ready = time.Now()
		case 3:
			ready = time.Now().Add(time.Duration(rng.Intn(20000)) * time.Microsecond)
		}
		waited := l.Waited()
		before := time.Now()
		end := l.reserve(n, time.Time{}, ready)
		after := time.Now()
		if d := l.Waited() - waited; d < 0 {
			t.Errorf("booking %d added %v to Waited", i, d)
		}
		start := end.Add(-onLink(n, rate))
		if start.Before(tail) {
			t.Errorf("booking %d starts %v before the link's previous booking ends", i, tail.Sub(start))
		}
		if latest := maxTime(tail, after); start.After(latest) {
			t.Errorf("booking %d starts %v after both the queue tail and the call: a hole in the future", i, start.Sub(latest))
		}
		if !ready.IsZero() && start.Before(minTime(ready, before)) {
			t.Errorf("booking %d starts %v before its bytes were ready", i, minTime(ready, before).Sub(start))
		}
		log = append(log, served{start, end, n})
		tail = end
	}
	for i := range log {
		bytes := 0
		for j := i; j < len(log); j++ {
			bytes += log[j].bytes
			if limit := rate*log[j].start.Sub(log[i].start).Seconds() + float64(log[j].bytes); float64(bytes) > limit+1 {
				t.Fatalf("bookings %d..%d start within %v and hold %d bytes, more than rate × interval + one booking (%.0f)",
					i, j, log[j].start.Sub(log[i].start), bytes, limit)
			}
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// TestWaitedCountsNoIntervalTwice: a stream that books four chunks late, all
// ready at its open on an idle path, has them served back to back from that
// instant, every one in the past. Each waited one chunk time on every link —
// the first from the instant it was ready, the rest from the instant the one
// before cleared — so Waited reads exactly 4·c/R: measured from the ready
// instant alone it would read 10·c/R, and from the booking call, negative.
func TestWaitedCountsNoIntervalTwice(t *testing.T) {
	f, chunkTime := slowPair(t)
	ctx := context.Background()
	s, err := f.OpenStream(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(8 * chunkTime)
	var last time.Time
	for c := 0; c < 4; c++ {
		if last, err = s.Book(ctx, ChunkBytes, s.opened); err != nil {
			t.Fatal(err)
		}
	}
	if want := s.opened.Add(4 * chunkTime); last != want {
		t.Errorf("the fourth chunk arrives %v after the open, want %v", last.Sub(s.opened), 4*chunkTime)
	}
	if got := s.Sent(); got != 4*ChunkBytes {
		t.Errorf("Sent = %d with every chunk's link time in the past, want %d", got, 4*ChunkBytes)
	}
	for _, l := range s.links {
		if got := l.Waited(); got != 4*chunkTime {
			t.Errorf("%s waited %v over 4 back-dated chunks, want %v", l.Name(), got, 4*chunkTime)
		}
	}
}

// TestStreamsShareLinkByBytes: a fold walking 4 KiB slices and a read
// walking 64 KiB chunks share one uplink. The window is bytes, so each holds
// the same bytes in the link's FIFO and each receives half of what the link
// delivers, within one window, for as long as both have bytes to come. A
// window of two bookings would give the read sixteen times the fold's share.
func TestStreamsShareLinkByBytes(t *testing.T) {
	f, err := New(mustTop(t, 1, 3), 4<<20) // 1 ms a slice, 16 ms a chunk
	if err != nil {
		t.Fatal(err)
	}
	const payload = 1 << 20
	type arrived struct {
		stream, bytes int
		at            time.Time
	}
	var (
		mu    sync.Mutex
		order []arrived
		wg    sync.WaitGroup
	)
	begin := make(chan struct{})
	for i, booking := range []int{4 << 10, ChunkBytes} {
		s, err := f.OpenStream(context.Background(), 0, topology.NodeID(1+i))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			for off := 0; off < payload; off += booking {
				at, err := s.Book(context.Background(), booking, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, arrived{i, booking, at})
				mu.Unlock()
			}
		}()
	}
	close(begin)
	wg.Wait()
	sort.SliceStable(order, func(a, b int) bool { return order[a].at.Before(order[b].at) })
	var got [2]int
	for _, a := range order {
		got[a.stream] += a.bytes
		if got[0] == payload || got[1] == payload {
			break
		}
		if half := (got[0] + got[1]) / 2; min(got[0], got[1]) < half-sendWindow {
			t.Fatalf("the 4 KiB stream has %d bytes and the 64 KiB one %d: one is more than a window (%d) below half", got[0], got[1], sendWindow)
		}
	}
	t.Logf("when the first stream finished: 4 KiB bookings %d bytes, 64 KiB bookings %d", got[0], got[1])
}
