package metalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openForTest opens a log in dir and runs an empty recovery so it is ready
// for appends.
func openForTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Recover(nil, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return l
}

// collect recovers the log in dir and returns the snapshot payload plus
// every replayed record in order.
func collect(t *testing.T, dir string, opts Options) (snap []byte, lsns []uint64, payloads [][]byte, l *Log) {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	err = l.Recover(
		func(s []byte) error { snap = append([]byte(nil), s...); return nil },
		func(lsn uint64, p []byte) error {
			lsns = append(lsns, lsn)
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		},
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return snap, lsns, payloads, l
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncAlways})
	want := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, lsns, payloads, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if snap != nil {
		t.Fatalf("unexpected snapshot: %q", snap)
	}
	if len(lsns) != 100 {
		t.Fatalf("replayed %d records, want 100", len(lsns))
	}
	for i := range lsns {
		if lsns[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: lsn=%d payload=%q, want lsn=%d payload=%q",
				i, lsns[i], payloads[i], i+1, want[i])
		}
	}
	if got := l2.LastLSN(); got != 100 {
		t.Fatalf("LastLSN = %d, want 100", got)
	}
}

func TestAppendContinuesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncAlways})
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, _, l2 := collect(t, dir, Options{Sync: SyncAlways})
	lsn, err := l2.Append([]byte("two"))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("lsn = %d, want 2", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	_, lsns, payloads, l3 := collect(t, dir, Options{})
	defer l3.Close()
	if len(lsns) != 2 || string(payloads[1]) != "two" {
		t.Fatalf("after reopen: lsns=%v payloads=%q", lsns, payloads)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record or two forces a rotation.
	l := openForTest(t, dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v (err %v)", segs, err)
	}
	_, lsns, _, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(lsns) != 20 || lsns[19] != 20 {
		t.Fatalf("replay across segments: got %d records, last %v", len(lsns), lsns)
	}
}

// TestSyncLosesRaceToRotation replays the interleaving step by step: a Sync
// captures the active segment and drops the lock, an Append rotates —
// sealing and closing that file — and only then does the Sync reach its
// fsync. The rotation already made the segment durable, so the closed
// handle must not become the log's sticky error.
func TestSyncLosesRaceToRotation(t *testing.T) {
	l := openForTest(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 64})
	defer l.Close()
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	f, target := l.f, l.lastLSN
	l.mu.Unlock()
	if _, err := l.Append(bytes.Repeat([]byte{1}, 64)); err != nil { // fills the segment
		t.Fatal(err)
	}
	if err := l.syncFile(f, target); err != nil {
		t.Fatalf("Sync of a segment a rotation already sealed: %v", err)
	}
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatalf("Append after the lost race: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.DurableLSN(), l.LastLSN(); got != want || want != 3 {
		t.Fatalf("durable = %d, last = %d, want both 3", got, want)
	}
}

// TestSyncRacesRotation runs Sync loops against appenders that rotate the
// segment every record or two (run under -race): no call may fail and the
// final Sync must leave everything durable.
func TestSyncRacesRotation(t *testing.T) {
	l := openForTest(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 64})
	defer l.Close()
	const appenders, perAppender, syncers = 2, 300, 2
	var appending, syncing sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, appenders+syncers)
	for s := 0; s < syncers; s++ {
		syncing.Add(1)
		go func() {
			defer syncing.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.Sync(); err != nil {
					errs <- fmt.Errorf("Sync: %w", err)
					return
				}
			}
		}()
	}
	for a := 0; a < appenders; a++ {
		appending.Add(1)
		go func() {
			defer appending.Done()
			for i := 0; i < perAppender; i++ {
				if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
					errs <- fmt.Errorf("Append: %w", err)
					return
				}
			}
		}()
	}
	appending.Wait()
	close(stop)
	syncing.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("final Sync: %v", err)
	}
	if got, want := l.DurableLSN(), l.LastLSN(); got != want || want != appenders*perAppender {
		t.Fatalf("durable = %d, last = %d, want both %d", got, want, appenders*perAppender)
	}
}

func TestSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("state@10")
	if err := l.Snapshot(10, state); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Everything up to LSN 10 is covered; all sealed segments should be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		first, ok := parseSeq(filepath.Base(s), "wal-", ".seg")
		if !ok {
			t.Fatalf("stray segment name %q", s)
		}
		if first <= 10 {
			// Only acceptable if it is the still-active (empty) tail segment.
			if st, err := os.Stat(s); err == nil && st.Size() > segHeaderLen {
				t.Fatalf("segment %q with records survived truncation", s)
			}
		}
	}
	// Append more after the snapshot.
	for i := 10; i < 15; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap, lsns, _, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if !bytes.Equal(snap, state) {
		t.Fatalf("snapshot = %q, want %q", snap, state)
	}
	if len(lsns) != 5 || lsns[0] != 11 || lsns[4] != 15 {
		t.Fatalf("tail replay lsns = %v, want [11..15]", lsns)
	}
	// Older snapshots are deleted by a newer one.
	if err := l2.Snapshot(15, []byte("state@15")); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots after second checkpoint: %v, want exactly one", snaps)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(3, []byte("good@3")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write a newer snapshot with a bad CRC.
	bad := make([]byte, snapHeaderLen+4)
	copy(bad[:8], snapMagic)
	binary.LittleEndian.PutUint64(bad[8:16], 5)
	binary.LittleEndian.PutUint32(bad[16:20], 4)
	binary.LittleEndian.PutUint32(bad[20:24], 0xdeadbeef)
	copy(bad[snapHeaderLen:], "evil")
	if err := os.WriteFile(filepath.Join(dir, snapshotName(5)), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, lsns, _, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if string(snap) != "good@3" {
		t.Fatalf("snapshot = %q, want fallback to good@3", snap)
	}
	if len(lsns) != 3 || lsns[0] != 4 {
		t.Fatalf("tail replay = %v, want [4 5 6]", lsns)
	}
}

// TestCloseAfterFailedRecover: a log whose Recover failed (the caller
// refused its snapshot) closes instead of waiting for a sync loop that never
// started.
func TestCloseAfterFailedRecover(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncInterval})
	if err := l.Snapshot(0, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	if err := l.Recover(func([]byte) error { return refused }, nil); !errors.Is(err, refused) {
		t.Fatalf("Recover: %v, want the refusal", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close after a failed Recover did not return")
	}
}

// tornVariant describes one way to damage the final record.
type tornVariant struct {
	name   string
	mangle func(seg []byte) []byte
}

func TestTornTailTruncation(t *testing.T) {
	variants := []tornVariant{
		{"truncated-mid-payload", func(seg []byte) []byte { return seg[:len(seg)-3] }},
		{"truncated-mid-header", func(seg []byte) []byte { return seg[:len(seg)-3-8] }},
		{"payload-bit-flip", func(seg []byte) []byte {
			out := append([]byte(nil), seg...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"header-length-blowup", func(seg []byte) []byte {
			out := append([]byte(nil), seg...)
			// Find the last record's header: records are 8-byte payloads here.
			off := len(out) - (recordHeaderLen + 8)
			binary.LittleEndian.PutUint32(out[off:off+4], 1<<30)
			return out
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openForTest(t, dir, Options{Sync: SyncAlways})
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if len(segs) != 1 {
				t.Fatalf("want one segment, got %v", segs)
			}
			raw, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[0], v.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// Recovery must survive the damage, keep the intact prefix, and
			// truncate the tail.
			_, lsns, _, l2 := collect(t, dir, Options{Sync: SyncAlways})
			if len(lsns) != 4 || lsns[3] != 4 {
				t.Fatalf("replayed %v, want the 4-record intact prefix", lsns)
			}
			// The log keeps working: the next append takes LSN 5 and survives
			// another recovery.
			lsn, err := l2.Append([]byte("rec-after-tear"))
			if err != nil {
				t.Fatalf("Append after tear: %v", err)
			}
			if lsn != 5 {
				t.Fatalf("post-tear lsn = %d, want 5", lsn)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, lsns3, payloads3, l3 := collect(t, dir, Options{})
			defer l3.Close()
			if len(lsns3) != 5 || string(payloads3[4]) != "rec-after-tear" {
				t.Fatalf("after re-append: lsns=%v payloads=%q", lsns3, payloads3)
			}
		})
	}
}

func TestUnflushedTailLostUnderSyncNone(t *testing.T) {
	// With SyncNone nothing forces the buffer out until Close; a log that is
	// abandoned (no Close) may lose the buffered tail but must still recover
	// a valid prefix. We simulate the crash by never flushing: appends stay
	// in l.buf, so the file holds only the segment header.
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close. The new process recovers an empty (or prefix)
	// log without error.
	_, lsns, _, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(lsns) != 0 {
		t.Fatalf("unflushed records should be lost, got %v", lsns)
	}
}

func TestGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					errs <- err
					return
				}
				if l.DurableLSN() < lsn {
					errs <- fmt.Errorf("WaitDurable(%d) returned with durable=%d", lsn, l.DurableLSN())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != writers*perWriter {
		t.Fatalf("LastLSN = %d, want %d", got, writers*perWriter)
	}
	st := l.Stats()
	// Group commit: far fewer fsyncs than records is the whole point, but
	// with 8 writers racing we can only assert it stayed below the total.
	if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs = %d for %d appends; group commit broken", st.Fsyncs, st.Appends)
	}
}

func TestIntervalSyncAdvancesDurable(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	defer l.Close()
	lsn, err := l.Append([]byte("tick"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil { // returns immediately
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("interval syncer never advanced durable past %d", l.DurableLSN())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFsyncObserver(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	calls := 0
	l := openForTest(t, dir, Options{
		Sync:          SyncAlways,
		FsyncObserver: func(time.Duration) { mu.Lock(); calls++; mu.Unlock() },
	})
	lsn, err := l.Append([]byte("observed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("fsync observer never called")
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); err != ErrClosed {
		t.Fatalf("Append on closed log: err = %v, want ErrClosed", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	dir := t.TempDir()
	l := openForTest(t, dir, Options{})
	defer l.Close()
	if _, err := l.Append(make([]byte, maxRecordBytes+1)); err != ErrTooLarge {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"", SyncInterval, true},
		{"none", SyncNone, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
