// Package metalog is the durable substrate of the metadata plane: a
// segmented, CRC-checksummed write-ahead log of opaque records plus atomic
// point-in-time snapshots, with crash recovery that loads the newest valid
// snapshot and replays the log tail, truncating a torn final record.
//
// The log knows nothing about what a record means — the NameNode encodes its
// typed operation records into []byte payloads and replays them through its
// apply layer. What the log does own is durability and ordering:
//
//   - Append assigns each record a dense, strictly increasing LSN and
//     buffers it into the active segment. Appends from concurrent callers
//     serialize on one mutex; the byte order of the file is the LSN order.
//   - Durability is governed by a SyncPolicy. SyncAlways makes WaitDurable
//     block until an fsync covers the record — concurrent waiters are
//     batched behind a single fsync (group commit), so the cost of a flush
//     is amortized across every record appended while the previous flush
//     ran. SyncInterval fsyncs from a background ticker and WaitDurable
//     returns immediately (bounded data loss, near-in-memory latency).
//     SyncNone never fsyncs explicitly (benchmarking baseline).
//   - Snapshot writes the caller's serialized state to a temp file, fsyncs,
//     renames it into place, fsyncs the directory, and only then deletes the
//     log segments (and older snapshots) the new snapshot covers — so at
//     every instant the directory holds a recoverable history.
//   - Recovery scans snapshots newest-first until one passes its checksum,
//     then replays every record with a larger LSN from the segments in
//     order. A record whose header or checksum is invalid ends replay: the
//     segment is truncated at the last valid boundary and later segments are
//     dropped. Corruption never panics and never yields a half-applied
//     record.
package metalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval fsyncs from a background ticker every Options.SyncEvery.
	// Appends are buffered writes; a crash loses at most one interval.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes WaitDurable block until the record is fsynced,
	// batching concurrent waiters behind one fsync (group commit).
	SyncAlways
	// SyncNone never fsyncs explicitly; the OS flushes on close. The
	// benchmarking baseline and the weakest durability.
	SyncNone
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// ParseSyncPolicy maps a flag value to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("metalog: unknown sync policy %q (want always, interval or none)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the metadata directory; created if absent. Required.
	Dir string
	// Sync is the durability policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (default 25ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 16 MiB).
	SegmentBytes int64
	// FsyncObserver, when non-nil, receives the duration of every fsync —
	// the hook behind the metalog_fsync_seconds histogram.
	FsyncObserver func(time.Duration)
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	return o
}

// Stats is a point-in-time counter snapshot of the log.
type Stats struct {
	// Appends is the number of records appended this process lifetime.
	Appends uint64 `json:"appends"`
	// AppendedBytes counts payload bytes appended (excluding framing).
	AppendedBytes uint64 `json:"appended_bytes"`
	// Fsyncs counts explicit fsync calls on segment files.
	Fsyncs uint64 `json:"fsyncs"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// LastLSN is the newest assigned LSN (0 when the log is empty).
	LastLSN uint64 `json:"last_lsn"`
	// DurableLSN is the newest LSN known to be fsynced.
	DurableLSN uint64 `json:"durable_lsn"`
	// SnapshotLSN is the LSN covered by the newest snapshot (0 when none).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
}

// Errors returned by the package.
var (
	// ErrClosed indicates use of a closed log.
	ErrClosed = errors.New("metalog: log closed")
	// ErrTooLarge indicates a record payload above the sanity bound.
	ErrTooLarge = errors.New("metalog: record too large")
)

// maxRecordBytes is the sanity bound on one record's payload; anything
// larger in a segment header is treated as corruption.
const maxRecordBytes = 64 << 20

// recordHeaderLen is the framing prefix: u32 payload length, u64 LSN, u32
// CRC-32C over (LSN bytes || payload).
const recordHeaderLen = 16

// segment file framing.
const (
	segMagic      = "EARWAL01"
	segHeaderLen  = 16 // magic + u64 first-LSN
	snapMagic     = "EARSNAP1"
	snapHeaderLen = 24 // magic + u64 LSN + u32 payload length + u32 CRC
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRC checksums one record: the LSN bytes followed by the payload, so
// a torn or bit-flipped header is caught as well as a torn payload.
func recordCRC(lsn uint64, payload []byte) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], lsn)
	c := crc32.Update(0, crcTable, b[:])
	return crc32.Update(c, crcTable, payload)
}

// Log is a write-ahead log over one directory. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	// mu guards the writer state: the active segment file, its buffer, and
	// the LSN counter. fsync runs outside mu so appends proceed during it.
	mu       sync.Mutex
	f        *os.File
	buf      []byte // pending bytes not yet written to f
	segStart uint64 // first LSN of the active segment
	segSize  int64  // bytes written + buffered in the active segment
	lastLSN  uint64
	err      error // sticky failure; every later operation returns it
	closed   bool

	// syncMu serializes fsyncs; waiters queueing on it form the group
	// commit batch.
	syncMu  sync.Mutex
	durable atomic.Uint64

	snapLSN atomic.Uint64

	appends  atomic.Uint64
	appBytes atomic.Uint64
	fsyncs   atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the log directory and scans its segments
// and snapshots. The returned log is positioned for recovery: call Recover
// exactly once before Append.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("metalog: empty dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	return l, nil
}

// segmentName formats the file name of the segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016x.seg", lsn) }

// snapshotName formats the file name of the snapshot covering lsn.
func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// parseSeq extracts the hex sequence from a "prefix-%016x.suffix" name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	h := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	v, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSeqs returns the sorted sequence numbers of directory entries matching
// prefix/suffix.
func (l *Log) listSeqs(prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if v, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Recover loads the newest valid snapshot (if any) through restore, then
// replays every record with LSN greater than the snapshot's through replay,
// in LSN order. A torn or corrupted record ends replay: the containing
// segment is truncated at the last valid boundary and any later segments are
// deleted, so the next Append continues from the recovered LSN, always in a
// fresh segment (a recovered segment is never reopened for writing). Recover
// must be called exactly once, before the first Append; a log that recovered
// nothing starts empty at LSN 1.
func (l *Log) Recover(restore func(snapshot []byte) error, replay func(lsn uint64, payload []byte) error) error {
	snapLSN, snap, err := l.loadNewestSnapshot()
	if err != nil {
		return err
	}
	if snap != nil && restore != nil {
		if err := restore(snap); err != nil {
			return fmt.Errorf("metalog: snapshot restore: %w", err)
		}
	}
	l.snapLSN.Store(snapLSN)
	last, err := l.replaySegments(snapLSN, replay)
	if err != nil {
		return err
	}
	if last < snapLSN {
		last = snapLSN
	}
	l.mu.Lock()
	l.lastLSN = last
	l.mu.Unlock()
	l.durable.Store(last)
	if l.opts.Sync == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return nil
}

// loadNewestSnapshot returns the newest snapshot that passes its checksum,
// deleting nothing. A snapshot that fails validation is skipped in favor of
// the next older one.
func (l *Log) loadNewestSnapshot() (uint64, []byte, error) {
	seqs, err := l.listSeqs("snap-", ".snap")
	if err != nil {
		return 0, nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		lsn := seqs[i]
		payload, ok := readSnapshotFile(filepath.Join(l.opts.Dir, snapshotName(lsn)), lsn)
		if ok {
			return lsn, payload, nil
		}
	}
	return 0, nil, nil
}

// readSnapshotFile validates and returns one snapshot's payload.
func readSnapshotFile(path string, wantLSN uint64) ([]byte, bool) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < snapHeaderLen {
		return nil, false
	}
	if string(raw[:8]) != snapMagic {
		return nil, false
	}
	lsn := binary.LittleEndian.Uint64(raw[8:16])
	n := binary.LittleEndian.Uint32(raw[16:20])
	crc := binary.LittleEndian.Uint32(raw[20:24])
	if lsn != wantLSN || int(n) != len(raw)-snapHeaderLen {
		return nil, false
	}
	payload := raw[snapHeaderLen:]
	if recordCRC(lsn, payload) != crc {
		return nil, false
	}
	return payload, true
}

// replaySegments walks the segment files in order, invoking replay for every
// valid record with LSN > snapLSN, and repairs the tail in place: the first
// invalid record truncates its segment and deletes every later segment.
// It returns the last replayed (or skipped) LSN.
func (l *Log) replaySegments(snapLSN uint64, replay func(uint64, []byte) error) (uint64, error) {
	seqs, err := l.listSeqs("wal-", ".seg")
	if err != nil {
		return 0, err
	}
	last := uint64(0)
	for i, first := range seqs {
		path := filepath.Join(l.opts.Dir, segmentName(first))
		segLast, validLen, intact, err := replaySegment(path, first, snapLSN, last, replay)
		if err != nil {
			return 0, err
		}
		if segLast > last {
			last = segLast
		}
		if !intact {
			// Torn or corrupted record: truncate this segment at the last
			// valid boundary and drop everything after it.
			if err := os.Truncate(path, validLen); err != nil {
				return 0, fmt.Errorf("metalog: truncating torn segment: %w", err)
			}
			for _, gone := range seqs[i+1:] {
				if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(gone))); err != nil && !os.IsNotExist(err) {
					return 0, err
				}
			}
			break
		}
	}
	return last, nil
}

// replaySegment scans one segment file. It returns the last valid LSN seen,
// the byte length of the valid prefix, and whether the whole file was valid.
// Records with lsn <= snapLSN are skipped without invoking replay; an LSN
// that does not directly follow the previous record is treated as
// corruption.
func replaySegment(path string, firstLSN, snapLSN, prevLSN uint64, replay func(uint64, []byte) error) (last uint64, validLen int64, intact bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	if len(raw) < segHeaderLen || string(raw[:8]) != segMagic ||
		binary.LittleEndian.Uint64(raw[8:16]) != firstLSN {
		// Unreadable header: the whole segment is invalid. Keep the header
		// region so the file stays self-describing after truncation to zero
		// records.
		return 0, int64(min(len(raw), segHeaderLen)), false, nil
	}
	off := int64(segHeaderLen)
	last = prevLSN
	expect := firstLSN
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return last, off, true, nil
		}
		if len(rest) < recordHeaderLen {
			return last, off, false, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		lsn := binary.LittleEndian.Uint64(rest[4:12])
		crc := binary.LittleEndian.Uint32(rest[12:16])
		if n > maxRecordBytes || int64(recordHeaderLen)+int64(n) > int64(len(rest)) {
			return last, off, false, nil
		}
		payload := rest[recordHeaderLen : recordHeaderLen+int(n)]
		if lsn != expect || recordCRC(lsn, payload) != crc {
			return last, off, false, nil
		}
		if lsn > snapLSN && replay != nil {
			if err := replay(lsn, payload); err != nil {
				return 0, 0, false, fmt.Errorf("metalog: replaying lsn %d: %w", lsn, err)
			}
		}
		last = lsn
		expect = lsn + 1
		off += int64(recordHeaderLen) + int64(n)
	}
}

// Append assigns the next LSN to the payload and buffers it into the active
// segment, rotating segments as they fill. It returns once the record is in
// the log's write path — call WaitDurable (or rely on the interval syncer)
// for persistence. The payload is copied; the caller may reuse it.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.lastLSN + 1
	if l.f == nil {
		if err := l.openSegmentLocked(lsn); err != nil {
			l.err = err
			return 0, err
		}
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], lsn)
	binary.LittleEndian.PutUint32(hdr[12:16], recordCRC(lsn, payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.lastLSN = lsn
	l.segSize += int64(recordHeaderLen + len(payload))
	l.appends.Add(1)
	l.appBytes.Add(uint64(len(payload)))
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	return lsn, nil
}

// openSegmentLocked creates the segment whose first record will be firstLSN.
func (l *Log) openSegmentLocked(firstLSN uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(firstLSN)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segStart = firstLSN
	l.segSize = segHeaderLen
	return nil
}

// rotateLocked seals the active segment (flush + fsync + close) and leaves
// the writer unopened; the next Append opens the successor. Caller holds mu.
func (l *Log) rotateLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.fsyncFile(l.f); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if l.lastLSN > l.durable.Load() {
		l.durable.Store(l.lastLSN)
	}
	l.f = nil
	l.segSize = 0
	return nil
}

// flushLocked writes the buffered bytes to the file. Caller holds mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.f == nil {
		return errors.New("metalog: flush with no active segment")
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// fsyncFile syncs one file, feeding the observer and counters.
func (l *Log) fsyncFile(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	l.fsyncs.Add(1)
	if obs := l.opts.FsyncObserver; obs != nil {
		obs(time.Since(t0))
	}
	return err
}

// Sync flushes buffered records and fsyncs the active segment, advancing the
// durable LSN. Concurrent callers serialize; each fsync covers every record
// appended before it started (group commit).
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	target := l.lastLSN
	if target <= l.durable.Load() {
		l.mu.Unlock()
		return nil
	}
	if err := l.flushLocked(); err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	f := l.f
	l.mu.Unlock()
	return l.syncFile(f, target)
}

// syncFile fsyncs the segment file a Sync captured under mu (nil: nothing
// open) and advances the durable LSN to target. It runs outside mu, so a
// rotation can seal f first.
func (l *Log) syncFile(f *os.File, target uint64) error {
	if f != nil {
		if err := l.fsyncFile(f); err != nil {
			// A rotation that won the race for f sealed it under mu — flush,
			// fsync, durable LSN advanced, then close — so the records this
			// call set out to cover are already durable and the closed
			// handle is no failure of the log. (Close also syncs before it
			// closes the file.)
			l.mu.Lock()
			sealed := errors.Is(err, os.ErrClosed) && l.f != f
			if !sealed {
				l.err = err
			}
			l.mu.Unlock()
			if sealed {
				return nil
			}
			return err
		}
	}
	for {
		cur := l.durable.Load()
		if cur >= target || l.durable.CompareAndSwap(cur, target) {
			return nil
		}
	}
}

// WaitDurable returns once the record at lsn is fsynced. Under SyncAlways it
// drives the group commit: the caller either performs the fsync or rides on
// one a concurrent caller is performing. Under SyncInterval and SyncNone it
// returns immediately — durability is the ticker's (or the OS's) job.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.opts.Sync != SyncAlways {
		return nil
	}
	for l.durable.Load() < lsn {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// syncLoop is the SyncInterval background fsyncer.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.Sync() // sticky error surfaces on the next Append
		}
	}
}

// Snapshot atomically installs a point-in-time state covering every record
// up to and including lsn, then truncates the history it covers: segments
// whose records are all <= lsn and older snapshot files are deleted. The
// caller guarantees state reflects exactly the records [1, lsn].
func (l *Log) Snapshot(lsn uint64, state []byte) error {
	if len(state) > maxRecordBytes {
		return ErrTooLarge
	}
	// Seal the active segment so every record <= lsn is on disk before the
	// snapshot claims to cover it, and so segment deletion below never races
	// the writer's buffered bytes.
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if err := l.rotateLocked(); err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	tmp, err := os.CreateTemp(l.opts.Dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	var hdr [snapHeaderLen]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(state)))
	binary.LittleEndian.PutUint32(hdr[20:24], recordCRC(lsn, state))
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(state)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	final := filepath.Join(l.opts.Dir, snapshotName(lsn))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	if lsn > l.snapLSN.Load() {
		l.snapLSN.Store(lsn)
	}
	return l.truncateBefore(lsn)
}

// syncDir fsyncs the log directory so renames and deletions persist.
func (l *Log) syncDir() error {
	d, err := os.Open(l.opts.Dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// truncateBefore deletes snapshots older than lsn and segments whose records
// all precede or equal lsn (a segment is fully covered when its successor
// starts at or before lsn+1).
func (l *Log) truncateBefore(lsn uint64) error {
	snaps, err := l.listSeqs("snap-", ".snap")
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s < lsn {
			if err := os.Remove(filepath.Join(l.opts.Dir, snapshotName(s))); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	segs, err := l.listSeqs("wal-", ".seg")
	if err != nil {
		return err
	}
	l.mu.Lock()
	activeStart, active := l.segStart, l.f != nil
	l.mu.Unlock()
	for i, first := range segs {
		if active && first == activeStart {
			continue
		}
		next := uint64(0)
		if i+1 < len(segs) {
			next = segs[i+1]
		} else {
			next = l.LastLSN() + 1
		}
		if next <= lsn+1 {
			if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(first))); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return l.syncDir()
}

// LastLSN returns the newest assigned LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// DurableLSN returns the newest LSN known to be fsynced.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	segs, _ := l.listSeqs("wal-", ".seg")
	return Stats{
		Appends:       l.appends.Load(),
		AppendedBytes: l.appBytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Segments:      len(segs),
		LastLSN:       l.LastLSN(),
		DurableLSN:    l.durable.Load(),
		SnapshotLSN:   l.snapLSN.Load(),
	}
}

// Close flushes, fsyncs, and closes the log. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	err := l.Sync()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	<-l.done
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}
