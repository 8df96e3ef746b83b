// Package fabric is the bandwidth-shaped network used by the mini-HDFS
// testbed (the stand-in for the paper's 13-machine 1 GbE cluster). Every
// node has full-duplex NIC links and every rack shares full-duplex
// core-facing links; a transfer moves real bytes and blocks the caller for
// the time dictated by token-bucket shaping on every link of its path, so
// cross-rack contention emerges exactly as on the paper's testbed. An
// injector can consume link capacity the way the paper's Iperf UDP streams
// do (Experiment A.1).
package fabric

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// Errors returned by the package.
var (
	// ErrInvalidRate indicates a non-positive bandwidth, or cross traffic
	// that would leave a link none.
	ErrInvalidRate = errors.New("fabric: invalid rate")
	// ErrStreamClosed indicates a Send on a closed stream.
	ErrStreamClosed = errors.New("fabric: stream closed")
)

// ChunkBytes is the shaping granularity: the largest booking a stream makes.
// Flows sharing a link interleave at no coarser grain, approximating fair
// sharing, and a canceled stream overshoots by at most sendWindow bytes of
// reservations. It is also the largest slice a stage run of internal/hdfs
// (replication pipeline, chain fold) walks a block in.
const ChunkBytes = 64 << 10

// sendWindow is how many booked bytes a stream may hold on its links that
// have not arrived yet: two chunks, the one on the wire and one queued behind
// it, or as many smaller bookings as fit in their bytes. Every timer
// oversleeps, and with the next booking already queued the link stays busy
// while the host wakes up. Counted in bytes, the window gives streams sharing
// a link the same byte share whatever size they book in; a booking is at most
// half the window, so an empty stream always has room for one.
const sendWindow = 2 * ChunkBytes

// LinkClass groups links by their position in the topology, the grouping
// Snapshot and the telemetry labels report.
type LinkClass string

// Link classes. Node NIC links carry every transfer (the intra-rack hops);
// rack links carry only the cross-rack portion through the core.
const (
	// ClassNodeUp is a node NIC transmitting toward the rack switch.
	ClassNodeUp LinkClass = "node-up"
	// ClassNodeDown is a node NIC receiving from the rack switch.
	ClassNodeDown LinkClass = "node-down"
	// ClassRackUp is a rack uplink into the core.
	ClassRackUp LinkClass = "rack-up"
	// ClassRackDown is a rack downlink out of the core.
	ClassRackDown LinkClass = "rack-down"
	// ClassDisk is a node's local disk (EnableDisk).
	ClassDisk LinkClass = "disk"
	// ClassOther marks standalone links built with NewLink.
	ClassOther LinkClass = "other"
)

// Link is a token-bucket shaped unidirectional link.
type Link struct {
	name  string
	class LinkClass

	mu       sync.Mutex
	rate     float64 // bytes per second
	nextFree time.Time
	moved    int64         // total bytes shaped through the link
	waited   time.Duration // total shaping delay imposed on callers
	// injected is the cross traffic InjectTraffic has put on the link, bytes
	// per second, always below rate: it takes its rate off the top and
	// reservations are served at what is left. The bytes it carries are added
	// to moved lazily; accrued is the instant they are counted up to.
	injected float64
	accrued  time.Time

	// Telemetry handles, set by SetTelemetry; nil when unobserved.
	mBytes *telemetry.Metric
	mWait  *telemetry.Metric
}

// NewLink creates a link with the given rate in bytes per second.
func NewLink(name string, bytesPerSec float64) (*Link, error) {
	return newLink(name, ClassOther, bytesPerSec)
}

// newLink creates a classified link.
func newLink(name string, class LinkClass, bytesPerSec float64) (*Link, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("%w: %q at %g B/s", ErrInvalidRate, name, bytesPerSec)
	}
	return &Link{name: name, class: class, rate: bytesPerSec}, nil
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Class returns the link's topology class.
func (l *Link) Class() LinkClass { return l.class }

// Rate returns the configured rate in bytes per second.
func (l *Link) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// SetRate changes the link rate (used to model varying effective bandwidth).
func (l *Link) SetRate(bytesPerSec float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !(bytesPerSec > max(l.injected, 0)) {
		return fmt.Errorf("%w: %q at %g B/s, %g B/s of it injected", ErrInvalidRate, l.name, bytesPerSec, l.injected)
	}
	l.rate = bytesPerSec
	return nil
}

// Moved returns the total bytes shaped through the link, injected cross
// traffic included.
func (l *Link) Moved() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accrue(time.Now())
	return l.moved
}

// inject puts delta bytes per second of cross traffic on the link, or takes
// them off (delta < 0). Cross traffic must leave the link something to carry
// payload with.
func (l *Link) inject(delta float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !(l.injected+delta < l.rate) {
		return fmt.Errorf("%w: %g B/s injected into %q at %g B/s", ErrInvalidRate, l.injected+delta, l.name, l.rate)
	}
	l.accrue(time.Now())
	l.injected += delta
	return nil
}

// accrue counts the cross traffic the link has carried since the last call,
// in whole bytes; the fraction left over stays ahead of accrued. The caller
// holds l.mu.
func (l *Link) accrue(now time.Time) {
	if l.injected <= 0 {
		l.accrued = now
		return
	}
	n := int64(l.injected * now.Sub(l.accrued).Seconds())
	if n <= 0 {
		return
	}
	l.accrued = l.accrued.Add(time.Duration(float64(n) / l.injected * float64(time.Second)))
	l.moved += n
	if l.mBytes != nil {
		l.mBytes.Add(float64(n))
	}
}

// Waited returns the cumulative token-bucket delay the link has imposed:
// the sum over reservations of how long each caller had to wait for its
// bytes to clear the link — from the instant they were ready (the booking,
// or the earlier instant a back-dated booking names), or, for bytes a stream
// queued behind its own previous booking, from the instant that booking
// cleared.
func (l *Link) Waited() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waited
}

// setTelemetry attaches per-link counters; nil detaches.
func (l *Link) setTelemetry(bytes, wait *telemetry.Metric) {
	l.mu.Lock()
	l.mBytes, l.mWait = bytes, wait
	l.mu.Unlock()
}

// reserve books n bytes of capacity and returns the instant the bytes will
// have "arrived" (cleared the link). ready is the instant the bytes were
// ready to leave (the zero time: now). The link serves them from the later
// of its queue tail and ready, and never from later than now: a booking can
// reclaim link time that went idle while its sender was waking up, but never
// time another booking holds, and it leaves no hole in the future. behind is
// when the caller's previous reservation clears this link, for a caller that
// books ahead of its own arrivals (the zero time otherwise). The wait runs
// from the later of behind and ready: bytes queued behind the caller's own
// have waited since those cleared, so no interval is counted twice in Waited.
func (l *Link) reserve(n int, behind, ready time.Time) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.accrue(now)
	if ready.IsZero() || ready.After(now) {
		ready = now
	}
	if l.nextFree.Before(ready) {
		l.nextFree = ready
	}
	l.nextFree = l.nextFree.Add(time.Duration(float64(n) / (l.rate - l.injected) * float64(time.Second)))
	l.moved += int64(n)
	if behind.Before(ready) {
		behind = ready
	}
	wait := l.nextFree.Sub(behind)
	l.waited += wait
	if l.mBytes != nil {
		l.mBytes.Add(float64(n))
	}
	if l.mWait != nil {
		l.mWait.Add(wait.Seconds())
	}
	return l.nextFree
}

// Fabric wires the links of a cluster topology.
type Fabric struct {
	top *topology.Topology

	nodeUp   []*Link
	nodeDown []*Link
	rackUp   []*Link
	rackDown []*Link
	// disk, when non-nil, shapes local (same-node) reads: on the paper's
	// testbed a local block read costs a SATA-disk pass comparable to one
	// network transfer, which matters when the encoder already holds the
	// blocks it encodes.
	disk []*Link

	crossRack int64 // bytes, updated atomically under mu
	intraRack int64
	mu        sync.Mutex

	// injectors tracks running traffic injectors so Close can stop them
	// (guarded by mu).
	injectors map[*Injector]struct{}

	// Aggregate telemetry handles, set by SetTelemetry (guarded by mu).
	mCross       *telemetry.Metric
	mIntra       *telemetry.Metric
	mStreamsOpen *telemetry.Metric // fabric_streams_active gauge
	mStreamsTot  *telemetry.Metric // fabric_streams_total counter

	// journal, when non-nil, receives transfer-started/-finished events with
	// the link path of every stream (guarded by mu; nil journals no-op).
	journal *events.Journal

	// acct, when non-nil, receives a per-tenant copy of every payload byte
	// the fabric books in its cross-/intra-rack counters (guarded by mu; a
	// nil table no-ops). Because the charge happens at the same accounting
	// point, summing the table over tenants reproduces the fabric totals
	// exactly.
	acct *tenant.Table
}

// New builds a fabric where every node NIC and every rack core link runs at
// the given rate (bytes per second), mirroring the paper's uniform 1 Gb/s
// testbed and the Experiment B.2(c) single link-bandwidth knob.
func New(top *topology.Topology, bytesPerSec float64) (*Fabric, error) {
	f := &Fabric{
		top:       top,
		nodeUp:    make([]*Link, top.Nodes()),
		nodeDown:  make([]*Link, top.Nodes()),
		rackUp:    make([]*Link, top.Racks()),
		rackDown:  make([]*Link, top.Racks()),
		injectors: make(map[*Injector]struct{}),
	}
	for i := 0; i < top.Nodes(); i++ {
		var err error
		if f.nodeUp[i], err = newLink(fmt.Sprintf("node%d.up", i), ClassNodeUp, bytesPerSec); err != nil {
			return nil, err
		}
		if f.nodeDown[i], err = newLink(fmt.Sprintf("node%d.down", i), ClassNodeDown, bytesPerSec); err != nil {
			return nil, err
		}
	}
	for r := 0; r < top.Racks(); r++ {
		var err error
		if f.rackUp[r], err = newLink(fmt.Sprintf("rack%d.up", r), ClassRackUp, bytesPerSec); err != nil {
			return nil, err
		}
		if f.rackDown[r], err = newLink(fmt.Sprintf("rack%d.down", r), ClassRackDown, bytesPerSec); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// SetAllRates changes every network link's rate (disk rates are separate).
// Experiments use it to pre-populate data at full speed before throttling
// to the measured configuration.
func (f *Fabric) SetAllRates(bytesPerSec float64) error {
	for _, group := range [][]*Link{f.nodeUp, f.nodeDown, f.rackUp, f.rackDown} {
		for _, l := range group {
			if err := l.SetRate(bytesPerSec); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetNodeRate changes both NIC links of one node, modeling a degraded or
// throttled NIC (the health plane's fault-injection knob). Disk rates are
// unaffected.
func (f *Fabric) SetNodeRate(n topology.NodeID, bytesPerSec float64) error {
	if n < 0 || int(n) >= f.top.Nodes() {
		return fmt.Errorf("%w: %d", topology.ErrUnknownNode, n)
	}
	if err := f.nodeUp[n].SetRate(bytesPerSec); err != nil {
		return err
	}
	return f.nodeDown[n].SetRate(bytesPerSec)
}

// NodeRate returns the configured rate of the node's uplink NIC.
func (f *Fabric) NodeRate(n topology.NodeID) (float64, error) {
	if n < 0 || int(n) >= f.top.Nodes() {
		return 0, fmt.Errorf("%w: %d", topology.ErrUnknownNode, n)
	}
	return f.nodeUp[n].Rate(), nil
}

// EnableDisk attaches a shaped disk to every node: local (same-node)
// transfers thereafter cost bytes/rate seconds instead of being free.
func (f *Fabric) EnableDisk(bytesPerSec float64) error {
	disks := make([]*Link, f.top.Nodes())
	for i := range disks {
		l, err := newLink(fmt.Sprintf("node%d.disk", i), ClassDisk, bytesPerSec)
		if err != nil {
			return err
		}
		disks[i] = l
	}
	f.disk = disks
	return nil
}

// SetDiskRates changes every disk's rate; a no-op when disks are disabled.
func (f *Fabric) SetDiskRates(bytesPerSec float64) error {
	for _, l := range f.disk {
		if err := l.SetRate(bytesPerSec); err != nil {
			return err
		}
	}
	return nil
}

// CrossRackBytes returns cumulative cross-rack payload bytes.
func (f *Fabric) CrossRackBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crossRack
}

// IntraRackBytes returns cumulative intra-rack payload bytes.
func (f *Fabric) IntraRackBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.intraRack
}

// LinkStat is one link's totals in a Snapshot.
type LinkStat struct {
	Name            string
	Class           LinkClass
	RateBytesPerSec float64
	MovedBytes      int64
	WaitSeconds     float64
}

// Snapshot is a consistent-enough point-in-time view of every link's byte
// and wait totals, grouped by class, plus the payload-level cross-rack vs
// intra-rack split. Subtract two snapshots with Sub to measure one
// operation's traffic.
type Snapshot struct {
	Links            []LinkStat
	ClassBytes       map[LinkClass]int64
	ClassWaitSeconds map[LinkClass]float64
	CrossRackBytes   int64
	IntraRackBytes   int64
}

// Snapshot captures every link's totals. Links appear in a stable order:
// node NICs, rack links, then disks.
func (f *Fabric) Snapshot() Snapshot {
	s := Snapshot{
		ClassBytes:       make(map[LinkClass]int64),
		ClassWaitSeconds: make(map[LinkClass]float64),
	}
	for _, group := range [][]*Link{f.nodeUp, f.nodeDown, f.rackUp, f.rackDown, f.disk} {
		for _, l := range group {
			l.mu.Lock()
			l.accrue(time.Now())
			st := LinkStat{
				Name:            l.name,
				Class:           l.class,
				RateBytesPerSec: l.rate,
				MovedBytes:      l.moved,
				WaitSeconds:     l.waited.Seconds(),
			}
			l.mu.Unlock()
			s.Links = append(s.Links, st)
			s.ClassBytes[st.Class] += st.MovedBytes
			s.ClassWaitSeconds[st.Class] += st.WaitSeconds
		}
	}
	f.mu.Lock()
	s.CrossRackBytes = f.crossRack
	s.IntraRackBytes = f.intraRack
	f.mu.Unlock()
	return s
}

// Sub returns the delta s - prev, matching links by name. Links absent from
// prev (e.g. disks enabled in between) keep their full totals.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	prevByName := make(map[string]LinkStat, len(prev.Links))
	for _, l := range prev.Links {
		prevByName[l.Name] = l
	}
	out := Snapshot{
		ClassBytes:       make(map[LinkClass]int64),
		ClassWaitSeconds: make(map[LinkClass]float64),
		CrossRackBytes:   s.CrossRackBytes - prev.CrossRackBytes,
		IntraRackBytes:   s.IntraRackBytes - prev.IntraRackBytes,
	}
	for _, l := range s.Links {
		p := prevByName[l.Name]
		d := LinkStat{
			Name:            l.Name,
			Class:           l.Class,
			RateBytesPerSec: l.RateBytesPerSec,
			MovedBytes:      l.MovedBytes - p.MovedBytes,
			WaitSeconds:     l.WaitSeconds - p.WaitSeconds,
		}
		out.Links = append(out.Links, d)
		out.ClassBytes[d.Class] += d.MovedBytes
		out.ClassWaitSeconds[d.Class] += d.WaitSeconds
	}
	return out
}

// SetTelemetry publishes the fabric's counters into the registry:
// fabric_bytes_total{locality} for the payload-level cross/intra split and
// fabric_link_bytes_total / fabric_link_wait_seconds_total{link,class} per
// link. Call it before traffic flows; totals accumulated earlier are not
// backfilled.
func (f *Fabric) SetTelemetry(reg *telemetry.Registry) {
	bytes := reg.Counter("fabric_bytes_total",
		"Payload bytes transferred, split by rack locality.", "locality")
	linkBytes := reg.Counter("fabric_link_bytes_total",
		"Bytes shaped through each fabric link.", "link", "class")
	linkWait := reg.Counter("fabric_link_wait_seconds_total",
		"Cumulative token-bucket shaping delay imposed by each link.", "link", "class")
	streamsOpen := reg.Gauge("fabric_streams_active",
		"Fabric streams currently open (pipeline hops, gathers, reads in flight).").With()
	streamsTot := reg.Counter("fabric_streams_total",
		"Fabric streams opened since startup.").With()
	f.mu.Lock()
	f.mCross = bytes.With("cross-rack")
	f.mIntra = bytes.With("intra-rack")
	f.mStreamsOpen = streamsOpen
	f.mStreamsTot = streamsTot
	f.mu.Unlock()
	for _, group := range [][]*Link{f.nodeUp, f.nodeDown, f.rackUp, f.rackDown, f.disk} {
		for _, l := range group {
			l.setTelemetry(
				linkBytes.With(l.name, string(l.class)),
				linkWait.With(l.name, string(l.class)),
			)
		}
	}
}

// SetJournal installs the cluster event journal: every stream thereafter
// publishes transfer-started on open and transfer-finished (with the bytes
// delivered and the link path taken) on close. A nil journal detaches.
func (f *Fabric) SetJournal(j *events.Journal) {
	f.mu.Lock()
	f.journal = j
	f.mu.Unlock()
}

// SetAccounting installs the per-tenant accounting table: every stream
// thereafter charges its payload bytes (split by rack locality) to the
// tenant carried by the context it was opened under. A nil table detaches.
func (f *Fabric) SetAccounting(t *tenant.Table) {
	f.mu.Lock()
	f.acct = t
	f.mu.Unlock()
}

// linkPath renders the traversed links as "node0.up>rack0.up>rack1.down>...",
// the event journal's link-path annotation.
func linkPath(links []*Link) string {
	if len(links) == 0 {
		return ""
	}
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.name
	}
	return strings.Join(names, ">")
}

// path returns the links a src->dst transfer traverses.
func (f *Fabric) path(src, dst topology.NodeID) ([]*Link, bool, error) {
	srcRack, err := f.top.RackOf(src)
	if err != nil {
		return nil, false, err
	}
	dstRack, err := f.top.RackOf(dst)
	if err != nil {
		return nil, false, err
	}
	links := []*Link{f.nodeUp[src], f.nodeDown[dst]}
	cross := srcRack != dstRack
	if cross {
		links = append(links, f.rackUp[srcRack], f.rackDown[dstRack])
	}
	return links, cross, nil
}

// SleepUntil blocks until the instant t or until the context is done,
// returning the context's error in the latter case. It and SleepUntilExact
// are the functions the data path sleeps in: a Stream books bytes and reports
// when they arrive, and whoever needs them sleeps here until then. It may
// oversleep: an idle Go process waits for its timers in whole milliseconds of
// the netpoller, so a wait ends up to a millisecond late, which a caller that
// books ahead of its arrivals or back-dates its bookings absorbs.
func SleepUntil(ctx context.Context, t time.Time) error {
	return sleepUntil(ctx, t, false)
}

// SleepUntilExact is SleepUntil for a wait whose end a caller is timing, the
// last arrival of an operation: it ends within tens of microseconds of t
// instead of up to a millisecond late. It waits on the same Go timer, never
// returning before t; on Linux it also arms a timerfd registered with the
// runtime's poller for the same instant (wake_linux.go), which wakes the
// poller on time so that the runtime fires the timer then. Without a timerfd
// it is SleepUntil. Each exact wait costs a few system calls, so the data
// path keeps it for the waits that end an operation.
func SleepUntilExact(ctx context.Context, t time.Time) error {
	return sleepUntil(ctx, t, true)
}

// sleepUntil is SleepUntil, and SleepUntilExact when exact is set.
func sleepUntil(ctx context.Context, t time.Time, exact bool) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	if exact {
		if w := armWake(t); w != nil {
			defer w.release()
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// booking is one chunk a stream has reserved on every link of its path.
type booking struct {
	arrival time.Time // when the chunk has cleared the slowest link
	bytes   int
}

// Stream is one open src->dst flow over the shaped path. Book reserves
// payload bytes chunk by chunk on every link and reports when they arrive;
// Send is Book plus the sleep until then. A stream holds at most sendWindow
// booked bytes that have not arrived, so concurrent streams sharing a link
// interleave at no coarser grain than ChunkBytes and split it by bytes (the
// token bucket serves reservations FIFO; no stream is more than the window
// ahead) and a cancellation leaves at most the window booked but
// undelivered. Bytes count as delivered — Sent, the
// locality counters, tenant charges, the journal's transfer-finished — once
// their arrival instant has passed, never at the booking. A stream to the
// same node is shaped by the node's disk when EnableDisk was called and is
// otherwise instantaneous. Streams carry no payload themselves: the caller
// owns the bytes and copies them at most once per delivered replica. One
// goroutine may Book while another sleeps on the arrivals and closes.
type Stream struct {
	f      *Fabric
	src    topology.NodeID
	dst    topology.NodeID
	links  []*Link
	cross  bool
	local  bool
	trace  uint64 // trace ID adopted from the opening context
	tenant string // accounting identity adopted from the opening context
	opened time.Time

	mu     sync.Mutex
	sent   int64
	closed bool
	// queued holds the bookings that have not been counted as delivered,
	// oldest first, and queuedBytes their bytes; behind[i] is when the latest
	// booking clears links[i].
	queued      []booking
	queuedBytes int
	behind      []time.Time
}

// OpenStream validates the path and registers an open stream from src to
// dst. The caller must Close it. When the context carries a telemetry span
// (the data path attaches its operation span), the stream's journal events
// are stamped with that span's trace ID, tying fabric activity to the
// end-to-end request.
func (f *Fabric) OpenStream(ctx context.Context, src, dst topology.NodeID) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Stream{
		f: f, src: src, dst: dst,
		trace:  telemetry.TraceFromContext(ctx),
		tenant: tenant.FromContext(ctx),
		opened: time.Now(),
	}
	if src == dst {
		if _, err := f.top.RackOf(src); err != nil {
			return nil, err
		}
		s.local = true
		if f.disk != nil {
			s.links = []*Link{f.disk[src]}
		}
	} else {
		links, cross, err := f.path(src, dst)
		if err != nil {
			return nil, err
		}
		s.links, s.cross = links, cross
	}
	s.behind = make([]time.Time, len(s.links))
	f.mu.Lock()
	open, tot, j := f.mStreamsOpen, f.mStreamsTot, f.journal
	f.mu.Unlock()
	if open != nil {
		open.Inc()
	}
	if tot != nil {
		tot.Inc()
	}
	if j != nil {
		e := events.New(events.TransferStarted, "fabric")
		e.Node, e.Peer, e.Cross = src, dst, s.cross
		e.Detail = linkPath(s.links)
		e.Trace = s.trace
		j.Publish(e)
	}
	return s, nil
}

// Book reserves n payload bytes on every link of the path, chunk by chunk,
// and returns the instant the last of them arrives. ready is the instant the
// bytes were ready to leave, no earlier than the stream's OpenStream (the
// zero time: now): each link serves them from the later of its queue tail and
// ready, never from later than the booking, so a sender that books late
// still gets the link time it left idle (Link.reserve). Book returns as soon
// as the last chunk is queued, blocking only while the stream's unarrived
// bookings leave the window no room for the next chunk. A canceled context or
// a closed stream ends it with bytes of chunks already reserved still booked
// on the links (at most the window) and not counted as delivered.
func (s *Stream) Book(ctx context.Context, n int, ready time.Time) (arrival time.Time, err error) {
	if n < 0 {
		return time.Time{}, fmt.Errorf("fabric: negative send of %d bytes", n)
	}
	if !ready.IsZero() && ready.Before(s.opened) {
		ready = s.opened
	}
	for off := 0; off < n; off += ChunkBytes {
		if arrival, err = s.bookChunk(ctx, min(ChunkBytes, n-off), ready); err != nil {
			return time.Time{}, err
		}
	}
	return arrival, nil
}

// Room reports, without blocking, when n more bytes (at most ChunkBytes) fit
// the stream's window: the zero time when they fit now, so that a Book of n
// bytes does not wait, and otherwise the instant the oldest unarrived booking
// arrives, the earliest at which they may.
func (s *Stream) Room(n int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settle()
	if len(s.queued) == 0 || s.queuedBytes+n <= sendWindow {
		return time.Time{}
	}
	return s.queued[0].arrival
}

// bookChunk waits for room in the window, reserves one chunk of c bytes
// ready at ready on every link and queues the booking.
func (s *Stream) bookChunk(ctx context.Context, c int, ready time.Time) (time.Time, error) {
	for {
		s.mu.Lock()
		// The context first: a stream closed under a canceled run reports the
		// cancellation, not the close it caused.
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return time.Time{}, err
		}
		if s.closed {
			s.mu.Unlock()
			return time.Time{}, fmt.Errorf("%w: %d->%d", ErrStreamClosed, s.src, s.dst)
		}
		s.settle()
		if s.queuedBytes+c <= sendWindow {
			break
		}
		oldest := s.queued[0].arrival
		s.mu.Unlock()
		if err := SleepUntil(ctx, oldest); err != nil {
			return time.Time{}, err
		}
	}
	defer s.mu.Unlock()
	var arrival time.Time
	for i, l := range s.links {
		s.behind[i] = l.reserve(c, s.behind[i], ready)
		if s.behind[i].After(arrival) {
			arrival = s.behind[i]
		}
	}
	s.queued = append(s.queued, booking{arrival, c})
	s.queuedBytes += c
	return arrival, nil
}

// Send shapes n payload bytes through the stream, blocking until they have
// arrived, and wakes on time when they have (SleepUntilExact). It returns the
// context's error if canceled mid-flight; see Book for what stays booked.
func (s *Stream) Send(ctx context.Context, n int) error {
	arrival, err := s.Book(ctx, n, time.Time{})
	if err != nil {
		return err
	}
	// The wait the caller times, so it wakes on time. Zero-byte sends still
	// honor cancellation: the sleep reports it.
	if err := SleepUntilExact(ctx, arrival); err != nil {
		return err
	}
	s.mu.Lock()
	s.settle()
	s.mu.Unlock()
	return nil
}

// settle counts every queued booking whose arrival has passed as delivered.
// The caller holds s.mu.
func (s *Stream) settle() {
	if len(s.queued) == 0 {
		return
	}
	now := time.Now()
	arrived, bytes := 0, 0
	for arrived < len(s.queued) && !s.queued[arrived].arrival.After(now) {
		bytes += s.queued[arrived].bytes
		arrived++
	}
	if arrived == 0 {
		return
	}
	s.queued = s.queued[:copy(s.queued, s.queued[arrived:])]
	s.queuedBytes -= bytes
	s.sent += int64(bytes)
	s.account(bytes)
}

// account books c delivered payload bytes in the locality counters. Local
// (same-node) traffic is disk activity, not network payload.
func (s *Stream) account(c int) {
	if s.local {
		return
	}
	s.f.mu.Lock()
	var m *telemetry.Metric
	if s.cross {
		s.f.crossRack += int64(c)
		m = s.f.mCross
	} else {
		s.f.intraRack += int64(c)
		m = s.f.mIntra
	}
	acct := s.f.acct
	s.f.mu.Unlock()
	if m != nil {
		m.Add(float64(c))
	}
	acct.ChargeFabric(s.tenant, s.cross, int64(c))
}

// Cross reports whether the stream's path crosses the rack core. Chained
// transfers (the pipelined encoder's partial-sum hops) use it to attribute
// their bytes to the link class they actually traversed.
func (s *Stream) Cross() bool { return s.cross }

// Sent returns the payload bytes delivered so far: those whose arrival
// instant has passed.
func (s *Stream) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settle()
	return s.sent
}

// Close releases the stream. Bookings that have not arrived by now are never
// counted as delivered. It is idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.settle()
	s.queued, s.queuedBytes = nil, 0
	sent := s.sent
	s.mu.Unlock()
	s.f.mu.Lock()
	open, j := s.f.mStreamsOpen, s.f.journal
	s.f.mu.Unlock()
	if open != nil {
		open.Dec()
	}
	if j != nil {
		e := events.New(events.TransferFinished, "fabric")
		e.Node, e.Peer, e.Cross, e.Bytes = s.src, s.dst, s.cross, sent
		e.Detail = linkPath(s.links)
		e.Trace = s.trace
		e.Dur = time.Since(s.opened)
		j.Publish(e)
	}
}

// Transfer ships data from src to dst, returning a copy of the payload
// after blocking the caller for the shaped duration. A transfer to the same
// node is a read of the node's disk: shaped once EnableDisk was called, an
// unshaped copy before, and never counted as network payload. The returned
// slice never aliases the input.
func (f *Fabric) Transfer(src, dst topology.NodeID, data []byte) ([]byte, error) {
	return f.TransferCtx(context.Background(), src, dst, data)
}

// TransferCtx is Transfer with cancellation: the shaped wait aborts the
// moment ctx is canceled, with at most the stream's window of chunks booked
// and undelivered, and the payload copy (the single copy per delivered
// replica) is made only on success.
func (f *Fabric) TransferCtx(ctx context.Context, src, dst topology.NodeID, data []byte) ([]byte, error) {
	s, err := f.OpenStream(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Send(ctx, len(data)); err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// Injector is cross traffic taking link capacity, modeling the paper's Iperf
// UDP streams between node pairs (Experiment A.1's network-condition sweep).
// Stop it with Close.
type Injector struct {
	f     *Fabric
	links []*Link
	rate  float64
	once  sync.Once
}

// InjectTraffic puts rateBytesPerSec of cross traffic on every link from src
// to dst until the injector's Close, or the fabric's. The traffic is open
// loop, as UDP is: it never queues or backs off, it takes its rate off the
// top of each link and payload is shaped at what is left, from a flow's first
// byte to its last. No payload is delivered and no locality counter moves;
// the links count the bytes as moved. A rate that would leave a link of the
// path nothing is ErrInvalidRate.
func (f *Fabric) InjectTraffic(src, dst topology.NodeID, rateBytesPerSec float64) (*Injector, error) {
	if !(rateBytesPerSec > 0) { // NaN included
		return nil, fmt.Errorf("%w: injector at %g B/s", ErrInvalidRate, rateBytesPerSec)
	}
	links, _, err := f.path(src, dst)
	if err != nil {
		return nil, err
	}
	for i, l := range links {
		if err := l.inject(rateBytesPerSec); err != nil {
			for _, undo := range links[:i] {
				_ = undo.inject(-rateBytesPerSec) // taking traffic off cannot fail
			}
			return nil, err
		}
	}
	inj := &Injector{f: f, links: links, rate: rateBytesPerSec}
	f.mu.Lock()
	f.injectors[inj] = struct{}{}
	f.mu.Unlock()
	return inj, nil
}

// Close takes the injector's traffic off its links. Closing an
// already-closed injector is a no-op.
func (i *Injector) Close() {
	i.once.Do(func() {
		for _, l := range i.links {
			_ = l.inject(-i.rate) // taking traffic off cannot fail
		}
		i.f.mu.Lock()
		delete(i.f.injectors, i)
		i.f.mu.Unlock()
	})
}

// Close tears the fabric down, stopping any still-open injectors. Open
// streams are unaffected (they belong to their callers), and the fabric's
// counters remain readable.
func (f *Fabric) Close() {
	f.mu.Lock()
	injs := make([]*Injector, 0, len(f.injectors))
	for inj := range f.injectors {
		injs = append(injs, inj)
	}
	f.mu.Unlock()
	for _, inj := range injs {
		inj.Close()
	}
}
