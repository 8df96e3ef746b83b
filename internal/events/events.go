// Package events is the cluster event journal: a lock-cheap, ring-buffered
// log of typed, structured events that every subsystem of the mini-HDFS
// testbed publishes into — the NameNode (allocations, commits, aborts,
// stripe grouping, encode commits, node liveness), the data path (replica
// writes, deletes, relocations, repairs), the RaidNode and BlockMover, the
// MapReduce scheduler (task placements), and the fabric (transfer
// start/finish with the link path taken).
//
// Where the telemetry package answers "how much, right now", the journal
// answers "what happened, in what order": every event carries a process-wide
// sequence number, a wall-clock timestamp, a logical timestamp (offset from
// the journal epoch, immune to wall-clock jumps), and correlation keys
// (block, stripe, node) tying the streams of different subsystems together.
// The audit subpackage replays the stream against the paper's placement
// invariants; the earfsd admin endpoint serves it with cursors and filters.
//
// A nil *Journal is a valid no-op sink, so instrumented code never needs nil
// checks — the same convention as telemetry.Tracer. Synchronous subscribers
// observe every event even after the ring wraps; they must be fast and must
// not call back into the journal or into the publishing subsystem.
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"ear/internal/topology"
)

// Type names one kind of cluster event. The taxonomy is closed: subsystems
// publish only these, so consumers (the auditor, the admin endpoint's
// filters) can switch on them exhaustively.
type Type string

// Event types, grouped by the lifecycle they trace.
const (
	// BlockAllocated: the NameNode reserved a block and planned its replica
	// placement (Nodes holds the planned replicas).
	BlockAllocated Type = "block-allocated"
	// ReplicaWritten: one replica of a block was durably stored on Node.
	ReplicaWritten Type = "replica-written"
	// BlockCommitted: every replica is durable; Nodes holds the replica set.
	BlockCommitted Type = "block-committed"
	// BlockAborted: an uncommitted write was abandoned; the block keeps its
	// stripe slot and encodes as zeros.
	BlockAborted Type = "block-aborted"

	// StripeGrouped: a stripe was sealed and registered for encoding.
	// Blocks holds the members, Rack the core rack (-1 under RR).
	StripeGrouped Type = "stripe-grouped"
	// StripeEncodeStarted: an encoding task began the paper's three-step
	// encode of the stripe on Node.
	StripeEncodeStarted Type = "stripe-encode-started"
	// StripeEncoded: encoding committed; Nodes holds the parity placements.
	StripeEncoded Type = "stripe-encoded"
	// StripeVerified: the PlacementMonitor checked the stripe's live layout
	// (Detail "ok" or "violating").
	StripeVerified Type = "stripe-verified"

	// ReplicaDeleted: the replica of Block on Node was deleted (the encode
	// operation's third step, or a relocation source).
	ReplicaDeleted Type = "replica-deleted"
	// ReplicaRelocated: a block (or parity, Detail "parity") moved from
	// Node to Peer.
	ReplicaRelocated Type = "replica-relocated"

	// ReplicaCorrupt: a read found the stored copy of Block (none for a
	// parity row, Detail "parity") of Stripe on Node failing its checksum,
	// and went on without it. The copy stays stored and recorded.
	ReplicaCorrupt Type = "replica-corrupt"

	// RepairStarted / RepairFinished bracket the reconstruction of a lost
	// block onto Node.
	RepairStarted  Type = "repair-started"
	RepairFinished Type = "repair-finished"

	// TransferStarted / TransferFinished bracket one fabric stream from
	// Node to Peer. Detail carries the link path ("node3.up>rack0.up>..."),
	// Bytes the payload delivered, Cross the rack locality.
	TransferStarted  Type = "transfer-started"
	TransferFinished Type = "transfer-finished"

	// TaskScheduled: the JobTracker placed a map task on Node (Detail holds
	// the task name and achieved locality).
	TaskScheduled Type = "task-scheduled"

	// NodeDead / NodeAlive track NameNode liveness transitions.
	NodeDead  Type = "node-dead"
	NodeAlive Type = "node-alive"

	// NodeRecoveryStarted / NodeRecoveryFinished bracket a full-node
	// recovery sweep (Cluster.RecoverNode): Node is the dead node, Detail
	// carries the lost-member count on start and "<n> repaired, <n>
	// unrecovered" on finish.
	NodeRecoveryStarted  Type = "node-recovery-started"
	NodeRecoveryFinished Type = "node-recovery-finished"

	// NodeDegraded / NodeRecovered track the health plane's slow-node
	// detector: a node whose health score fell below the degraded threshold
	// (heartbeat latency, op-latency outliers, recent failures — Detail
	// carries the score breakdown), and its later recovery past the
	// hysteresis threshold.
	NodeDegraded  Type = "node-degraded"
	NodeRecovered Type = "node-recovered"

	// MetaRecoveryStarted / MetaRecovered bracket a NameNode crash
	// recovery: snapshot load plus write-ahead-log tail replay.
	// MetaRecovered's Dur is the recovery time, Bytes the replayed record
	// count, and Detail the recovered block/stripe counts. Between the two,
	// the NameNode republishes its recovered layout as canonical events so
	// a freshly attached auditor can rebuild its model.
	MetaRecoveryStarted Type = "meta-recovery-started"
	MetaRecovered       Type = "meta-recovered"
	// MetaCheckpointed marks a metadata snapshot written and the op log
	// truncated behind it. Bytes is the snapshot size, Dur the write time.
	MetaCheckpointed Type = "meta-checkpointed"
)

// Event is one journal entry. Zero-valued correlation keys mean "not
// applicable": use the None* sentinels when constructing events by hand.
type Event struct {
	// Seq is the journal-wide sequence number, dense and strictly
	// increasing from 1. Cursor reads key on it.
	Seq uint64 `json:"seq"`
	// Wall is the wall-clock publish time.
	Wall time.Time `json:"wall"`
	// Logical is the offset from the journal epoch — a monotonic timestamp
	// that orders events even across wall-clock adjustments.
	Logical time.Duration `json:"logical"`

	Type Type `json:"type"`
	// Subsystem names the publisher: "namenode", "client", "datanode",
	// "raidnode", "blockmover", "mapred", "fabric".
	Subsystem string `json:"subsystem"`

	// Correlation keys. NoneBlock / NoneStripe / NoneNode / NoneRack mark
	// fields that do not apply to the event.
	Block  topology.BlockID  `json:"block"`
	Stripe topology.StripeID `json:"stripe"`
	Node   topology.NodeID   `json:"node"`
	// Peer is the second node of a pairwise event (transfer destination,
	// relocation target).
	Peer topology.NodeID `json:"peer"`
	Rack topology.RackID `json:"rack"`

	// Trace is the distributed-trace correlation key: the telemetry trace
	// ID of the request that caused the event, 0 for untraced activity.
	// Filtering the journal on one trace ID yields the event-level view of
	// one end-to-end operation, the counterpart of the span-level view in
	// the Chrome-trace export.
	Trace uint64 `json:"trace,omitempty"`

	// Bytes is the payload size for byte-moving events.
	Bytes int64 `json:"bytes,omitempty"`
	// Dur is the event's own duration where one is meaningful (a finished
	// transfer's open-to-close time); 0 otherwise. The health plane derives
	// per-node effective transfer rates from it.
	Dur time.Duration `json:"dur,omitempty"`
	// Cross marks cross-rack byte movement.
	Cross bool `json:"cross,omitempty"`
	// Nodes and Blocks carry set-valued payloads (replica sets, parity
	// placements, stripe membership).
	Nodes  []topology.NodeID  `json:"nodes,omitempty"`
	Blocks []topology.BlockID `json:"blocks,omitempty"`
	// Detail is a short free-form annotation (link path, task name, ...).
	Detail string `json:"detail,omitempty"`
}

// Sentinels for inapplicable correlation keys.
const (
	NoneBlock  topology.BlockID  = -1
	NoneStripe topology.StripeID = -1
	NoneNode   topology.NodeID   = -1
	NoneRack   topology.RackID   = -1
)

// New returns an event skeleton with every correlation key set to its None
// sentinel, ready for the caller to fill.
func New(t Type, subsystem string) Event {
	return Event{
		Type:      t,
		Subsystem: subsystem,
		Block:     NoneBlock,
		Stripe:    NoneStripe,
		Node:      NoneNode,
		Peer:      NoneNode,
		Rack:      NoneRack,
	}
}

// DefaultCapacity is the ring size a zero-configured journal gets: enough
// for the full event stream of a testbed experiment run.
const DefaultCapacity = 1 << 16

// Journal is the ring-buffered event log. All methods are safe for
// concurrent use; a nil *Journal ignores publishes and returns empty reads.
type Journal struct {
	mu    sync.Mutex
	epoch time.Time
	seq   uint64
	buf   []Event // ring storage, len == capacity
	next  int     // ring slot the next event lands in
	count int     // live events, <= len(buf)
	// subs holds the synchronous observers in subscription order.
	subs  []subscriber
	subID int
	// planes is the slot internal/planes keeps its per-journal set in.
	planes any

	// published counts total events ever accepted, readable without the
	// lock (overhead-sensitive callers poll it).
	published atomic.Uint64
}

// subscriber is one synchronous observer; id lets its cancel find it.
type subscriber struct {
	id int
	fn func(Event)
}

// NewJournal creates a journal retaining at most capacity events
// (DefaultCapacity when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{
		epoch: time.Now(),
		buf:   make([]Event, capacity),
	}
}

// Publish stamps the event (sequence number, wall and logical timestamps)
// and appends it, overwriting the oldest entry when the ring is full.
// Synchronous subscribers run under the journal lock in subscription order,
// so they observe the exact stream; they must not call back into the
// journal. Publishing to a nil journal is a no-op.
func (j *Journal) Publish(e Event) {
	if j == nil {
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	e.Wall = now
	e.Logical = now.Sub(j.epoch)
	j.buf[j.next] = e
	j.next = (j.next + 1) % len(j.buf)
	if j.count < len(j.buf) {
		j.count++
	}
	for _, s := range j.subs {
		s.fn(e)
	}
	j.mu.Unlock()
	j.published.Add(1)
}

// Subscribe registers a synchronous observer of every subsequent event and
// returns its cancel function. Subscribing to a nil journal returns a no-op
// cancel.
func (j *Journal) Subscribe(fn func(Event)) (cancel func()) {
	if j == nil {
		return func() {}
	}
	j.mu.Lock()
	j.subID++
	id := j.subID
	j.subs = append(j.subs, subscriber{id, fn})
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, s := range j.subs {
			if s.id == id {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
}

// Planes returns the value kept with this journal, storing fresh first if
// there is none yet. It is how a second attachment to one journal finds the
// planes the first one created instead of stacking duplicates (see
// internal/planes); a nil journal keeps nothing and returns fresh.
func (j *Journal) Planes(fresh any) any {
	if j == nil {
		return fresh
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.planes == nil {
		j.planes = fresh
	}
	return j.planes
}

// Seq returns the sequence number of the most recent event (0 when empty).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.published.Load()
}

// Len returns how many events the ring currently retains.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Filter selects events for cursor reads. Zero fields match everything;
// Block/Stripe/Node match when the event's key equals the pointer's value.
type Filter struct {
	Type      Type
	Subsystem string
	Block     *topology.BlockID
	Stripe    *topology.StripeID
	Node      *topology.NodeID
	// Trace, when nonzero, selects the events of one distributed trace.
	Trace uint64
}

// match reports whether e passes the filter. Node matches either end of a
// pairwise event.
func (f Filter) match(e Event) bool {
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if f.Subsystem != "" && e.Subsystem != f.Subsystem {
		return false
	}
	if f.Block != nil && e.Block != *f.Block {
		return false
	}
	if f.Stripe != nil && e.Stripe != *f.Stripe {
		return false
	}
	if f.Node != nil && e.Node != *f.Node && e.Peer != *f.Node {
		return false
	}
	if f.Trace != 0 && e.Trace != f.Trace {
		return false
	}
	return true
}

// Since returns up to max events with Seq > cursor that pass the filter, in
// sequence order, together with the cursor for the next call and how many
// matching-eligible events were lost to ring wrap (events whose sequence
// numbers fell between the cursor and the oldest retained entry). max <= 0
// means no limit. The returned cursor always advances past every event that
// was considered, so pollers never re-read.
func (j *Journal) Since(cursor uint64, max int, f Filter) (evs []Event, next uint64, dropped uint64) {
	if j == nil {
		return nil, cursor, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	next = cursor
	if j.count == 0 {
		return nil, next, 0
	}
	oldestIdx := (j.next - j.count + len(j.buf)) % len(j.buf)
	oldestSeq := j.buf[oldestIdx].Seq
	if cursor+1 < oldestSeq {
		dropped = oldestSeq - cursor - 1
	}
	for i := 0; i < j.count; i++ {
		e := j.buf[(oldestIdx+i)%len(j.buf)]
		if e.Seq <= cursor {
			continue
		}
		if max > 0 && len(evs) >= max {
			break
		}
		next = e.Seq
		if f.match(e) {
			evs = append(evs, e)
		}
	}
	return evs, next, dropped
}

// Snapshot returns every retained event in sequence order (diagnostics and
// tests; pollers should use Since).
func (j *Journal) Snapshot() []Event {
	evs, _, _ := j.Since(0, 0, Filter{})
	return evs
}
