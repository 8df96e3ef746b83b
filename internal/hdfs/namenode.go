package hdfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ear/internal/events"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// Errors returned by the NameNode.
var (
	// ErrUnknownBlock indicates a block ID with no metadata.
	ErrUnknownBlock = errors.New("hdfs: unknown block")
	// ErrUnknownStripe indicates a stripe ID with no metadata.
	ErrUnknownStripe = errors.New("hdfs: unknown stripe")
	// ErrNoReplica indicates no live replica is available.
	ErrNoReplica = errors.New("hdfs: no live replica")
)

// BlockMeta is the NameNode's record of one data block.
type BlockMeta struct {
	ID   topology.BlockID
	Size int
	// Nodes lists the current replica locations (a single node once the
	// block's stripe is encoded).
	Nodes []topology.NodeID
	// Stripe is the stripe the block belongs to, or -1 before assignment.
	Stripe topology.StripeID
	// Encoded marks blocks whose stripe completed encoding.
	Encoded bool
	// Committed marks blocks whose replicas are durably written.
	Committed bool
	// Aborted marks blocks whose write was abandoned before commit. The
	// allocation (and any stripe slot the placement policy already assigned)
	// is retained so stripe geometry stays consistent; the block has no
	// replicas and encodes as zeros.
	Aborted bool
	// writing is set by a live allocation and cleared, under the NameNode's
	// lock, by the first apply that ends the write or changes its replicas
	// (settleLocked): while it is set the block's replicas 2..r are counted
	// in the NameNode's in-flight ledger. Replay never sets it, and
	// snapshots and StateDigest do not encode it.
	writing bool
}

// StripeMeta is the NameNode's record of one stripe.
type StripeMeta struct {
	Info *placement.StripeInfo
	// Plan is the post-encoding layout, set when encoding commits.
	Plan *placement.PostEncodingPlan
	// Encoded marks completion of the encoding operation.
	Encoded bool
}

// cloneStripeMeta deep-copies a stripe record so callers can hold it without
// racing concurrent metadata updates (UpdateParityLocation mutates Plan).
func cloneStripeMeta(sm *StripeMeta) *StripeMeta {
	return &StripeMeta{Info: sm.Info.Clone(), Plan: sm.Plan.Clone(), Encoded: sm.Encoded}
}

// NameNode holds all metadata: block locations, the placement policy hook
// (the paper's first HDFS modification), and the pre-encoding store mapping
// stripes to their block lists (the second modification).
//
// Every mutation is a typed operation record (op.go): the propose step makes
// the policy decisions (placement search, planning — anything that consumes
// randomness), encodes the decided outcome as an op, appends it to the
// write-ahead log when one is attached, and only then applies it via the
// same mutation helpers crash-recovery replay uses — so the live path and
// replay cannot diverge. Each op's single canonical journal event comes from
// opEvent; replay applies ops without publishing, keeping recovery invisible
// to telemetry.
//
// One lock, mu, guards every piece of metadata state. A mutation holds it
// from its checks through its log append and its apply, so the log's order
// is the apply order and replay in log order rebuilds the live state; reads
// hold it for reading.
type NameNode struct {
	cfg placement.Config
	// seed keys every placement draw, with what the draw is for (draw).
	seed int64

	// mu guards every field from here to dead.
	mu          sync.RWMutex
	nextBlock   topology.BlockID
	blocks      map[topology.BlockID]*BlockMeta
	nextStripe  topology.StripeID
	stripes     map[topology.StripeID]*StripeMeta
	preEncoding []*placement.StripeInfo
	// planOverride, when non-nil, rewrites every post-encoding plan before
	// it is returned — a test-only hook for staging deliberately mis-placed
	// stripes the auditor must catch.
	planOverride func(*placement.StripeInfo, *placement.PostEncodingPlan)
	// policy places every block; ear is the same policy under EAR — the
	// open-stripe state the op log and snapshots record and replay restores —
	// and nil under RR, which keeps none. Both draw from rng, which only a
	// write hold of mu uses, each time reseeded by draw.
	policy placement.Policy
	ear    *placement.EAR
	rng    *rand.Rand
	// rrPending lists committed RR blocks not yet grouped, in commit order.
	rrPending []topology.BlockID
	// dead is the failed-node set.
	dead map[topology.NodeID]bool

	// inFlight is the ledger of replicas in flight: for every block allocated
	// on the live path and not yet settled (settleLocked), its replicas 2..r
	// — the ones a write sends over the network; replica 1 is the writer's
	// own — counted against their nodes and racks. The policy reads it, to
	// send replica 2 where no write is landing. Replay,
	// snapshots and StateDigest never see it, and a recovered NameNode starts
	// at zero.
	inFlight *placement.InFlight

	// jrn is the cluster event journal (atomic so installation never races
	// with in-flight operations; nil means unjournaled). BlockAllocated is
	// published under mu so a stripe's StripeGrouped event always trails
	// every member's allocation event; everything else publishes after mu is
	// released.
	jrn atomic.Pointer[events.Journal]

	tel atomic.Pointer[nnMetrics]

	// wal, when non-nil, is the durable op log every mutation is appended
	// to before it is applied. Attached once via RecoverMeta before the
	// NameNode serves traffic; nil keeps the pre-durability in-memory
	// behavior. An append failure is sticky in the log and surfaces as an
	// error on every subsequent mutation — the metadata plane refuses to
	// advance past state it cannot make durable.
	wal *metalog.Log

	// recoveredIn holds the duration of the last RecoverMeta, observed into
	// namenode_recovery_seconds when telemetry attaches (recovery runs
	// before SetTelemetry on the restart path); recoveredOps counts the log
	// records it replayed; recovered is set when it loaded a snapshot or at
	// least one record.
	recoveredIn  atomic.Int64 // nanoseconds; 0 = no recovery ran
	recoveredOps atomic.Int64
	recovered    atomic.Bool

	// Auto-checkpoint state (durability.go): snapEvery arms a snapshot every
	// N log appends, lastSnapAppends remembers the append count at the last
	// one, snapInFlight keeps concurrent mutations from stacking snapshots.
	snapEvery       atomic.Int64
	lastSnapAppends atomic.Int64
	snapInFlight    atomic.Bool

	// acct, when non-nil, receives per-tenant charges for allocation work
	// and records each block's owning tenant at allocation time (set once by
	// NewCluster before traffic; ownership is observability state, never
	// written to the WAL).
	acct *tenant.Table
}

// nnMetrics bundles the NameNode's metric handles.
type nnMetrics struct {
	allocOps  *telemetry.Metric // namenode_alloc_ops
	attemptNs *telemetry.Metric // placement_attempt_ns
	allocLat  *telemetry.Metric // namenode_alloc_seconds
	recovery  *telemetry.Metric // namenode_recovery_seconds
	// checkpointFailures counts automatic checkpoints that failed
	// (namenode_checkpoint_failures).
	checkpointFailures *telemetry.Metric
}

// NewShardedNameNode builds a NameNode with one placement policy, "ear" or
// "rr", whose draws are functions of the seed and what each is for. The
// fourth argument is ignored: it selected the one-big-lock A/B mode, which is
// gone, and stays in the signature, as does the name, only because benchmark/
// compiles against both.
func NewShardedNameNode(cfg placement.Config, policy string, seed int64, _ bool) (*NameNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn := &NameNode{
		cfg:      cfg,
		seed:     seed,
		blocks:   make(map[topology.BlockID]*BlockMeta),
		stripes:  make(map[topology.StripeID]*StripeMeta),
		rng:      rand.New(new(splitmix)),
		dead:     make(map[topology.NodeID]bool),
		inFlight: placement.NewInFlight(cfg.Topology),
	}
	var err error
	switch policy {
	case "ear":
		if nn.ear, err = placement.NewEAR(cfg, nn.rng); err == nil {
			nn.ear.SetInFlight(nn.inFlight)
			nn.policy = nn.ear
		}
	case "rr":
		var rr *placement.Random
		if rr, err = placement.NewRandom(cfg, nn.rng); err == nil {
			rr.SetInFlight(nn.inFlight)
			nn.policy = rr
		}
	default:
		err = fmt.Errorf("%w: unknown policy %q", placement.ErrInvalidConfig, policy)
	}
	if err != nil {
		return nil, err
	}
	return nn, nil
}

// draw restarts rng at what its next draws are for: a block's allocation
// (its ID) or a stripe's post-encoding plan (^its ID, so that no stripe keys
// a block's draws). A NameNode recovered from its log therefore draws what
// the live one would. Caller holds mu for writing.
func (nn *NameNode) draw(key int64) { nn.rng.Seed(int64(drawFor(nn.seed, key))) }

// SetJournal installs the cluster event journal. Metadata transitions
// (allocation, commit, abort, stripe grouping, encode commit, liveness)
// publish into it; nil detaches.
func (nn *NameNode) SetJournal(j *events.Journal) { nn.jrn.Store(j) }

// setAccounting installs the per-tenant accounting table. Called once by
// NewCluster before the NameNode serves traffic.
func (nn *NameNode) setAccounting(t *tenant.Table) { nn.acct = t }

// journal returns the installed journal; nil (a valid no-op) otherwise.
func (nn *NameNode) journal() *events.Journal { return nn.jrn.Load() }

// SetTelemetry publishes the NameNode's metrics into the registry: the
// namenode_alloc_ops counter and the placement_attempt_ns histogram (cost of
// one candidate-layout feasibility attempt).
func (nn *NameNode) SetTelemetry(reg *telemetry.Registry) {
	m := &nnMetrics{
		allocOps: reg.Counter("namenode_alloc_ops",
			"Block allocations served by the NameNode.").With(),
		attemptNs: reg.Histogram("placement_attempt_ns",
			"Cost of one candidate-layout placement attempt (nanoseconds).",
			telemetry.ExponentialBuckets(128, 2, 18)).With(),
		allocLat: reg.Histogram("namenode_alloc_seconds",
			"Block allocation latency (placement decision plus metadata registration).",
			telemetry.ExponentialBuckets(1e-6, 2, 16)).With(),
		recovery: reg.Histogram("namenode_recovery_seconds",
			"Crash-recovery duration: snapshot load plus op-log tail replay.",
			telemetry.ExponentialBuckets(1e-3, 2, 16)).With(),
		checkpointFailures: reg.Counter("namenode_checkpoint_failures",
			"Automatic metadata checkpoints that failed; the op log grows until one succeeds.").With(),
	}
	nn.tel.Store(m)
	// Recovery ran before telemetry attached (the restart path recovers
	// first, then wires observability); surface its duration retroactively
	// instead of letting it vanish.
	if ns := nn.recoveredIn.Load(); ns > 0 {
		m.recovery.Observe(time.Duration(ns).Seconds())
	}
}

// metrics returns the installed metric handles, nil when unobserved.
func (nn *NameNode) metrics() *nnMetrics { return nn.tel.Load() }

// logOp appends the encoded op to the write-ahead log and returns its LSN,
// or (0, nil) when no log is attached. Callers hold mu for writing and apply
// the op in the same hold, so the log order is the apply order — the
// property replay depends on — and LSNs rise within one hold.
func (nn *NameNode) logOp(op *nnOp) (uint64, error) {
	if nn.wal == nil {
		return 0, nil
	}
	lsn, err := nn.wal.Append(op.encode(nil))
	if err != nil {
		return 0, fmt.Errorf("hdfs: logging %v op: %w", op.kind, err)
	}
	return lsn, nil
}

// waitDurable blocks until the op at lsn is fsynced, per the log's sync
// policy (only SyncAlways actually waits). A no-op without a log. Every
// mutation path calls it after releasing mu, which makes it the one place to
// piggyback the auto-checkpoint check (maybeSnapshot takes mu itself).
func (nn *NameNode) waitDurable(lsn uint64) error {
	if nn.wal == nil || lsn == 0 {
		return nil
	}
	if err := nn.wal.WaitDurable(lsn); err != nil {
		return err
	}
	nn.maybeSnapshot()
	return nil
}

// AllocateBlock reserves a block no writer is known for, with a background
// (untraced) context. See AllocateBlockFrom.
func (nn *NameNode) AllocateBlock(size int) (*BlockMeta, error) {
	return nn.AllocateBlockFrom(context.Background(), size, placement.NoWriter)
}

// AllocateBlockFrom reserves a block ID and decides its replica placement
// for the given writing node: the first replica is the writer's own and,
// under EAR, the writer's rack is the core rack of the stripe the block
// joins (the flow graph may move replica 1 to another node of that rack).
// With placement.NoWriter the core rack (EAR) or the first replica's rack
// (RR) is drawn uniformly. Every draw is a function of the seed and the
// block's ID. When the context carries a telemetry span (a traced client
// write), the allocation runs under a "namenode.allocate" child span and the
// BlockAllocated / StripeGrouped journal events carry the trace ID.
func (nn *NameNode) AllocateBlockFrom(ctx context.Context, size int, writer topology.NodeID) (*BlockMeta, error) {
	sp := telemetry.SpanFromContext(ctx).Child("namenode.allocate").
		Arg(telemetry.ComponentArg, "namenode")
	defer sp.End()
	trace := sp.TraceID()
	allocStart := time.Now()

	nn.mu.Lock()
	id := nn.nextBlock
	nn.draw(int64(id))
	t0 := time.Now()
	pl, err := nn.policy.PlaceFrom(id, writer)
	elapsed := time.Since(t0)
	if err != nil {
		nn.mu.Unlock()
		return nil, err
	}
	// EAR puts replica 1 in the stripe's core rack, which replay reopens the
	// stripe in; the policy drew that node from the topology, so RackOf
	// cannot fail.
	attempts, core := 1, topology.RackID(-1)
	var targets []topology.RackID
	if nn.ear != nil {
		attempts, targets = nn.ear.LastPlaceAttempts(), nn.ear.LastPlaceTargets()
		core, _ = nn.cfg.Topology.RackOf(pl.Nodes[0])
	}

	op := &nnOp{
		kind:     opAllocate,
		block:    id,
		size:     int64(size),
		core:     core,
		attempts: attempts,
		nodes:    pl.Nodes,
		targets:  targets,
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return nil, err
	}
	meta := nn.applyAllocateLocked(op, true)
	out := cloneBlockMeta(meta)

	// Publish the allocation before releasing mu: a later allocation may seal
	// a stripe containing this block, and that stripe's StripeGrouped event,
	// published after its own hold, must trail every member's BlockAllocated
	// event in the journal.
	if j := nn.journal(); j != nil {
		if ev, ok := opEvent(op); ok {
			ev.Trace = trace
			j.Publish(ev)
		}
	}

	// Register the stripes the placement sealed in the same hold.
	var pending []events.Event
	for _, s := range nn.policy.TakeSealed() {
		sop := &nnOp{kind: opSealStripe}
		if lsn, err = nn.logOp(sop); err != nil {
			nn.mu.Unlock()
			return nil, err
		}
		nn.registerStripeLocked(s)
		sop.stripe, sop.core, sop.blocks = s.ID, s.CoreRack, s.Blocks
		if ev, ok := opEvent(sop); ok {
			ev.Trace = trace
			pending = append(pending, ev)
		}
	}
	nn.mu.Unlock()

	if err := nn.waitDurable(lsn); err != nil {
		return nil, err
	}
	nn.publishAll(pending)
	if m := nn.metrics(); m != nil {
		m.allocOps.Inc()
		m.attemptNs.Observe(float64(elapsed.Nanoseconds()) / float64(attempts))
		m.allocLat.Observe(time.Since(allocStart).Seconds())
	}
	// Charge the allocation and remember the block's owner so later
	// background work on it (encode, repair) is charged to the same tenant.
	if nn.acct != nil {
		owner := tenant.FromContext(ctx)
		nn.acct.Charge(owner, "alloc", 1, int64(size))
		nn.acct.SetOwner(id, owner)
	}
	sp.Arg("block", strconv.FormatInt(int64(id), 10))
	return out, nil
}

// applyAllocate installs a block-allocation op's metadata record: the shared
// apply step of the live path and replay. The placement policy's state was
// already advanced by the caller (PlaceFrom live, RestorePlacement in replay).
// A live allocation (writing) counts its replicas 2..r in the in-flight
// ledger. Caller holds mu.
func (nn *NameNode) applyAllocateLocked(op *nnOp, writing bool) *BlockMeta {
	nn.nextBlock = max(nn.nextBlock, op.block+1)
	meta := &BlockMeta{
		ID:      op.block,
		Size:    int(op.size),
		Nodes:   append([]topology.NodeID(nil), op.nodes...),
		Stripe:  -1,
		writing: writing,
	}
	if writing {
		nn.inFlight.Add(meta.Nodes[1:], 1)
	}
	nn.blocks[op.block] = meta
	return meta
}

// CommitBlock records a durably written block with a background (untraced)
// context. See CommitBlockCtx.
func (nn *NameNode) CommitBlock(id topology.BlockID) error {
	return nn.CommitBlockCtx(context.Background(), id)
}

// CommitBlockCtx records that the block's replicas are durably written; the
// block becomes eligible for stripe grouping (EAR sealed the stripe at
// placement time; RR blocks queue for RaidNode grouping). The context's
// trace, if any, is stamped on the BlockCommitted journal event.
func (nn *NameNode) CommitBlockCtx(ctx context.Context, id topology.BlockID) error {
	op := &nnOp{kind: opCommit, block: id}
	nn.mu.Lock()
	meta, ok := nn.blocks[id]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if meta.Aborted {
		nn.mu.Unlock()
		return fmt.Errorf("hdfs: block %d aborted", id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	op.nodes = nn.applyCommitLocked(meta)
	nn.mu.Unlock()

	if err := nn.waitDurable(lsn); err != nil {
		return err
	}
	if j := nn.journal(); j != nil {
		if ev, ok := opEvent(op); ok {
			ev.Trace = telemetry.TraceFromContext(ctx)
			j.Publish(ev)
		}
	}
	return nil
}

// applyCommitLocked marks the block committed, queues it for RaidNode
// grouping under RR unless a stripe already holds it (as one does only in a
// snapshot's op sequence, stateOps), and returns a copy of its replica set;
// the shared apply step of commit. Caller holds mu.
func (nn *NameNode) applyCommitLocked(meta *BlockMeta) []topology.NodeID {
	nn.settleLocked(meta)
	meta.Committed = true
	if nn.ear == nil && meta.Stripe < 0 {
		nn.rrPending = append(nn.rrPending, meta.ID)
	}
	return append([]topology.NodeID(nil), meta.Nodes...)
}

// publishAll publishes events gathered under a lock, in order.
func (nn *NameNode) publishAll(evs []events.Event) {
	j := nn.journal()
	if j == nil {
		return
	}
	for _, ev := range evs {
		j.Publish(ev)
	}
}

// AbortBlock abandons an uncommitted allocation: the block's replica list is
// cleared so nothing ever reads it, and it is flagged aborted. The metadata
// record itself is kept — the placement policy may already have folded the
// block into a stripe, and deleting it would corrupt that stripe's geometry;
// an aborted member simply contributes zeros at encode time, exactly like
// the zero-padding of short stripes. Aborting a committed block is an error.
func (nn *NameNode) AbortBlock(id topology.BlockID) error {
	op := &nnOp{kind: opAbort, block: id}
	nn.mu.Lock()
	meta, ok := nn.blocks[id]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if meta.Committed {
		nn.mu.Unlock()
		return fmt.Errorf("hdfs: block %d already committed", id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	nn.applyAbortLocked(meta)
	nn.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return err
	}
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
	return nil
}

// applyAbortLocked clears the block's replicas and flags it aborted; the
// shared apply step of abort. Caller holds mu.
func (nn *NameNode) applyAbortLocked(meta *BlockMeta) {
	nn.settleLocked(meta)
	meta.Aborted = true
	meta.Nodes = nil
}

// settleLocked releases a block's replicas from the in-flight ledger the
// first time an apply ends its write (commit, abort) or changes its replicas
// (a move, an encode), so each count is released exactly once and against the
// nodes it was raised for. A block replay installed was never counted and
// settles nothing, so a recovered NameNode's counts never go below zero.
// Caller holds mu.
func (nn *NameNode) settleLocked(meta *BlockMeta) {
	if meta.writing {
		meta.writing = false
		nn.inFlight.Add(meta.Nodes[1:], -1)
	}
}

// registerStripeLocked assigns the next stripe ID and stores the stripe:
// the shared apply step of every stripe-registering op (seal, flush, group).
// The caller holds mu and appended the op under the same hold, so the
// stripe-ID sequence always matches the log order. The caller builds the
// StripeGrouped event from the registered info via opEvent.
func (nn *NameNode) registerStripeLocked(info *placement.StripeInfo) {
	info.ID = nn.nextStripe
	nn.nextStripe++
	nn.stripes[info.ID] = &StripeMeta{Info: info}
	nn.preEncoding = append(nn.preEncoding, info)
	for _, b := range info.Blocks {
		if meta, ok := nn.blocks[b]; ok {
			meta.Stripe = info.ID
		}
	}
}

// TakePendingStripes drains the pre-encoding store. Under RR it first
// groups pending blocks k at a time with no placement knowledge, exactly as
// HDFS-RAID's RaidNode does. Incomplete groups stay queued.
func (nn *NameNode) TakePendingStripes() ([]*placement.StripeInfo, error) {
	var pending []events.Event
	var lsn uint64
	nn.mu.Lock()
	if nn.ear == nil && len(nn.rrPending) >= nn.cfg.K {
		placements := make(map[topology.BlockID]topology.Placement, len(nn.rrPending))
		for _, b := range nn.rrPending {
			meta, ok := nn.blocks[b]
			if !ok {
				nn.mu.Unlock()
				return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, b)
			}
			placements[b] = topology.Placement{Block: b, Nodes: append([]topology.NodeID(nil), meta.Nodes...)}
		}
		groups, err := placement.GroupIntoStripes(nn.cfg.K, nn.rrPending, placements, 0)
		if err != nil {
			nn.mu.Unlock()
			return nil, err
		}
		for _, g := range groups {
			op := &nnOp{kind: opGroupStripe, blocks: append([]topology.BlockID(nil), g.Blocks...)}
			if lsn, err = nn.logOp(op); err != nil {
				nn.mu.Unlock()
				return nil, err
			}
			nn.registerStripeLocked(g)
			nn.removePendingLocked(g.Blocks)
			op.stripe, op.core = g.ID, g.CoreRack
			if ev, ok := opEvent(op); ok {
				pending = append(pending, ev)
			}
		}
	}
	var out []*placement.StripeInfo
	if len(nn.preEncoding) > 0 {
		var err error
		if lsn, err = nn.logOp(&nnOp{kind: opDrainPending}); err != nil {
			nn.mu.Unlock()
			return nil, err
		}
		out = nn.applyDrainLocked()
	}
	nn.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return nil, err
	}
	nn.publishAll(pending)
	return out, nil
}

// applyDrainLocked hands the pre-encoding store to the caller and clears it;
// the shared apply step of drain-pending. Caller holds mu.
func (nn *NameNode) applyDrainLocked() []*placement.StripeInfo {
	out := nn.preEncoding
	nn.preEncoding = nil
	return out
}

// removePendingLocked deletes the given blocks from the RR grouping queue,
// preserving the order of the remainder; the shared apply step of a group
// op's queue side. Caller holds mu.
func (nn *NameNode) removePendingLocked(members []topology.BlockID) {
	if len(members) == 0 || len(nn.rrPending) == 0 {
		return
	}
	drop := make(map[topology.BlockID]bool, len(members))
	for _, b := range members {
		drop[b] = true
	}
	kept := nn.rrPending[:0]
	for _, b := range nn.rrPending {
		if !drop[b] {
			kept = append(kept, b)
		}
	}
	nn.rrPending = kept
}

// PendingStripeCount reports how many sealed stripes await encoding
// (including, under RR, the full groups formable from pending blocks).
func (nn *NameNode) PendingStripeCount() int {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return len(nn.preEncoding) + len(nn.rrPending)/nn.cfg.K
}

// FlushOpenStripes seals every in-progress stripe regardless of fill level
// (short stripes are zero-padded at encode time). Under RR it is a no-op:
// leftover blocks smaller than one stripe stay replicated. It returns the
// number of stripes flushed; the error is non-nil only when the write-ahead
// log rejected an op (already-flushed stripes stay registered).
func (nn *NameNode) FlushOpenStripes() (int, error) {
	var pending []events.Event
	var lsn uint64
	count := 0
	nn.mu.Lock()
	var open []*placement.StripeInfo
	if nn.ear != nil {
		open = nn.ear.FlushOpen()
	}
	for _, s := range open {
		op := &nnOp{kind: opFlushStripe, core: s.CoreRack}
		var err error
		if lsn, err = nn.logOp(op); err != nil {
			nn.mu.Unlock()
			return count, err
		}
		nn.registerStripeLocked(s)
		count++
		op.stripe, op.blocks = s.ID, s.Blocks
		if ev, ok := opEvent(op); ok {
			pending = append(pending, ev)
		}
	}
	nn.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return count, err
	}
	nn.publishAll(pending)
	return count, nil
}

// PlanStripe computes the post-encoding layout for a stripe, a function of
// (seed, stripe, homes): the rng restarts at the stripe's draw, so concurrent
// encodes plan the same layouts in whatever order they get here, and homes
// are the core-rack nodes the encoder wants its parity on
// (placement.PlanPostEncoding). The solve holds mu for writing, as every use
// of the rng does; the exclusive hold also hands the stripes of a job out one
// solve apart, and folds that start on one instant wake every stage of every
// chain together from then on, which cost the 2-core benchmark host 10 % of
// encode_mbps when the solve was moved out of the hold (DESIGN.md, "One
// NameNode lock").
func (nn *NameNode) PlanStripe(info *placement.StripeInfo, homes ...topology.NodeID) (*placement.PostEncodingPlan, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.draw(^int64(info.ID))
	plan, err := placement.PlanPostEncoding(nn.cfg, info, nn.rng, homes...)
	if err == nil && nn.planOverride != nil {
		nn.planOverride(info, plan)
	}
	return plan, err
}

// SetPlanOverrideForTest installs a hook that rewrites every post-encoding
// plan before PlanStripe returns it. Test-only: it exists so the auditor's
// integration tests can stage deliberately mis-placed stripes (for example,
// more than c blocks of one stripe in a single rack) and prove the violation
// is caught. nil removes the hook.
func (nn *NameNode) SetPlanOverrideForTest(fn func(*placement.StripeInfo, *placement.PostEncodingPlan)) {
	nn.mu.Lock()
	nn.planOverride = fn
	nn.mu.Unlock()
}

// CommitEncoding records the outcome of an encoding operation: every data
// block keeps a single replica and the stripe stores its plan (a private
// copy, so the caller's plan never aliases NameNode state).
func (nn *NameNode) CommitEncoding(id topology.StripeID, plan *placement.PostEncodingPlan) error {
	op := &nnOp{kind: opEncodeCommit, stripe: id, plan: plan}
	nn.mu.Lock()
	sm, ok := nn.stripes[id]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	if err := nn.applyEncodeLocked(sm, plan); err != nil {
		nn.mu.Unlock()
		return err
	}
	nn.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return err
	}
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
	return nil
}

// applyEncodeLocked marks every member of an encoded stripe encoded,
// collapses each to its single kept replica and stores the plan; the shared
// apply step of encode-commit. Caller holds mu.
func (nn *NameNode) applyEncodeLocked(sm *StripeMeta, plan *placement.PostEncodingPlan) error {
	if len(plan.Keep) < len(sm.Info.Blocks) {
		return fmt.Errorf("hdfs: plan keeps %d replicas for the %d blocks of stripe %d", len(plan.Keep), len(sm.Info.Blocks), sm.Info.ID)
	}
	for i, b := range sm.Info.Blocks {
		meta, ok := nn.blocks[b]
		if !ok {
			return fmt.Errorf("%w: %d in stripe %d", ErrUnknownBlock, b, sm.Info.ID)
		}
		meta.Encoded = true
		if meta.Aborted {
			// Aborted members encoded as zeros; they keep no replica.
			continue
		}
		nn.settleLocked(meta)
		meta.Nodes = []topology.NodeID{plan.Keep[i]}
	}
	sm.Plan = plan.Clone()
	sm.Encoded = true
	return nil
}

// Block returns a copy of the block's metadata.
func (nn *NameNode) Block(id topology.BlockID) (*BlockMeta, error) {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	meta, ok := nn.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	return cloneBlockMeta(meta), nil
}

// Stripe returns a deep copy of the stripe metadata, safe to retain and read
// while concurrent operations (UpdateParityLocation, CommitEncoding) mutate
// the authoritative record.
func (nn *NameNode) Stripe(id topology.StripeID) (*StripeMeta, error) {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	sm, ok := nn.stripes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	return cloneStripeMeta(sm), nil
}

// EncodedStripes lists the IDs of stripes that completed encoding, in
// ascending order.
func (nn *NameNode) EncodedStripes() []topology.StripeID {
	nn.mu.RLock()
	out := make([]topology.StripeID, 0, len(nn.stripes))
	for id, sm := range nn.stripes {
		if sm.Encoded {
			out = append(out, id)
		}
	}
	nn.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveReplicas returns the block's replica nodes that are not dead.
func (nn *NameNode) LiveReplicas(id topology.BlockID) ([]topology.NodeID, error) {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	meta, ok := nn.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	live := make([]topology.NodeID, 0, len(meta.Nodes))
	for _, n := range meta.Nodes {
		if !nn.dead[n] {
			live = append(live, n)
		}
	}
	return live, nil
}

// MarkDead declares a node failed; its replicas become unreadable. Liveness
// transitions are logged like every mutation but applied even if the log
// rejects the append (failing to record a death must not leave the NameNode
// routing reads to a dead node); the log's sticky error still surfaces on
// the next fallible mutation.
func (nn *NameNode) MarkDead(n topology.NodeID) {
	op := &nnOp{kind: opNodeDead, node: n}
	nn.mu.Lock()
	lsn, _ := nn.logOp(op)
	nn.dead[n] = true
	nn.mu.Unlock()
	_ = nn.waitDurable(lsn)
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
}

// MarkAlive reverses MarkDead: the node rejoins the cluster (its stale
// replicas are assumed invalidated by the rejoin protocol).
func (nn *NameNode) MarkAlive(n topology.NodeID) {
	op := &nnOp{kind: opNodeAlive, node: n}
	nn.mu.Lock()
	lsn, _ := nn.logOp(op)
	delete(nn.dead, n)
	nn.mu.Unlock()
	_ = nn.waitDurable(lsn)
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
}

// IsDead reports whether the node failed.
func (nn *NameNode) IsDead(n topology.NodeID) bool {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return nn.dead[n]
}

// UpdateBlockLocation rewrites a block's replica set (used by the
// BlockMover and by repair). No NameNode event: the data-path layer that
// moved the bytes publishes ReplicaRelocated/ReplicaDeleted.
func (nn *NameNode) UpdateBlockLocation(id topology.BlockID, nodes []topology.NodeID) error {
	op := &nnOp{kind: opBlockMoved, block: id, nodes: nodes}
	nn.mu.Lock()
	meta, ok := nn.blocks[id]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	nn.applyBlockMovedLocked(meta, nodes)
	nn.mu.Unlock()
	return nn.waitDurable(lsn)
}

// applyBlockMovedLocked rewrites the block's replica set; the shared apply
// step of block-moved. Caller holds mu.
func (nn *NameNode) applyBlockMovedLocked(meta *BlockMeta, nodes []topology.NodeID) {
	nn.settleLocked(meta)
	meta.Nodes = append([]topology.NodeID(nil), nodes...)
}

// UpdateParityLocation rewrites the location of one parity block of a
// stripe (used by the BlockMover).
func (nn *NameNode) UpdateParityLocation(id topology.StripeID, idx int, node topology.NodeID) error {
	op := &nnOp{kind: opParityMoved, stripe: id, idx: idx, node: node}
	nn.mu.Lock()
	sm, ok := nn.stripes[id]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	if sm.Plan == nil || idx < 0 || idx >= len(sm.Plan.Parity) {
		nn.mu.Unlock()
		return fmt.Errorf("hdfs: stripe %d has no parity index %d", id, idx)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	sm.Plan.Parity[idx] = node
	nn.mu.Unlock()
	return nn.waitDurable(lsn)
}

// BlockCount returns the number of allocated blocks.
func (nn *NameNode) BlockCount() int {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return len(nn.blocks)
}

func cloneBlockMeta(m *BlockMeta) *BlockMeta {
	c := *m
	c.Nodes = append([]topology.NodeID(nil), m.Nodes...)
	return &c
}
