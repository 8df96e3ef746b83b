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
	// writing is set by a live allocation and cleared, under the block's
	// table-shard lock, by the first apply that ends the write or changes
	// its replicas (settleLocked): while it is set the block's replicas
	// 2..r are counted in the NameNode's in-flight ledger. Replay never sets
	// it, and snapshots and StateDigest do not encode it.
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

// blockTableShards stripes the block table so metadata lookups on different
// blocks do not contend on one mutex.
const blockTableShards = 16

// blockShard is one stripe of the block table.
type blockShard struct {
	mu     sync.RWMutex
	blocks map[topology.BlockID]*BlockMeta
}

// placementShard serializes one placement-policy instance. Under EAR every
// core rack gets its own shard (open-stripe state is keyed by core rack, so
// shards never share state); under RR shards are interchangeable and chosen
// round-robin. NewShardedNameNode builds every policy, so what a shard can do
// is known by construction: ear is the policy under EAR — the stripe state
// the op log and snapshots record and replay restore — and nil under RR,
// which keeps none.
type placementShard struct {
	mu     sync.Mutex
	policy placement.Policy
	ear    *placement.EAR
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
// Concurrency layout — four independent lock domains instead of one global
// mutex:
//
//   - placementShard.mu: placement policy state, one shard per core rack
//     (EAR) or per slot (RR).
//   - blockShard.mu: the block table, 16-way striped by BlockID.
//   - mu: the stripe registry only (stripes, preEncoding, nextStripe,
//     planOverride).
//   - rrMu / deadMu: the RR grouping queue and node liveness set.
//
// Lock ordering: placementShard.mu or rrMu may acquire mu (stripe
// registration logs and applies under the caller's lock so the write-ahead
// log's order matches the stripe-ID order); any of them may acquire
// blockShard.mu; blockShard.mu may acquire deadMu. Never acquire in the
// reverse direction. Ops that mutate a lock domain's state are appended to
// the log while that domain's lock is held, which is what makes replay in
// log order equivalent to the live interleaving.
type NameNode struct {
	cfg        placement.Config
	policyName string
	// seed keys every post-encoding plan (PlanStripe), with the stripe's ID.
	seed int64

	// mu guards the stripe registry.
	mu          sync.Mutex
	nextStripe  topology.StripeID
	stripes     map[topology.StripeID]*StripeMeta
	preEncoding []*placement.StripeInfo
	// planOverride, when non-nil, rewrites every post-encoding plan before
	// it is returned — a test-only hook for staging deliberately mis-placed
	// stripes the auditor must catch. Guarded by mu.
	planOverride func(*placement.StripeInfo, *placement.PostEncodingPlan)

	nextBlock atomic.Int64
	blockTab  [blockTableShards]blockShard

	shards []*placementShard
	// rackSeq feeds the lock-free splitmix64 draw behind shard routing,
	// started from the constructor's seed.
	rackSeq atomic.Uint64
	// inFlight is the ledger of replicas in flight: for every block allocated
	// on the live path and not yet settled (settleLocked), its replicas 2..r
	// — the ones a write sends over the network; replica 1 is the writer's
	// own — counted against their nodes and racks. Every placement shard's
	// policy reads it, to send replica 2 where no write is landing. Its
	// counts are atomics, so it adds no lock; replay, snapshots and
	// StateDigest never see it, and a recovered NameNode starts at zero.
	inFlight *placement.InFlight

	// rrMu guards rrPending, committed RR blocks not yet grouped.
	rrMu      sync.Mutex
	rrPending []topology.BlockID

	// deadMu guards dead, the failed-node set.
	deadMu sync.RWMutex
	dead   map[topology.NodeID]bool

	// jrn is the cluster event journal (atomic so installation never races
	// with in-flight operations; nil means unjournaled). BlockAllocated is
	// published under the placement shard lock so a stripe's StripeGrouped
	// event always trails every member's allocation event; everything else
	// publishes after locks are released.
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
	// records it replayed.
	recoveredIn  atomic.Int64 // nanoseconds; 0 = no recovery ran
	recoveredOps atomic.Int64

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
}

// NewShardedNameNode builds a NameNode whose placement state is sharded: one
// policy instance (with its own rng) per core rack under EAR, or one per
// rack-count slot under RR. The fourth argument is ignored: it selected the
// one-big-lock A/B mode, which is gone, and stays in the signature only
// because benchmark/ compiles against it; a [benchmark] PR drops it.
func NewShardedNameNode(cfg placement.Config, policyName string, seed int64, _ bool) (*NameNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn := &NameNode{
		cfg:        cfg,
		policyName: policyName,
		seed:       seed,
		stripes:    make(map[topology.StripeID]*StripeMeta),
		dead:       make(map[topology.NodeID]bool),
		inFlight:   placement.NewInFlight(cfg.Topology),
	}
	for i := range nn.blockTab {
		nn.blockTab[i].blocks = make(map[topology.BlockID]*BlockMeta)
	}
	nn.rackSeq.Store(uint64(seed))
	for i := 0; i < cfg.Topology.Racks(); i++ {
		sh := &placementShard{}
		var err error
		rng := rand.New(rand.NewSource(seed + int64(i) + 1))
		switch policyName {
		case "ear":
			if sh.ear, err = placement.NewEAR(cfg, rng); err == nil {
				sh.ear.SetInFlight(nn.inFlight)
				sh.policy = sh.ear
			}
		case "rr":
			var rr *placement.Random
			if rr, err = placement.NewRandom(cfg, rng); err == nil {
				rr.SetInFlight(nn.inFlight)
				sh.policy = rr
			}
		default:
			return nil, fmt.Errorf("%w: unknown policy %q", placement.ErrInvalidConfig, policyName)
		}
		if err != nil {
			return nil, err
		}
		nn.shards = append(nn.shards, sh)
	}
	return nn, nil
}

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

// blockShardFor returns the block-table shard owning the ID.
func (nn *NameNode) blockShardFor(id topology.BlockID) *blockShard {
	return &nn.blockTab[uint64(id)%blockTableShards]
}

// logOp appends the encoded op to the write-ahead log and returns its LSN,
// or (0, nil) when no log is attached. Callers hold the lock guarding the
// state the op mutates, so per lock domain the log order equals the apply
// order — the property replay depends on.
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
// mutation path calls it after releasing its locks, which makes it the one
// place to piggyback the auto-checkpoint check (maybeSnapshot needs the
// whole plane unlocked).
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

// draw is a lock-free splitmix64 step used for shard routing and core-rack
// selection.
func (nn *NameNode) draw() uint64 {
	return mix64(nn.rackSeq.Add(splitmixGamma))
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
// With placement.NoWriter the core rack (EAR) or the first replica (RR) is
// drawn uniformly from a sequence the constructor's seed starts. Only the
// chosen placement shard and the block's table shard are locked; separate
// racks allocate concurrently. When the context carries a telemetry span (a
// traced client write), the allocation runs under a "namenode.allocate"
// child span and the BlockAllocated / StripeGrouped journal events carry the
// trace ID.
func (nn *NameNode) AllocateBlockFrom(ctx context.Context, size int, writer topology.NodeID) (*BlockMeta, error) {
	sp := telemetry.SpanFromContext(ctx).Child("namenode.allocate").
		Arg(telemetry.ComponentArg, "namenode")
	defer sp.End()
	trace := sp.TraceID()
	allocStart := time.Now()
	// The writer's rack is resolved before a block ID is taken, so an unknown
	// writer allocates nothing.
	shardIdx := int32(-1)
	if writer != placement.NoWriter {
		r, err := nn.cfg.Topology.RackOf(writer)
		if err != nil {
			return nil, err
		}
		shardIdx = int32(r)
	}
	id := topology.BlockID(nn.nextBlock.Add(1) - 1)

	// Under EAR the shard is the core rack's: the writer's rack, or a drawn
	// one. RR shards are interchangeable and always drawn.
	if shardIdx < 0 || nn.policyName != "ear" {
		shardIdx = int32(nn.draw() % uint64(len(nn.shards)))
	}
	sh := nn.shards[shardIdx]
	core := topology.RackID(-1)
	if sh.ear != nil {
		core = topology.RackID(shardIdx)
	}

	sh.mu.Lock()
	t0 := time.Now()
	var pl topology.Placement
	var err error
	if sh.ear != nil && writer == placement.NoWriter {
		pl, err = sh.ear.PlaceAt(id, core)
	} else {
		pl, err = sh.policy.PlaceFrom(id, writer)
	}
	elapsed := time.Since(t0)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	attempts := 1
	var targets []topology.RackID
	if sh.ear != nil {
		attempts, targets = sh.ear.LastPlaceAttempts(), sh.ear.LastPlaceTargets()
	}

	op := &nnOp{
		kind:     opAllocate,
		block:    id,
		size:     int64(size),
		shard:    shardIdx,
		core:     core,
		attempts: attempts,
		nodes:    pl.Nodes,
		targets:  targets,
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	meta := nn.applyAllocate(op, true)
	out := cloneBlockMeta(meta)

	// Publish the allocation before releasing the placement shard: a later
	// allocation on this shard may seal a stripe containing this block, and
	// that stripe's StripeGrouped event must trail every member's
	// BlockAllocated event in the journal.
	if j := nn.journal(); j != nil {
		if ev, ok := opEvent(op); ok {
			ev.Trace = trace
			j.Publish(ev)
		}
	}

	// Drain and register stripes the placement sealed, while still holding
	// the shard: the seal op is logged and applied under nn.mu so the
	// stripe-ID sequence matches the log order across shards.
	var pending []events.Event
	for _, s := range sh.policy.TakeSealed() {
		sop := &nnOp{kind: opSealStripe, shard: shardIdx}
		nn.mu.Lock()
		l, serr := nn.logOp(sop)
		if serr != nil {
			nn.mu.Unlock()
			sh.mu.Unlock()
			return nil, serr
		}
		if l > lsn {
			lsn = l
		}
		nn.registerStripeLocked(s)
		nn.mu.Unlock()
		sop.stripe, sop.core, sop.blocks = s.ID, s.CoreRack, s.Blocks
		if ev, ok := opEvent(sop); ok {
			ev.Trace = trace
			pending = append(pending, ev)
		}
	}
	sh.mu.Unlock()

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
// already advanced by the caller (PlaceAt live, RestorePlacement in replay).
// A live allocation (writing) counts its replicas in the in-flight ledger
// before the record becomes visible, so no settle can precede the count.
func (nn *NameNode) applyAllocate(op *nnOp, writing bool) *BlockMeta {
	// Live allocation pre-assigns IDs with an atomic add, so this is a no-op
	// there; replay advances the counter past every recorded ID.
	for {
		cur := nn.nextBlock.Load()
		if cur >= int64(op.block)+1 || nn.nextBlock.CompareAndSwap(cur, int64(op.block)+1) {
			break
		}
	}
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
	bs := nn.blockShardFor(op.block)
	bs.mu.Lock()
	bs.blocks[op.block] = meta
	bs.mu.Unlock()
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
	bs := nn.blockShardFor(id)
	bs.mu.Lock()
	meta, ok := bs.blocks[id]
	if !ok {
		bs.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if meta.Aborted {
		bs.mu.Unlock()
		return fmt.Errorf("hdfs: block %d aborted", id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		bs.mu.Unlock()
		return err
	}
	op.nodes = nn.applyCommitLocked(meta)
	bs.mu.Unlock()

	nn.enqueueRRPending(id)
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

// applyCommitLocked marks the block committed and returns a copy of its
// replica set; the shared apply step of commit. Caller holds the block's
// table-shard mutex.
func (nn *NameNode) applyCommitLocked(meta *BlockMeta) []topology.NodeID {
	nn.settleLocked(meta)
	meta.Committed = true
	return append([]topology.NodeID(nil), meta.Nodes...)
}

// enqueueRRPending queues a committed block for RaidNode grouping (RR only).
func (nn *NameNode) enqueueRRPending(id topology.BlockID) {
	if nn.policyName != "rr" {
		return
	}
	nn.rrMu.Lock()
	nn.rrPending = append(nn.rrPending, id)
	nn.rrMu.Unlock()
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
	bs := nn.blockShardFor(id)
	bs.mu.Lock()
	meta, ok := bs.blocks[id]
	if !ok {
		bs.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if meta.Committed {
		bs.mu.Unlock()
		return fmt.Errorf("hdfs: block %d already committed", id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		bs.mu.Unlock()
		return err
	}
	nn.applyAbortLocked(meta)
	bs.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return err
	}
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
	return nil
}

// applyAbortLocked clears the block's replicas and flags it aborted; the
// shared apply step of abort. Caller holds the block's table-shard mutex.
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
// Caller holds the block's table-shard mutex.
func (nn *NameNode) settleLocked(meta *BlockMeta) {
	if meta.writing {
		meta.writing = false
		nn.inFlight.Add(meta.Nodes[1:], -1)
	}
}

// registerStripeLocked assigns the next stripe ID and stores the stripe:
// the shared apply step of every stripe-registering op (seal, flush, group).
// The caller holds nn.mu and appended the op under the same hold, so the
// stripe-ID sequence always matches the log order. The caller builds the
// StripeGrouped event from the registered info via opEvent.
func (nn *NameNode) registerStripeLocked(info *placement.StripeInfo) {
	info.ID = nn.nextStripe
	nn.nextStripe++
	nn.stripes[info.ID] = &StripeMeta{Info: info}
	nn.preEncoding = append(nn.preEncoding, info)
	for _, b := range info.Blocks {
		bs := nn.blockShardFor(b)
		bs.mu.Lock()
		if meta, ok := bs.blocks[b]; ok {
			meta.Stripe = info.ID
		}
		bs.mu.Unlock()
	}
}

// TakePendingStripes drains the pre-encoding store. Under RR it first
// groups pending blocks k at a time with no placement knowledge, exactly as
// HDFS-RAID's RaidNode does. Incomplete groups stay queued.
func (nn *NameNode) TakePendingStripes() ([]*placement.StripeInfo, error) {
	var pending []events.Event
	var lsn uint64
	if nn.policyName == "rr" {
		nn.rrMu.Lock()
		if len(nn.rrPending) >= nn.cfg.K {
			placements := make(map[topology.BlockID]topology.Placement, len(nn.rrPending))
			for _, b := range nn.rrPending {
				bs := nn.blockShardFor(b)
				bs.mu.RLock()
				meta, ok := bs.blocks[b]
				if !ok {
					bs.mu.RUnlock()
					nn.rrMu.Unlock()
					return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, b)
				}
				placements[b] = topology.Placement{Block: b, Nodes: append([]topology.NodeID(nil), meta.Nodes...)}
				bs.mu.RUnlock()
			}
			groups, err := placement.GroupIntoStripes(nn.cfg.K, nn.rrPending, placements, 0)
			if err != nil {
				nn.rrMu.Unlock()
				return nil, err
			}
			for _, g := range groups {
				op := &nnOp{kind: opGroupStripe, blocks: append([]topology.BlockID(nil), g.Blocks...)}
				nn.mu.Lock()
				l, err := nn.logOp(op)
				if err != nil {
					nn.mu.Unlock()
					nn.rrMu.Unlock()
					return nil, err
				}
				if l > lsn {
					lsn = l
				}
				nn.registerStripeLocked(g)
				nn.mu.Unlock()
				nn.removePendingLocked(g.Blocks)
				op.stripe, op.core = g.ID, g.CoreRack
				if ev, ok := opEvent(op); ok {
					pending = append(pending, ev)
				}
			}
		}
		nn.rrMu.Unlock()
	}
	nn.mu.Lock()
	var out []*placement.StripeInfo
	if len(nn.preEncoding) > 0 {
		dop := &nnOp{kind: opDrainPending}
		l, err := nn.logOp(dop)
		if err != nil {
			nn.mu.Unlock()
			return nil, err
		}
		if l > lsn {
			lsn = l
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
// the shared apply step of drain-pending. Caller holds nn.mu.
func (nn *NameNode) applyDrainLocked() []*placement.StripeInfo {
	out := nn.preEncoding
	nn.preEncoding = nil
	return out
}

// removePendingLocked deletes the given blocks from the RR grouping queue,
// preserving the order of the remainder; the shared apply step of a group
// op's queue side. Caller holds rrMu.
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
	nn.mu.Lock()
	n := len(nn.preEncoding)
	nn.mu.Unlock()
	if nn.policyName == "rr" {
		nn.rrMu.Lock()
		n += len(nn.rrPending) / nn.cfg.K
		nn.rrMu.Unlock()
	}
	return n
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
	for si, sh := range nn.shards {
		if sh.ear == nil {
			continue
		}
		sh.mu.Lock()
		for _, s := range sh.ear.FlushOpen() {
			op := &nnOp{kind: opFlushStripe, shard: int32(si), core: s.CoreRack}
			nn.mu.Lock()
			l, err := nn.logOp(op)
			if err != nil {
				nn.mu.Unlock()
				sh.mu.Unlock()
				return count, err
			}
			if l > lsn {
				lsn = l
			}
			nn.registerStripeLocked(s)
			nn.mu.Unlock()
			count++
			op.stripe, op.core, op.blocks = s.ID, s.CoreRack, s.Blocks
			if ev, ok := opEvent(op); ok {
				pending = append(pending, ev)
			}
		}
		sh.mu.Unlock()
	}
	if err := nn.waitDurable(lsn); err != nil {
		return count, err
	}
	nn.publishAll(pending)
	return count, nil
}

// PlanStripe computes the post-encoding layout for a stripe, a function of
// (seed, stripe): the rng is the stripe's own, so concurrent encodes plan the
// same layouts in whatever order they get here. The solve stays under nn.mu
// though it no longer needs it: the lock hands the stripes of a job out one
// solve apart, and folds that start on one instant wake every stage of every
// chain together from then on, which cost the 2-core benchmark host 10 % of
// encode_mbps when the solve was moved out (CHANGES.md, PR 23).
func (nn *NameNode) PlanStripe(info *placement.StripeInfo) (*placement.PostEncodingPlan, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	rng := rand.New(rand.NewSource(int64(drawFor(nn.seed, int64(info.ID)))))
	plan, err := placement.PlanPostEncoding(nn.cfg, info, rng)
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

// applyEncodeLocked collapses every member of an encoded stripe to its
// single kept replica and stores the plan; the shared apply step of
// encode-commit. Caller holds nn.mu.
func (nn *NameNode) applyEncodeLocked(sm *StripeMeta, plan *placement.PostEncodingPlan) error {
	for i, b := range sm.Info.Blocks {
		bs := nn.blockShardFor(b)
		bs.mu.Lock()
		meta, ok := bs.blocks[b]
		if !ok {
			bs.mu.Unlock()
			return fmt.Errorf("%w: %d in stripe %d", ErrUnknownBlock, b, sm.Info.ID)
		}
		if meta.Aborted {
			// Aborted members encoded as zeros; they keep no replica.
			bs.mu.Unlock()
			continue
		}
		nn.settleLocked(meta)
		meta.Nodes = []topology.NodeID{plan.Keep[i]}
		meta.Encoded = true
		bs.mu.Unlock()
	}
	sm.Plan = plan.Clone()
	sm.Encoded = true
	return nil
}

// Block returns a copy of the block's metadata.
func (nn *NameNode) Block(id topology.BlockID) (*BlockMeta, error) {
	bs := nn.blockShardFor(id)
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	meta, ok := bs.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	return cloneBlockMeta(meta), nil
}

// Stripe returns a deep copy of the stripe metadata, safe to retain and read
// while concurrent operations (UpdateParityLocation, CommitEncoding) mutate
// the authoritative record.
func (nn *NameNode) Stripe(id topology.StripeID) (*StripeMeta, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	sm, ok := nn.stripes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	return cloneStripeMeta(sm), nil
}

// EncodedStripes lists the IDs of stripes that completed encoding, in
// ascending order.
func (nn *NameNode) EncodedStripes() []topology.StripeID {
	nn.mu.Lock()
	out := make([]topology.StripeID, 0, len(nn.stripes))
	for id, sm := range nn.stripes {
		if sm.Encoded {
			out = append(out, id)
		}
	}
	nn.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveReplicas returns the block's replica nodes that are not dead.
func (nn *NameNode) LiveReplicas(id topology.BlockID) ([]topology.NodeID, error) {
	bs := nn.blockShardFor(id)
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	meta, ok := bs.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	live := make([]topology.NodeID, 0, len(meta.Nodes))
	nn.deadMu.RLock()
	for _, n := range meta.Nodes {
		if !nn.dead[n] {
			live = append(live, n)
		}
	}
	nn.deadMu.RUnlock()
	return live, nil
}

// MarkDead declares a node failed; its replicas become unreadable. Liveness
// transitions are logged like every mutation but applied even if the log
// rejects the append (failing to record a death must not leave the NameNode
// routing reads to a dead node); the log's sticky error still surfaces on
// the next fallible mutation.
func (nn *NameNode) MarkDead(n topology.NodeID) {
	op := &nnOp{kind: opNodeDead, node: n}
	nn.deadMu.Lock()
	lsn, _ := nn.logOp(op)
	nn.dead[n] = true
	nn.deadMu.Unlock()
	_ = nn.waitDurable(lsn)
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
}

// MarkAlive reverses MarkDead: the node rejoins the cluster (its stale
// replicas are assumed invalidated by the rejoin protocol).
func (nn *NameNode) MarkAlive(n topology.NodeID) {
	op := &nnOp{kind: opNodeAlive, node: n}
	nn.deadMu.Lock()
	lsn, _ := nn.logOp(op)
	delete(nn.dead, n)
	nn.deadMu.Unlock()
	_ = nn.waitDurable(lsn)
	if ev, ok := opEvent(op); ok {
		nn.journal().Publish(ev)
	}
}

// IsDead reports whether the node failed.
func (nn *NameNode) IsDead(n topology.NodeID) bool {
	nn.deadMu.RLock()
	defer nn.deadMu.RUnlock()
	return nn.dead[n]
}

// UpdateBlockLocation rewrites a block's replica set (used by the
// BlockMover and by repair). No NameNode event: the data-path layer that
// moved the bytes publishes ReplicaRelocated/ReplicaDeleted.
func (nn *NameNode) UpdateBlockLocation(id topology.BlockID, nodes []topology.NodeID) error {
	op := &nnOp{kind: opBlockMoved, block: id, nodes: nodes}
	bs := nn.blockShardFor(id)
	bs.mu.Lock()
	meta, ok := bs.blocks[id]
	if !ok {
		bs.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	lsn, err := nn.logOp(op)
	if err != nil {
		bs.mu.Unlock()
		return err
	}
	nn.applyBlockMovedLocked(meta, nodes)
	bs.mu.Unlock()
	return nn.waitDurable(lsn)
}

// applyBlockMovedLocked rewrites the block's replica set; the shared apply
// step of block-moved. Caller holds the block's table-shard mutex.
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
	n := 0
	for i := range nn.blockTab {
		bs := &nn.blockTab[i]
		bs.mu.RLock()
		n += len(bs.blocks)
		bs.mu.RUnlock()
	}
	return n
}

func cloneBlockMeta(m *BlockMeta) *BlockMeta {
	c := *m
	c.Nodes = append([]topology.NodeID(nil), m.Nodes...)
	return &c
}
