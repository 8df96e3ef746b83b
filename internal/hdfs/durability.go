package hdfs

// durability.go is the NameNode's crash-recovery layer: op replay, the
// canonical op sequence that snapshots, the state digest and the
// recovered-state event backfill are all made of, and checkpointing. It is
// the consumer side of the op records defined in op.go — replay dispatches
// each decoded record to the same apply helpers the live mutation paths use,
// so the two can never diverge. Nothing here publishes journal events or
// touches telemetry while recovering; recovery is invisible to the
// observability plane except for the explicit MetaRecoveryStarted /
// MetaRecovered / MetaCheckpointed markers.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"ear/internal/events"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/topology"
)

// ErrNoMetaLog indicates a durability operation on a NameNode with no
// write-ahead log attached.
var ErrNoMetaLog = errors.New("hdfs: no metadata log attached")

// RecoverMeta rebuilds the NameNode from the log's newest snapshot plus its
// op tail, then attaches the log so every subsequent mutation is appended to
// it. It must be called exactly once, before the NameNode serves traffic
// (it is the only writer of nn.wal, which is read without synchronization
// afterwards). On a fresh log it degenerates to just attaching it. When it
// fails it installs nothing: the NameNode is left as empty as it was built.
//
// The snapshot and the tail are both op records, applied by replayOp through
// the same helpers the live paths use, under mu as they are, but publishing
// no events and recording no metrics; call PublishRecoveredState afterwards
// to backfill the canonical event stream for subscribers that need the full
// history (the placement auditor).
func (nn *NameNode) RecoverMeta(l *metalog.Log) error {
	start := time.Now()
	var replayed int64
	var restored bool
	nn.mu.Lock()
	defer nn.mu.Unlock()
	err := l.Recover(func(state []byte) error {
		restored = true
		return nn.replaySnapshot(state)
	}, func(_ uint64, payload []byte) error {
		replayed++
		return nn.replayOp(payload)
	})
	if err != nil {
		nn.resetLocked()
		return fmt.Errorf("hdfs: recovering metadata: %w", err)
	}
	nn.wal = l
	nn.recoveredOps.Store(replayed)
	nn.recovered.Store(restored || replayed > 0)
	nn.recoveredIn.Store(int64(time.Since(start)))
	return nil
}

// MetaStats returns the attached log's counters; ok is false when the
// NameNode runs without a write-ahead log.
func (nn *NameNode) MetaStats() (metalog.Stats, bool) {
	if nn.wal == nil {
		return metalog.Stats{}, false
	}
	return nn.wal.Stats(), true
}

// RecoveredOps reports how many log records the last RecoverMeta replayed
// after its snapshot (0 when none ran or the log was empty).
func (nn *NameNode) RecoveredOps() int64 { return nn.recoveredOps.Load() }

// Recovered reports whether RecoverMeta loaded any state: a snapshot or at
// least one log record. It is false on a fresh log and without one.
func (nn *NameNode) Recovered() bool { return nn.recovered.Load() }

// CloseMeta flushes and closes the write-ahead log; a no-op without one.
func (nn *NameNode) CloseMeta() error {
	if nn.wal == nil {
		return nil
	}
	return nn.wal.Close()
}

// --- replay -----------------------------------------------------------------

// replayOp decodes one op record and applies it. It runs before the
// NameNode serves traffic, over a snapshot's op sequence and then the log
// tail in LSN order — which, because every op is appended and applied in one
// hold of mu, is the live apply order. Caller holds mu.
func (nn *NameNode) replayOp(payload []byte) error {
	op, err := decodeOp(payload)
	if err != nil {
		return err
	}
	var meta *BlockMeta // the block a commit, abort or move names
	switch op.kind {
	case opAllocate:
		// Blocks are allocated in ID order, live and in a snapshot.
		if op.block < nn.nextBlock {
			return fmt.Errorf("hdfs: block %d allocated after block %d", op.block, nn.nextBlock-1)
		}
	case opCommit, opAbort, opBlockMoved:
		if meta = nn.blocks[op.block]; meta == nil {
			return fmt.Errorf("hdfs: %v of unknown block %d", op.kind, op.block)
		}
	case opSealStripe, opFlushStripe:
		if nn.ear == nil {
			return fmt.Errorf("hdfs: %v under a policy that keeps no open stripes", op.kind)
		}
	}
	switch op.kind {
	case opAllocate:
		// Re-apply the recorded placement decision to the policy (EAR keeps
		// open-stripe state; RR keeps none and skips this). The decision is
		// in the record, so no randomness is consumed.
		if nn.ear != nil {
			if op.core < 0 {
				return fmt.Errorf("hdfs: allocate of block %d has no core rack", op.block)
			}
			if err := nn.ear.RestorePlacement(op.block, op.core, op.nodes, op.targets, op.attempts); err != nil {
				return err
			}
		}
		nn.applyAllocateLocked(op, false)
	case opCommit:
		nn.applyCommitLocked(meta)
	case opAbort:
		nn.applyAbortLocked(meta)
	case opSealStripe:
		// The preceding allocate's RestorePlacement sealed exactly one
		// stripe; anything else means log and policy state disagree.
		sealed := nn.ear.TakeSealed()
		if len(sealed) != 1 {
			return fmt.Errorf("hdfs: policy has %d sealed stripes, want 1", len(sealed))
		}
		nn.registerStripeLocked(sealed[0])
	case opFlushStripe:
		info := nn.ear.DropOpen(op.core)
		if info == nil {
			return fmt.Errorf("hdfs: no open stripe on core rack %d", op.core)
		}
		nn.registerStripeLocked(info)
	case opGroupStripe:
		// Rebuild the RR group exactly as GroupIntoStripes did: members in
		// recorded order, placements snapshotted from the block table (which
		// at this point in the replay holds what it held live).
		info := &placement.StripeInfo{CoreRack: -1}
		for _, b := range op.blocks {
			meta, ok := nn.blocks[b]
			if !ok {
				return fmt.Errorf("hdfs: group references unknown block %d", b)
			}
			pl := topology.Placement{Block: b, Nodes: append([]topology.NodeID(nil), meta.Nodes...)}
			info.Blocks = append(info.Blocks, b)
			info.Placements = append(info.Placements, pl)
		}
		nn.registerStripeLocked(info)
		nn.removePendingLocked(op.blocks)
	case opDrainPending:
		nn.applyDrainLocked()
	case opEncodeCommit:
		sm, ok := nn.stripes[op.stripe]
		if !ok {
			return fmt.Errorf("hdfs: encode-commit of unknown stripe %d", op.stripe)
		}
		if err := nn.applyEncodeLocked(sm, op.plan); err != nil {
			return err
		}
	case opBlockMoved:
		nn.applyBlockMovedLocked(meta, op.nodes)
	case opParityMoved:
		sm, ok := nn.stripes[op.stripe]
		if !ok || sm.Plan == nil || op.idx < 0 || op.idx >= len(sm.Plan.Parity) {
			return fmt.Errorf("hdfs: stripe %d has no parity index %d", op.stripe, op.idx)
		}
		sm.Plan.Parity[op.idx] = op.node
	case opNodeDead:
		nn.dead[op.node] = true
	case opNodeAlive:
		delete(nn.dead, op.node)
	case opRequeueStripe:
		sm, ok := nn.stripes[op.stripe]
		if !ok {
			return fmt.Errorf("hdfs: requeue of unknown stripe %d", op.stripe)
		}
		nn.applyRequeueLocked(sm)
	default:
		return fmt.Errorf("hdfs: unhandled op kind %v", op.kind)
	}
	return nil
}

// resetLocked empties the metadata plane, undoing a replay that failed part
// way. The policy's stripe-ID counter is not state (stripes take the
// NameNode's IDs when they register) and is left as it is. Caller holds mu.
func (nn *NameNode) resetLocked() {
	nn.nextBlock, nn.nextStripe = 0, 0
	clear(nn.blocks)
	clear(nn.stripes)
	clear(nn.dead)
	nn.preEncoding, nn.rrPending = nil, nil
	if nn.ear != nil {
		nn.ear.FlushOpen()
		nn.ear.TakeSealed()
	}
}

// --- requeue ----------------------------------------------------------------

// RequeueUnencodedStripes puts every registered, unencoded stripe that is
// not already queued back into the pre-encoding store, so an encoding run
// interrupted by a crash can be restarted after recovery (the drain op that
// handed the stripes out is in the log, so replay alone leaves them parked).
// Returns the number of stripes requeued.
func (nn *NameNode) RequeueUnencodedStripes() (int, error) {
	nn.mu.Lock()
	queued := make(map[topology.StripeID]bool, len(nn.preEncoding))
	for _, info := range nn.preEncoding {
		queued[info.ID] = true
	}
	var ids []topology.StripeID
	for id := topology.StripeID(0); id < nn.nextStripe; id++ {
		if !nn.stripes[id].Encoded && !queued[id] {
			ids = append(ids, id)
		}
	}
	var lsn uint64
	for _, id := range ids {
		var err error
		if lsn, err = nn.logOp(&nnOp{kind: opRequeueStripe, stripe: id}); err != nil {
			nn.mu.Unlock()
			return 0, err
		}
		nn.applyRequeueLocked(nn.stripes[id])
	}
	nn.mu.Unlock()
	if err := nn.waitDurable(lsn); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// applyRequeueLocked puts a stripe back into the pre-encoding store; the
// shared apply step of requeue. Caller holds mu.
func (nn *NameNode) applyRequeueLocked(sm *StripeMeta) {
	nn.preEncoding = append(nn.preEncoding, sm.Info)
}

// --- the state as an op sequence --------------------------------------------

// snapshotVersion is the first byte of every state snapshot. Version 1 held
// one open-stripe state per rack's policy instance; version 2 was a table of
// blocks, stripes and open stripes in a codec of its own.
const snapshotVersion = 3

// stateOps calls yield with each op of the canonical sequence that rebuilds
// the NameNode's state from an empty one through replayOp:
//
//  1. every block's allocate, in ID order, with the placement, core rack,
//     targets and attempts its stripe recorded (a block in no stripe, under
//     RR, with its current replicas), each followed by the seal, flush or
//     group of every stripe all of whose members are then allocated, in ID
//     order — so stripes register in ID order, and a sealed one right after
//     the allocate that filled it, as they did live;
//  2. every block's commit or abort, in ID order, those in RR's grouping
//     queue last, in queue order;
//  3. one drain-pending, then a requeue for each stripe in the pre-encoding
//     store, in its order;
//  4. every encoded stripe's encode-commit, with its stored plan, whose
//     parity holders are the current ones;
//  5. block-moved for every block whose replicas differ from those the ops
//     above leave it with;
//  6. node-dead for every dead node, in ID order.
//
// The sequence is a function of the state alone, so it is the state's
// canonical form: StateDigest is its bytes, a snapshot stores them, and
// PublishRecoveredState publishes its events. Besides the fields they encode,
// the ops carry those their events read: a registration's stripe, core rack
// and members, a commit's current replicas. Every op is yielded in one
// reused value, which yield must not keep. The rng is not state: placement
// decisions are recorded in ops at propose time, so recovery never re-draws
// them, and every draw restarts it from the seed and what the draw is for
// (NameNode.draw). Caller holds mu, for reading at least.
func (nn *NameNode) stateOps(yield func(*nnOp)) {
	var op nnOp
	emit := func(o nnOp) {
		op = o
		yield(&op)
	}
	metas := make([]*BlockMeta, 0, len(nn.blocks))
	for _, m := range nn.blocks {
		metas = append(metas, m)
	}
	slices.SortFunc(metas, func(a, b *BlockMeta) int { return cmp.Compare(a.ID, b.ID) })
	open := map[topology.BlockID]*placement.StripeInfo{}
	if nn.ear != nil {
		_, infos := nn.ear.OpenState()
		for _, info := range infos {
			for _, b := range info.Blocks {
				open[b] = info
			}
		}
	}

	// Stripes are numbered 0, 1, ... as they register (registerStripeLocked).
	var next topology.StripeID // the next stripe to register
	register := func(allocated topology.BlockID) {
		for ; next < nn.nextStripe; next++ {
			info := nn.stripes[next].Info
			if len(info.Blocks) > 0 && slices.Max(info.Blocks) > allocated {
				return
			}
			o := nnOp{kind: opGroupStripe, stripe: info.ID, core: info.CoreRack, blocks: info.Blocks}
			if nn.ear != nil {
				o.kind = opFlushStripe
				if len(info.Blocks) == nn.cfg.K {
					o.kind = opSealStripe
				}
			}
			emit(o)
		}
	}
	var moved []*BlockMeta // blocks the ops leave elsewhere than they are
	for _, m := range metas {
		a := nnOp{kind: opAllocate, block: m.ID, size: int64(m.Size), core: -1, attempts: 1, nodes: m.Nodes}
		left := m.Nodes // a block in no stripe is allocated where it is
		sm := nn.stripes[m.Stripe]
		info := open[m.ID]
		if sm != nil {
			info = sm.Info
		}
		if info != nil {
			if i := slices.Index(info.Blocks, m.ID); i >= 0 && i < len(info.Placements) {
				a.nodes, a.core, a.targets = info.Placements[i].Nodes, info.CoreRack, info.Targets
				if i < len(info.Iterations) {
					a.attempts = info.Iterations[i]
				}
				left = a.nodes
				if sm != nil && sm.Encoded {
					left = sm.Plan.Keep[i : i+1]
				}
			}
		}
		if m.Aborted {
			left = nil
		}
		if !slices.Equal(m.Nodes, left) {
			moved = append(moved, m)
		}
		emit(a)
		register(m.ID)
	}
	register(nn.nextBlock)

	queued := make(map[topology.BlockID]bool, len(nn.rrPending))
	for _, b := range nn.rrPending {
		queued[b] = true
	}
	settle := func(m *BlockMeta) {
		switch {
		case m.Aborted:
			emit(nnOp{kind: opAbort, block: m.ID})
		case m.Committed:
			emit(nnOp{kind: opCommit, block: m.ID, nodes: m.Nodes})
		}
	}
	for _, m := range metas {
		if !queued[m.ID] {
			settle(m)
		}
	}
	for _, b := range nn.rrPending {
		if m, ok := nn.blocks[b]; ok {
			settle(m)
		}
	}

	emit(nnOp{kind: opDrainPending})
	for _, info := range nn.preEncoding {
		emit(nnOp{kind: opRequeueStripe, stripe: info.ID})
	}
	for sid := topology.StripeID(0); sid < nn.nextStripe; sid++ {
		if sm := nn.stripes[sid]; sm.Encoded {
			emit(nnOp{kind: opEncodeCommit, stripe: sid, plan: sm.Plan})
		}
	}
	for _, m := range moved {
		emit(nnOp{kind: opBlockMoved, block: m.ID, nodes: m.Nodes})
	}

	dead := make([]topology.NodeID, 0, len(nn.dead))
	for n := range nn.dead {
		dead = append(dead, n)
	}
	slices.Sort(dead)
	for _, n := range dead {
		emit(nnOp{kind: opNodeDead, node: n})
	}
}

// stateBytesLocked encodes the canonical op sequence: snapshotVersion, then
// each op's record behind its u32 length. Byte equality of two encodings is
// state equality; the crash-recovery property tests compare exactly these
// bytes. Caller holds mu, for reading at least.
func (nn *NameNode) stateBytesLocked() []byte {
	// An EAR block's allocate and commit take about 64 bytes.
	buf := append(make([]byte, 0, 64*len(nn.blocks)+64), snapshotVersion)
	nn.stateOps(func(op *nnOp) {
		at := len(buf)
		buf = op.encode(append(buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	})
	return buf
}

// replaySnapshot applies the op sequence a snapshot holds
// (stateBytesLocked) through replayOp. Caller holds mu.
func (nn *NameNode) replaySnapshot(state []byte) error {
	r := &opReader{b: state}
	if v := r.u8(); v != snapshotVersion {
		return fmt.Errorf("hdfs: snapshot version %d, want %d", v, snapshotVersion)
	}
	for i := 0; len(r.b) > 0; i++ {
		n := r.count()
		if r.err != nil {
			return fmt.Errorf("hdfs: snapshot op %d: %w", i, r.err)
		}
		rec := r.b[:n]
		r.b = r.b[n:]
		if err := nn.replayOp(rec); err != nil {
			return fmt.Errorf("snapshot op %d: %w", i, err)
		}
	}
	return nil
}

// StateDigest returns the canonical encoding of the full metadata plane
// (the bytes a snapshot stores). Two NameNodes with equal digests hold
// identical metadata; the crash-recovery property tests are built on this.
func (nn *NameNode) StateDigest() []byte {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return nn.stateBytesLocked()
}

// --- checkpoints ------------------------------------------------------------

// SetAutoSnapshot arms automatic checkpointing: after every `every` log
// appends the next mutation to complete takes a snapshot (0 disarms). The
// snapshot is synchronous in that mutation's caller — an occasional
// allocation pays the checkpoint cost, the trade HDFS's periodic
// checkpointing also makes.
func (nn *NameNode) SetAutoSnapshot(every int64) { nn.snapEvery.Store(every) }

// maybeSnapshot checkpoints when the auto-snapshot threshold has passed.
// Called from waitDurable with mu released. A failed checkpoint leaves the
// log longer, not the state worse, so the mutation still succeeds; the
// failure counts in namenode_checkpoint_failures, and the next attempt waits
// for another `every` appends.
func (nn *NameNode) maybeSnapshot() {
	every := nn.snapEvery.Load()
	if nn.wal == nil || every <= 0 {
		return
	}
	if int64(nn.wal.Stats().Appends)-nn.lastSnapAppends.Load() < every {
		return
	}
	if !nn.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	defer nn.snapInFlight.Store(false)
	if err := nn.SnapshotNow(); err != nil {
		nn.lastSnapAppends.Store(int64(nn.wal.Stats().Appends))
		if m := nn.metrics(); m != nil {
			m.checkpointFailures.Inc()
		}
	}
}

// SnapshotNow freezes the metadata plane, writes a snapshot of it at the
// log position the freeze observed, and truncates the log's covered prefix.
// Mutations in flight block for the (brief) freeze; the snapshot file write
// happens after they resume. Publishes one MetaCheckpointed event.
func (nn *NameNode) SnapshotNow() error {
	if nn.wal == nil {
		return ErrNoMetaLog
	}
	start := time.Now()
	nn.mu.RLock()
	lsn := nn.wal.LastLSN()
	state := nn.stateBytesLocked()
	nn.mu.RUnlock()
	if err := nn.wal.Snapshot(lsn, state); err != nil {
		return err
	}
	nn.lastSnapAppends.Store(int64(nn.wal.Stats().Appends))
	if j := nn.journal(); j != nil {
		ev := events.New(events.MetaCheckpointed, "namenode")
		ev.Bytes = int64(len(state))
		ev.Dur = time.Since(start)
		j.Publish(ev)
	}
	return nil
}

// --- recovered-state event backfill -----------------------------------------

// PublishRecoveredState republishes the recovered metadata as the events of
// its canonical op sequence (stateOps), bracketed by MetaRecoveryStarted /
// MetaRecovered. Restart discards the old process's journal, but subscribers
// like the placement auditor model cluster state purely from events. Every
// event is the one opEvent builds for an op of the sequence, but one: an
// encoded stripe's registration is followed by its StripeEncodeStarted, which
// has no op, so the replica-count check is suspended before the commits
// shrink its members to their kept replica and its StripeEncoded follows.
//
// Call it after RecoverMeta, before serving traffic, with the journal the
// new process will use; planes.Attach does when it adds a journal fold.
func (nn *NameNode) PublishRecoveredState(j *events.Journal) {
	if j == nil {
		return
	}
	j.Publish(events.New(events.MetaRecoveryStarted, "namenode"))

	// Build the events under mu, publish after releasing it.
	var evs []events.Event
	nn.mu.RLock()
	nn.stateOps(func(op *nnOp) {
		ev, ok := opEvent(op)
		if !ok {
			return
		}
		evs = append(evs, ev)
		if ev.Type == events.StripeGrouped && nn.stripes[op.stripe].Encoded {
			ev = events.New(events.StripeEncodeStarted, "namenode")
			ev.Stripe = op.stripe
			evs = append(evs, ev)
		}
	})
	done := events.New(events.MetaRecovered, "namenode")
	done.Detail = fmt.Sprintf("blocks=%d stripes=%d dead=%d", len(nn.blocks), len(nn.stripes), len(nn.dead))
	nn.mu.RUnlock()
	for _, ev := range evs {
		j.Publish(ev)
	}
	done.Dur = time.Duration(nn.recoveredIn.Load())
	done.Bytes = nn.recoveredOps.Load()
	j.Publish(done)
}
