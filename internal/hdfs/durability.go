package hdfs

// durability.go is the NameNode's crash-recovery layer: op replay, the
// snapshot codec, checkpointing, and the recovered-state event backfill.
// It is the consumer side of the op records defined in op.go — replay
// dispatches each decoded record to the same apply helpers the live
// mutation paths use, so the two can never diverge. Nothing here publishes
// journal events or touches telemetry while recovering; recovery is
// invisible to the observability plane except for the explicit
// MetaRecoveryStarted / MetaRecovered / MetaCheckpointed markers.

import (
	"errors"
	"fmt"
	"sort"
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
// afterwards). On a fresh log it degenerates to just attaching it.
//
// Replay applies ops through the same helpers the live paths use, under mu
// as they are, but publishes no events and records no metrics; call
// PublishRecoveredState afterwards to backfill the canonical event stream
// for subscribers that need the full history (the placement auditor).
func (nn *NameNode) RecoverMeta(l *metalog.Log) error {
	start := time.Now()
	var replayed int64
	var restored bool
	nn.mu.Lock()
	defer nn.mu.Unlock()
	err := l.Recover(func(state []byte) error {
		restored = true
		return nn.restoreSnapshot(state)
	}, func(lsn uint64, payload []byte) error {
		replayed++
		return nn.replayOp(lsn, payload)
	})
	if err != nil {
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
// (0 when none ran or the log was empty).
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

// replayOp decodes one log record and applies it. It runs before the
// NameNode serves traffic, in LSN order — which, because every op is
// appended and applied in one hold of mu, is the live apply order. Caller
// holds mu.
func (nn *NameNode) replayOp(lsn uint64, payload []byte) error {
	op, err := decodeOp(payload)
	if err != nil {
		return fmt.Errorf("lsn %d: %w", lsn, err)
	}
	switch op.kind {
	case opAllocate:
		// Re-apply the recorded placement decision to the policy (EAR keeps
		// open-stripe state; RR keeps none and skips this). The decision is
		// in the record, so no randomness is consumed.
		if nn.ear != nil {
			if op.core < 0 {
				return fmt.Errorf("hdfs: replay lsn %d: allocate of block %d has no core rack", lsn, op.block)
			}
			if err := nn.ear.RestorePlacement(op.block, op.core, op.nodes, op.targets, op.attempts); err != nil {
				return fmt.Errorf("hdfs: replay lsn %d: %w", lsn, err)
			}
		}
		nn.applyAllocateLocked(op, false)
	case opCommit:
		meta, err := nn.replayBlock(lsn, op)
		if err != nil {
			return err
		}
		nn.applyCommitLocked(meta)
	case opAbort:
		meta, err := nn.replayBlock(lsn, op)
		if err != nil {
			return err
		}
		nn.applyAbortLocked(meta)
	case opSealStripe:
		// The preceding allocate's RestorePlacement sealed exactly one
		// stripe; anything else means log and policy state disagree.
		if nn.ear == nil {
			return fmt.Errorf("hdfs: replay lsn %d: seal under a policy that seals no stripes", lsn)
		}
		sealed := nn.ear.TakeSealed()
		if len(sealed) != 1 {
			return fmt.Errorf("hdfs: replay lsn %d: policy has %d sealed stripes, want 1", lsn, len(sealed))
		}
		nn.registerStripeLocked(sealed[0])
	case opFlushStripe:
		if nn.ear == nil {
			return fmt.Errorf("hdfs: replay lsn %d: flush under a policy that keeps no open stripes", lsn)
		}
		info := nn.ear.DropOpen(op.core)
		if info == nil {
			return fmt.Errorf("hdfs: replay lsn %d: no open stripe on core rack %d", lsn, op.core)
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
				return fmt.Errorf("hdfs: replay lsn %d: group references unknown block %d", lsn, b)
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
			return fmt.Errorf("hdfs: replay lsn %d: encode-commit of unknown stripe %d", lsn, op.stripe)
		}
		if err := nn.applyEncodeLocked(sm, op.plan); err != nil {
			return fmt.Errorf("hdfs: replay lsn %d: %w", lsn, err)
		}
	case opBlockMoved:
		meta, err := nn.replayBlock(lsn, op)
		if err != nil {
			return err
		}
		nn.applyBlockMovedLocked(meta, op.nodes)
	case opParityMoved:
		sm, ok := nn.stripes[op.stripe]
		if !ok || sm.Plan == nil || op.idx < 0 || op.idx >= len(sm.Plan.Parity) {
			return fmt.Errorf("hdfs: replay lsn %d: stripe %d has no parity index %d", lsn, op.stripe, op.idx)
		}
		sm.Plan.Parity[op.idx] = op.node
	case opNodeDead:
		nn.dead[op.node] = true
	case opNodeAlive:
		delete(nn.dead, op.node)
	case opRequeueStripe:
		sm, ok := nn.stripes[op.stripe]
		if !ok {
			return fmt.Errorf("hdfs: replay lsn %d: requeue of unknown stripe %d", lsn, op.stripe)
		}
		nn.applyRequeueLocked(sm)
	default:
		return fmt.Errorf("hdfs: replay lsn %d: unhandled op kind %v", lsn, op.kind)
	}
	return nil
}

// replayBlock resolves the block a replayed op refers to. Caller holds mu.
func (nn *NameNode) replayBlock(lsn uint64, op *nnOp) (*BlockMeta, error) {
	meta, ok := nn.blocks[op.block]
	if !ok {
		return nil, fmt.Errorf("hdfs: replay lsn %d: %v of unknown block %d", lsn, op.kind, op.block)
	}
	return meta, nil
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
	for id, sm := range nn.stripes {
		if !sm.Encoded && !queued[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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

// --- snapshot codec ---------------------------------------------------------

// snapshotVersion is the first byte of every state snapshot. Version 1 held
// one open-stripe state per rack's policy instance.
const snapshotVersion = 2

// Block flag bits in the snapshot encoding.
const (
	snapBlockEncoded   = 1 << 0
	snapBlockCommitted = 1 << 1
	snapBlockAborted   = 1 << 2
)

// appendPlacement / readPlacement extend op.go's codec to placements.
func appendPlacement(b []byte, pl topology.Placement) []byte {
	b = appendI64(b, int64(pl.Block))
	return appendNodes(b, pl.Nodes)
}

func (r *opReader) placement() topology.Placement {
	return topology.Placement{Block: topology.BlockID(r.i64()), Nodes: r.nodes()}
}

// appendStripeInfo serializes one placement.StripeInfo.
func appendStripeInfo(b []byte, info *placement.StripeInfo) []byte {
	b = appendI64(b, int64(info.ID))
	b = appendU32(b, uint32(int32(info.CoreRack)))
	b = appendRacks(b, info.Targets)
	b = appendBlocks(b, info.Blocks)
	b = appendU32(b, uint32(len(info.Placements)))
	for _, pl := range info.Placements {
		b = appendPlacement(b, pl)
	}
	b = appendU32(b, uint32(len(info.Iterations)))
	for _, it := range info.Iterations {
		b = appendU32(b, uint32(int32(it)))
	}
	return b
}

func (r *opReader) stripeInfo() *placement.StripeInfo {
	info := &placement.StripeInfo{
		ID:       topology.StripeID(r.i64()),
		CoreRack: topology.RackID(int32(r.u32())),
		Targets:  r.racks(),
		Blocks:   r.blocks(),
	}
	if n := r.count(); r.err == nil && n > 0 {
		info.Placements = make([]topology.Placement, n)
		for i := range info.Placements {
			info.Placements[i] = r.placement()
		}
	}
	if n := r.count(); r.err == nil && n > 0 {
		info.Iterations = make([]int, n)
		for i := range info.Iterations {
			info.Iterations[i] = int(int32(r.u32()))
		}
	}
	return info
}

// encodeStateLocked serializes the complete metadata plane. The caller holds
// mu, for reading at least, so no mutation is half applied and the log's
// LastLSN is exactly the applied prefix. The encoding is canonical — maps are walked in
// sorted order — so byte equality of two encodings is state equality; the
// crash-recovery property tests compare exactly these bytes. The rng is not
// state: placement decisions are recorded in ops at propose time, so
// recovery never re-draws them, and every draw restarts it from the seed
// and what the draw is for (NameNode.draw).
func (nn *NameNode) encodeStateLocked(buf []byte) []byte {
	buf = append(buf, snapshotVersion)
	buf = appendI64(buf, int64(nn.nextBlock))
	buf = appendI64(buf, int64(nn.nextStripe))

	blockIDs := make([]topology.BlockID, 0, len(nn.blocks))
	for id := range nn.blocks {
		blockIDs = append(blockIDs, id)
	}
	sort.Slice(blockIDs, func(i, j int) bool { return blockIDs[i] < blockIDs[j] })
	buf = appendU32(buf, uint32(len(blockIDs)))
	for _, id := range blockIDs {
		m := nn.blocks[id]
		buf = appendI64(buf, int64(m.ID))
		buf = appendI64(buf, int64(m.Size))
		buf = appendI64(buf, int64(m.Stripe))
		var flags byte
		if m.Encoded {
			flags |= snapBlockEncoded
		}
		if m.Committed {
			flags |= snapBlockCommitted
		}
		if m.Aborted {
			flags |= snapBlockAborted
		}
		buf = append(buf, flags)
		buf = appendNodes(buf, m.Nodes)
	}

	stripeIDs := make([]topology.StripeID, 0, len(nn.stripes))
	for id := range nn.stripes {
		stripeIDs = append(stripeIDs, id)
	}
	sort.Slice(stripeIDs, func(i, j int) bool { return stripeIDs[i] < stripeIDs[j] })
	buf = appendU32(buf, uint32(len(stripeIDs)))
	for _, id := range stripeIDs {
		sm := nn.stripes[id]
		buf = appendStripeInfo(buf, sm.Info)
		if sm.Plan != nil {
			buf = append(buf, 1)
			buf = appendNodes(buf, sm.Plan.Keep)
			buf = appendNodes(buf, sm.Plan.Parity)
			if sm.Plan.Violation {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = appendU32(buf, uint32(len(sm.Plan.Relocated)))
			for _, ri := range sm.Plan.Relocated {
				buf = appendU32(buf, uint32(int32(ri)))
			}
		} else {
			buf = append(buf, 0)
		}
		if sm.Encoded {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}

	pre := make([]topology.BlockID, 0, len(nn.preEncoding)) // stripe IDs, i64-coded
	for _, info := range nn.preEncoding {
		pre = append(pre, topology.BlockID(info.ID))
	}
	buf = appendBlocks(buf, pre)
	buf = appendBlocks(buf, nn.rrPending)

	deadIDs := make([]topology.NodeID, 0, len(nn.dead))
	for n := range nn.dead {
		deadIDs = append(deadIDs, n)
	}
	sort.Slice(deadIDs, func(i, j int) bool { return deadIDs[i] < deadIDs[j] })
	buf = appendNodes(buf, deadIDs)

	if nn.ear != nil {
		next, open := nn.ear.OpenState()
		buf = appendI64(buf, int64(next))
		buf = appendU32(buf, uint32(len(open)))
		for _, info := range open {
			buf = appendStripeInfo(buf, info)
		}
	}
	return buf
}

// restoreSnapshot rebuilds the metadata plane from a snapshot produced by
// encodeStateLocked. It runs once, on a freshly constructed NameNode, before
// log-tail replay. Caller holds mu.
func (nn *NameNode) restoreSnapshot(state []byte) error {
	r := &opReader{b: state}
	if v := r.u8(); r.err == nil && v != snapshotVersion {
		return fmt.Errorf("hdfs: snapshot version %d, want %d", v, snapshotVersion)
	}
	nn.nextBlock = topology.BlockID(r.i64())
	nn.nextStripe = topology.StripeID(r.i64())

	nblocks := r.count()
	for i := 0; i < nblocks && r.err == nil; i++ {
		m := &BlockMeta{
			ID:     topology.BlockID(r.i64()),
			Size:   int(r.i64()),
			Stripe: topology.StripeID(r.i64()),
		}
		flags := r.u8()
		m.Encoded = flags&snapBlockEncoded != 0
		m.Committed = flags&snapBlockCommitted != 0
		m.Aborted = flags&snapBlockAborted != 0
		m.Nodes = r.nodes()
		if r.err == nil {
			nn.blocks[m.ID] = m
		}
	}

	nstripes := r.count()
	for i := 0; i < nstripes && r.err == nil; i++ {
		sm := &StripeMeta{Info: r.stripeInfo()}
		if r.u8() != 0 {
			plan := &placement.PostEncodingPlan{Keep: r.nodes(), Parity: r.nodes()}
			plan.Violation = r.u8() != 0
			if n := r.count(); r.err == nil && n > 0 {
				plan.Relocated = make([]int, n)
				for j := range plan.Relocated {
					plan.Relocated[j] = int(int32(r.u32()))
				}
			}
			sm.Plan = plan
		}
		sm.Encoded = r.u8() != 0
		if r.err == nil {
			nn.stripes[sm.Info.ID] = sm
		}
	}

	// preEncoding aliases the registered stripes' Info records, exactly as
	// registerStripeLocked arranges on the live path.
	for _, raw := range r.blocks() {
		id := topology.StripeID(raw)
		sm, ok := nn.stripes[id]
		if !ok {
			if r.err == nil {
				return fmt.Errorf("hdfs: snapshot queues unknown stripe %d", id)
			}
			break
		}
		nn.preEncoding = append(nn.preEncoding, sm.Info)
	}
	nn.rrPending = r.blocks()
	for _, n := range r.nodes() {
		nn.dead[n] = true
	}

	if nn.ear != nil && r.err == nil {
		next := topology.StripeID(r.i64())
		nopen := r.count()
		open := make([]*placement.StripeInfo, 0, nopen)
		for j := 0; j < nopen && r.err == nil; j++ {
			open = append(open, r.stripeInfo())
		}
		if r.err == nil {
			if err := nn.ear.RestoreOpenState(next, open); err != nil {
				return fmt.Errorf("hdfs: restoring open stripes: %w", err)
			}
		}
	}
	if r.err != nil {
		return fmt.Errorf("hdfs: decoding snapshot: %w", r.err)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("hdfs: snapshot has %d trailing bytes", len(r.b))
	}
	return nil
}

// StateDigest returns the canonical encoding of the full metadata plane
// (the same bytes a snapshot stores). Two NameNodes with equal digests hold
// identical metadata; the crash-recovery property tests are built on this.
func (nn *NameNode) StateDigest() []byte {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return nn.encodeStateLocked(nil)
}

// --- checkpoints ------------------------------------------------------------

// SetAutoSnapshot arms automatic checkpointing: after every `every` log
// appends the next mutation to complete takes a snapshot (0 disarms). The
// snapshot is synchronous in that mutation's caller — an occasional
// allocation pays the checkpoint cost, the trade HDFS's periodic
// checkpointing also makes.
func (nn *NameNode) SetAutoSnapshot(every int64) { nn.snapEvery.Store(every) }

// maybeSnapshot checkpoints when the auto-snapshot threshold has passed.
// Called from waitDurable with mu released. Errors are dropped:
// a failed checkpoint leaves the log longer, not the state worse, and the
// next explicit SnapshotNow surfaces them.
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
	_ = nn.SnapshotNow()
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
	state := nn.encodeStateLocked(nil)
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

// PublishRecoveredState republishes the canonical event stream implied by
// the recovered metadata, bracketed by MetaRecoveryStarted / MetaRecovered.
// Restart discards the old process's journal, but subscribers like the
// placement auditor model cluster state purely from events — this backfill
// hands them the recovered layout in an order that satisfies every audited
// invariant the state itself satisfies:
//
//  1. every block's BlockAllocated (original placement, so a stripe's
//     grouping event trails its members' allocations),
//  2. every stripe's StripeGrouped, plus StripeEncodeStarted for encoded
//     stripes (suspending replica-count checks before step 3 shrinks
//     encoded members to their kept replica),
//  3. every block's BlockCommitted (current replicas) or BlockAborted,
//  4. every encoded stripe's StripeEncoded (current parity locations),
//  5. NodeDead for the failed-node set.
//
// Call it after RecoverMeta, before serving traffic, with the journal the
// new process will use; planes.Attach does when it adds a journal fold.
func (nn *NameNode) PublishRecoveredState(j *events.Journal) {
	if j == nil {
		return
	}
	j.Publish(events.New(events.MetaRecoveryStarted, "namenode"))

	// Clone the plane under mu, publish after releasing it.
	nn.mu.RLock()
	blocks := make([]*BlockMeta, 0, len(nn.blocks))
	for _, m := range nn.blocks {
		blocks = append(blocks, cloneBlockMeta(m))
	}
	stripes := make([]*StripeMeta, 0, len(nn.stripes))
	for _, sm := range nn.stripes {
		stripes = append(stripes, cloneStripeMeta(sm))
	}
	dead := make([]topology.NodeID, 0, len(nn.dead))
	for n := range nn.dead {
		dead = append(dead, n)
	}
	nn.mu.RUnlock()
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	sort.Slice(stripes, func(i, j int) bool { return stripes[i].Info.ID < stripes[j].Info.ID })
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })

	// originalNodes: the placement the block was allocated with — recorded in
	// its stripe's Info (the block table holds only the current, possibly
	// encode-collapsed, replica set). The stripes are indexed once so the
	// backfill, which every restart runs, stays linear in the block count.
	byID := make(map[topology.StripeID]*StripeMeta, len(stripes))
	for _, sm := range stripes {
		byID[sm.Info.ID] = sm
	}
	originalNodes := func(m *BlockMeta) []topology.NodeID {
		if sm, ok := byID[m.Stripe]; ok {
			for i, b := range sm.Info.Blocks {
				if b == m.ID && i < len(sm.Info.Placements) {
					return sm.Info.Placements[i].Nodes
				}
			}
		}
		return m.Nodes
	}

	for _, m := range blocks {
		ev := events.New(events.BlockAllocated, "namenode")
		ev.Block = m.ID
		ev.Bytes = int64(m.Size)
		ev.Nodes = append([]topology.NodeID(nil), originalNodes(m)...)
		j.Publish(ev)
	}
	for _, sm := range stripes {
		ev := events.New(events.StripeGrouped, "namenode")
		ev.Stripe = sm.Info.ID
		ev.Rack = sm.Info.CoreRack
		ev.Blocks = append([]topology.BlockID(nil), sm.Info.Blocks...)
		j.Publish(ev)
		if sm.Encoded {
			sev := events.New(events.StripeEncodeStarted, "namenode")
			sev.Stripe = sm.Info.ID
			j.Publish(sev)
		}
	}
	for _, m := range blocks {
		switch {
		case m.Aborted:
			ev := events.New(events.BlockAborted, "namenode")
			ev.Block = m.ID
			j.Publish(ev)
		case m.Committed:
			ev := events.New(events.BlockCommitted, "namenode")
			ev.Block = m.ID
			ev.Nodes = append([]topology.NodeID(nil), m.Nodes...)
			j.Publish(ev)
		}
	}
	for _, sm := range stripes {
		if !sm.Encoded || sm.Plan == nil {
			continue
		}
		ev := events.New(events.StripeEncoded, "namenode")
		ev.Stripe = sm.Info.ID
		ev.Nodes = append([]topology.NodeID(nil), sm.Plan.Parity...)
		j.Publish(ev)
	}
	for _, n := range dead {
		ev := events.New(events.NodeDead, "namenode")
		ev.Node = n
		j.Publish(ev)
	}

	done := events.New(events.MetaRecovered, "namenode")
	done.Dur = time.Duration(nn.recoveredIn.Load())
	done.Bytes = nn.recoveredOps.Load()
	done.Detail = fmt.Sprintf("blocks=%d stripes=%d dead=%d", len(blocks), len(stripes), len(dead))
	j.Publish(done)
}
