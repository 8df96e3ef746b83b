package hdfs

import (
	"encoding/binary"
	"fmt"

	"ear/internal/events"
	"ear/internal/placement"
	"ear/internal/topology"
)

// opKind enumerates the NameNode's typed mutation records. Every state
// change the NameNode performs — and nothing else — has a kind here; the
// write-ahead log is a sequence of these records, and crash recovery is
// their replay. Values are part of the on-disk format: never renumber,
// only append. A record whose layout changes takes a new value, so a log
// written before the change fails to decode instead of replaying: kinds 1, 4
// and 5 were allocate, seal-stripe and flush-stripe records that named one of
// several per-rack policy instances, and are retired.
type opKind uint8

const (
	// opAllocate records a block allocation with its decided placement:
	// replica nodes, core rack, the open stripe's target racks, and the
	// iteration count, so replay can restore the policy's open-stripe state
	// without consuming randomness.
	opAllocate opKind = 14
	// opCommit records that a block's replicas are durably written.
	opCommit opKind = 2
	// opAbort records an abandoned uncommitted allocation.
	opAbort opKind = 3
	// opSealStripe records that the policy sealed a stripe at k blocks;
	// apply drains it via TakeSealed and registers it under the next
	// global stripe ID.
	opSealStripe opKind = 15
	// opFlushStripe records the early seal of one core rack's open stripe
	// (FlushOpenStripes); apply drops it from the policy and registers it.
	opFlushStripe opKind = 16
	// opGroupStripe records an RR stripe grouped from k committed blocks.
	opGroupStripe opKind = 6
	// opDrainPending records that the pre-encoding store was handed to the
	// encoding pipeline.
	opDrainPending opKind = 7
	// opEncodeCommit records a completed encoding: the post-encoding plan
	// and the collapse of every member to a single replica.
	opEncodeCommit opKind = 8
	// opBlockMoved records a block replica-set rewrite (BlockMover, repair).
	opBlockMoved opKind = 9
	// opParityMoved records the relocation of one parity block.
	opParityMoved opKind = 10
	// opNodeDead / opNodeAlive record node liveness transitions.
	opNodeDead  opKind = 11
	opNodeAlive opKind = 12
	// opRequeueStripe records that a registered, unencoded stripe was put
	// back into the pre-encoding store (after a crash interrupted the
	// encoding run that had drained it).
	opRequeueStripe opKind = 13
)

// opNames names the kinds for errors and debugging.
var opNames = map[opKind]string{
	opAllocate: "allocate", opCommit: "commit", opAbort: "abort",
	opSealStripe: "seal-stripe", opFlushStripe: "flush-stripe", opGroupStripe: "group-stripe",
	opDrainPending: "drain-pending", opEncodeCommit: "encode-commit",
	opBlockMoved: "block-moved", opParityMoved: "parity-moved",
	opNodeDead: "node-dead", opNodeAlive: "node-alive", opRequeueStripe: "requeue-stripe",
}

// String names the kind for errors and debugging.
func (k opKind) String() string {
	if name, ok := opNames[k]; ok {
		return name
	}
	return fmt.Sprintf("opKind(%d)", uint8(k))
}

// nnOp is one typed operation record: the union of every mutation's decided
// outcome. Policy decisions (placements, plans) are made at propose time and
// recorded here, so applying an op — live or during replay — is fully
// deterministic. Fields not listed for a kind in the comments above are
// unused by it and not serialized.
type nnOp struct {
	kind     opKind
	block    topology.BlockID
	size     int64
	core     topology.RackID
	attempts int
	nodes    []topology.NodeID
	targets  []topology.RackID
	blocks   []topology.BlockID
	stripe   topology.StripeID
	plan     *placement.PostEncodingPlan
	idx      int
	node     topology.NodeID
}

// --- binary codec -----------------------------------------------------------
//
// Fixed-width little-endian fields behind a one-byte kind tag. Slice fields
// carry a u32 count; node, rack and index lists hold 4-byte elements, block
// lists 8-byte ones. Integrity is the metalog's job (per-record CRC); the
// decoder still bounds-checks everything so a bug can never panic.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendI32s appends a list of node IDs, rack IDs or indices.
func appendI32s[T ~int](b []byte, xs []T) []byte {
	b = appendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendU32(b, uint32(int32(x)))
	}
	return b
}

// appendBlocks appends a list of block IDs.
func appendBlocks(b []byte, blocks []topology.BlockID) []byte {
	b = appendU32(b, uint32(len(blocks)))
	for _, id := range blocks {
		b = appendI64(b, int64(id))
	}
	return b
}

// encode serializes the op, appending to buf (which may be nil).
func (op *nnOp) encode(buf []byte) []byte {
	buf = append(buf, byte(op.kind))
	switch op.kind {
	case opAllocate:
		buf = appendI64(buf, int64(op.block))
		buf = appendI64(buf, op.size)
		buf = appendU32(buf, uint32(int32(op.core)))
		buf = appendU32(buf, uint32(op.attempts))
		buf = appendI32s(buf, op.nodes)
		buf = appendI32s(buf, op.targets)
	case opCommit, opAbort:
		buf = appendI64(buf, int64(op.block))
	case opSealStripe, opDrainPending:
		// kind tag only
	case opFlushStripe:
		buf = appendU32(buf, uint32(int32(op.core)))
	case opGroupStripe:
		buf = appendBlocks(buf, op.blocks)
	case opEncodeCommit:
		buf = appendI64(buf, int64(op.stripe))
		buf = appendI32s(buf, op.plan.Keep)
		buf = appendI32s(buf, op.plan.Parity)
		var violation byte
		if op.plan.Violation {
			violation = 1
		}
		buf = appendI32s(append(buf, violation), op.plan.Relocated)
	case opBlockMoved:
		buf = appendI64(buf, int64(op.block))
		buf = appendI32s(buf, op.nodes)
	case opParityMoved:
		buf = appendI64(buf, int64(op.stripe))
		buf = appendU32(buf, uint32(op.idx))
		buf = appendU32(buf, uint32(int32(op.node)))
	case opNodeDead, opNodeAlive:
		buf = appendU32(buf, uint32(int32(op.node)))
	case opRequeueStripe:
		buf = appendI64(buf, int64(op.stripe))
	}
	return buf
}

// opReader is a bounds-checked cursor over an encoded op.
type opReader struct {
	b   []byte
	err error
}

func (r *opReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail(1)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *opReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *opReader) i64() int64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return int64(v)
}

func (r *opReader) fail(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("hdfs: op record truncated: need %d bytes, have %d", n, len(r.b))
	}
}

// count reads a slice length and sanity-bounds it against the remaining
// bytes (each element is at least one byte in every field layout).
func (r *opReader) count() int {
	n := r.u32()
	if r.err == nil && int(n) > len(r.b) {
		r.err = fmt.Errorf("hdfs: op record count %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// readI32s reads a list appendI32s wrote; nil when it is empty.
func readI32s[T ~int](r *opReader) []T {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(r.u32()))
	}
	return out
}

func (r *opReader) blocks() []topology.BlockID {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]topology.BlockID, n)
	for i := range out {
		out[i] = topology.BlockID(r.i64())
	}
	return out
}

// decodeOp parses one op record.
func decodeOp(payload []byte) (*nnOp, error) {
	r := &opReader{b: payload}
	op := &nnOp{kind: opKind(r.u8())}
	switch op.kind {
	case opAllocate:
		op.block = topology.BlockID(r.i64())
		op.size = r.i64()
		op.core = topology.RackID(int32(r.u32()))
		op.attempts = int(int32(r.u32()))
		op.nodes = readI32s[topology.NodeID](r)
		op.targets = readI32s[topology.RackID](r)
	case opCommit, opAbort:
		op.block = topology.BlockID(r.i64())
	case opSealStripe, opDrainPending:
	case opFlushStripe:
		op.core = topology.RackID(int32(r.u32()))
	case opGroupStripe:
		op.blocks = r.blocks()
	case opEncodeCommit:
		op.stripe = topology.StripeID(r.i64())
		op.plan = &placement.PostEncodingPlan{
			Keep:      readI32s[topology.NodeID](r),
			Parity:    readI32s[topology.NodeID](r),
			Violation: r.u8() != 0,
			Relocated: readI32s[int](r),
		}
	case opBlockMoved:
		op.block = topology.BlockID(r.i64())
		op.nodes = readI32s[topology.NodeID](r)
	case opParityMoved:
		op.stripe = topology.StripeID(r.i64())
		op.idx = int(int32(r.u32()))
		op.node = topology.NodeID(int32(r.u32()))
	case opNodeDead, opNodeAlive:
		op.node = topology.NodeID(int32(r.u32()))
	case opRequeueStripe:
		op.stripe = topology.StripeID(r.i64())
	default:
		return nil, fmt.Errorf("hdfs: unknown op kind %d", uint8(op.kind))
	}
	if r.err != nil {
		return nil, fmt.Errorf("hdfs: decoding %v op: %w", op.kind, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("hdfs: %v op has %d trailing bytes", op.kind, len(r.b))
	}
	return op, nil
}

// opEvent builds the one canonical journal event for an applied op. Every
// NameNode mutation that is observable in the event stream goes through
// here — the single place event fields are chosen — so no two call sites can
// drift. ok is false for ops with no NameNode-level event: drain-pending and
// requeue are pure bookkeeping (the stripe's StripeGrouped event already
// exists), and replica moves are published by the data-path layer that
// performed the transfer (ReplicaRelocated / ReplicaDeleted), keeping the
// cluster-wide invariant of exactly one canonical event per mutation.
//
// Decided fields the apply step fills in (op.stripe and op.blocks for
// stripe registrations, op.nodes for commits) must be set before calling.
func opEvent(op *nnOp) (events.Event, bool) {
	switch op.kind {
	case opAllocate:
		ev := events.New(events.BlockAllocated, "namenode")
		ev.Block = op.block
		ev.Bytes = op.size
		ev.Nodes = append([]topology.NodeID(nil), op.nodes...)
		return ev, true
	case opCommit:
		ev := events.New(events.BlockCommitted, "namenode")
		ev.Block = op.block
		ev.Nodes = append([]topology.NodeID(nil), op.nodes...)
		return ev, true
	case opAbort:
		ev := events.New(events.BlockAborted, "namenode")
		ev.Block = op.block
		return ev, true
	case opSealStripe, opFlushStripe, opGroupStripe:
		ev := events.New(events.StripeGrouped, "namenode")
		ev.Stripe = op.stripe
		ev.Rack = op.core
		ev.Blocks = append([]topology.BlockID(nil), op.blocks...)
		return ev, true
	case opEncodeCommit:
		ev := events.New(events.StripeEncoded, "namenode")
		ev.Stripe = op.stripe
		ev.Nodes = append([]topology.NodeID(nil), op.plan.Parity...)
		return ev, true
	case opNodeDead:
		ev := events.New(events.NodeDead, "namenode")
		ev.Node = op.node
		return ev, true
	case opNodeAlive:
		ev := events.New(events.NodeAlive, "namenode")
		ev.Node = op.node
		return ev, true
	}
	return events.Event{}, false
}
