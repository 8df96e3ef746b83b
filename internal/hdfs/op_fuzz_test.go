package hdfs

import (
	"bytes"
	"testing"

	"ear/internal/placement"
	"ear/internal/topology"
)

// FuzzDecodeOp: arbitrary bytes never panic the op decoder, and anything it
// accepts round-trips through the encoder to the same canonical bytes.
func FuzzDecodeOp(f *testing.F) {
	seeds := []*nnOp{
		{kind: opAllocate, block: 7, size: 1 << 20, core: 2, attempts: 4,
			nodes: []topology.NodeID{1, 5}, targets: []topology.RackID{0, 2}},
		{kind: opCommit, block: 9},
		{kind: opAbort, block: 2},
		{kind: opSealStripe},
		{kind: opFlushStripe, core: 3},
		{kind: opGroupStripe, blocks: []topology.BlockID{1, 2, 3, 4}},
		{kind: opDrainPending},
		{kind: opEncodeCommit, stripe: 5, plan: &placement.PostEncodingPlan{
			Keep: []topology.NodeID{1, 2}, Parity: []topology.NodeID{3, 4},
			Violation: true, Relocated: []int{0}}},
		{kind: opBlockMoved, block: 3, nodes: []topology.NodeID{8}},
		{kind: opParityMoved, stripe: 1, idx: 1, node: 6},
		{kind: opNodeDead, node: 4},
		{kind: opNodeAlive, node: 4},
		{kind: opRequeueStripe, stripe: 12},
	}
	for _, op := range seeds {
		f.Add(op.encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := decodeOp(data)
		if err != nil {
			return
		}
		re := op.encode(nil)
		op2, err := decodeOp(re)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding of %v: %v", op.kind, err)
		}
		if !bytes.Equal(re, op2.encode(nil)) {
			t.Fatalf("%v op encoding is not a fixed point", op.kind)
		}
	})
}
