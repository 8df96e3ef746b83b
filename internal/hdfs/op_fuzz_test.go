package hdfs

import (
	"bytes"
	"math/rand"
	"testing"

	"ear/internal/metalog"
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

// FuzzRestoreSnapshot: recovery from a snapshot of arbitrary bytes never
// panics. Under each policy it either fails and leaves the NameNode empty,
// or installs a whole state: one whose own snapshot recovers to it again.
// The seeds are real snapshots of a driven NameNode under each policy.
func FuzzRestoreSnapshot(f *testing.F) {
	cfg := testPlacementCfg(f)
	policies := []string{"ear", "rr"}
	empty := map[string][]byte{}
	for _, policy := range policies {
		nn, err := NewShardedNameNode(cfg, policy, 7, false)
		if err != nil {
			f.Fatal(err)
		}
		empty[policy] = nn.StateDigest()
		d := &opDriver{rng: rand.New(rand.NewSource(3)), nn: nn, nodes: cfg.Topology.Nodes()}
		for i := 0; i < 100; i++ {
			if err := d.step(); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(nn.StateDigest())
	}
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})

	f.Fuzz(func(t *testing.T, state []byte) {
		for _, policy := range policies {
			nn, err := recoverSnapshot(t, cfg, policy, state)
			if err != nil {
				if !bytes.Equal(nn.StateDigest(), empty[policy]) {
					t.Fatalf("%s: a failed restore (%v) installed part of a state", policy, err)
				}
				continue
			}
			digest := nn.StateDigest()
			again, err := recoverSnapshot(t, cfg, policy, digest)
			if err != nil {
				t.Fatalf("%s: the restored state's own snapshot does not restore: %v", policy, err)
			}
			if !bytes.Equal(again.StateDigest(), digest) {
				t.Fatalf("%s: the restored state's own snapshot restores to another state", policy)
			}
		}
	})
}

// recoverSnapshot runs RecoverMeta on a fresh NameNode over a log directory
// that holds only the given snapshot.
func recoverSnapshot(t *testing.T, cfg placement.Config, policy string, state []byte) (*NameNode, error) {
	t.Helper()
	dir := t.TempDir()
	l, err := metalog.Open(metalog.Options{Dir: dir, Sync: metalog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(0, state); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = metalog.Open(metalog.Options{Dir: dir, Sync: metalog.SyncNone}); err != nil {
		t.Fatal(err)
	}
	nn, err := NewShardedNameNode(cfg, policy, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	err = nn.RecoverMeta(l)
	if cerr := l.Close(); err == nil && cerr != nil {
		t.Fatal(cerr)
	}
	return nn, err
}
