package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ear/internal/blockstore"
	"ear/internal/topology"
)

// TestPipelinedWriteMatchesPayload writes a workload through the chunked
// pipeline and checks the state at rest against the written bytes and the
// planned placement: every replica is byte-identical to its payload, and
// the fabric's locality accounting equals the bytes the client -> replica 1
// -> replica 2 -> ... hops must move.
func TestPipelinedWriteMatchesPayload(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy)
			cfg := c.Config()
			top := c.Topology()
			rng := rand.New(rand.NewSource(9))
			var wantCross, wantIntra int64
			for i := 0; i < 12; i++ {
				data := make([]byte, cfg.BlockSizeBytes)
				rng.Read(data)
				client := topology.NodeID(rng.Intn(top.Nodes()))
				id, err := c.WriteBlock(client, data)
				if err != nil {
					t.Fatalf("WriteBlock %d: %v", i, err)
				}
				meta, err := c.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(meta.Nodes) != cfg.Replicas {
					t.Fatalf("block %d placed on %v, want %d replicas", id, meta.Nodes, cfg.Replicas)
				}
				prev := client
				for j, n := range meta.Nodes {
					dn, _ := c.DataNodeOf(n)
					got, err := dn.Store.Get(DataKey(id))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("replica %d of block %d not byte-identical to payload", j, id)
					}
					if prev != n {
						pr, _ := top.RackOf(prev)
						nr, _ := top.RackOf(n)
						if pr != nr {
							wantCross += int64(len(data))
						} else {
							wantIntra += int64(len(data))
						}
					}
					prev = n
				}
			}
			if f := c.Fabric().Snapshot(); f.CrossRackBytes != wantCross || f.IntraRackBytes != wantIntra {
				t.Errorf("locality accounting: fabric cross=%d intra=%d, replication chains moved cross=%d intra=%d",
					f.CrossRackBytes, f.IntraRackBytes, wantCross, wantIntra)
			}
		})
	}
}

// TestWriteStoresOneBuffer: a write seals one copy of the caller's block and
// every replica's store adopts it. At r = 2 and r = 3, under both policies,
// every replica's view shares one backing array that is not the caller's, so
// overwriting the caller's slice afterwards changes no replica; corrupting one
// replica leaves the others' views clean; and each store still counts the
// block in its Bytes.
func TestWriteStoresOneBuffer(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		for _, r := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/r=%d", policy, r), func(t *testing.T) {
				cfg := testConfig(policy)
				cfg.Replicas = r
				c := newCluster(t, cfg)
				data := make([]byte, cfg.BlockSizeBytes)
				rand.New(rand.NewSource(int64(r))).Read(data)
				want := bytes.Clone(data)
				id, err := c.WriteBlock(1, data)
				if err != nil {
					t.Fatal(err)
				}
				meta, err := c.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(meta.Nodes) != r {
					t.Fatalf("block %d placed on %v, want %d replicas", id, meta.Nodes, r)
				}
				stores := make([]*blockstore.Store, r)
				for i, n := range meta.Nodes {
					dn, err := c.DataNodeOf(n)
					if err != nil {
						t.Fatal(err)
					}
					stores[i] = dn.Store
					v, err := dn.Store.View(DataKey(id))
					if err != nil {
						t.Fatal(err)
					}
					if &v[0] == &data[0] {
						t.Fatalf("replica %d on node %d holds the caller's slice", i, n)
					}
					if first, _ := stores[0].View(DataKey(id)); &v[0] != &first[0] {
						t.Errorf("replica %d on node %d holds a buffer of its own, not the write's one copy", i, n)
					}
				}
				for i := range data {
					data[i] = ^data[i]
				}
				for i, st := range stores {
					if v, err := st.View(DataKey(id)); err != nil || !bytes.Equal(v, want) {
						t.Errorf("replica %d changed with the caller's slice (err %v)", i, err)
					}
				}
				var stored int64
				for n := 0; n < c.Topology().Nodes(); n++ {
					dn, err := c.DataNodeOf(topology.NodeID(n))
					if err != nil {
						t.Fatal(err)
					}
					stored += dn.Store.Bytes()
				}
				if stored != int64(r*cfg.BlockSizeBytes) {
					t.Errorf("stores count %d bytes, want %d replicas of %d", stored, r, cfg.BlockSizeBytes)
				}
				if err := stores[0].Corrupt(DataKey(id)); err != nil {
					t.Fatal(err)
				}
				if _, err := stores[0].View(DataKey(id)); !errors.Is(err, blockstore.ErrCorrupt) {
					t.Errorf("corrupted replica's view: %v, want %v", err, blockstore.ErrCorrupt)
				}
				for i, st := range stores[1:] {
					if v, err := st.View(DataKey(id)); err != nil || !bytes.Equal(v, want) {
						t.Errorf("replica %d no longer clean after replica 0 was corrupted (err %v)", i+1, err)
					}
				}
			})
		}
	}
}

// TestWriteCancelMidFlight cancels a write while its chunks are in flight
// on a slow fabric and checks the abort contract: the call returns the
// cancellation promptly, no replica is committed anywhere, the allocation
// is voided, and no pipeline goroutine leaks.
func TestWriteCancelMidFlight(t *testing.T) {
	cfg := testConfig("rr")
	cfg.BlockSizeBytes = 256 << 10
	cfg.BandwidthBytesPerSec = 64 << 10 // one hop would take 4s
	c := newCluster(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	// No store may gain a replica (all are empty) and no goroutine may leak.
	canceledRun(t, c, context.DeadlineExceeded, "canceled write", func() error {
		_, err := c.WriteBlockCtx(ctx, 0, make([]byte, cfg.BlockSizeBytes))
		return err
	})
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("cancellation took %v, want within one chunk reservation", d)
	}
	// The allocation must be aborted: committing it now is rejected.
	meta, err := c.NameNode().Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Aborted || meta.Committed || len(meta.Nodes) != 0 {
		t.Errorf("aborted block meta = %+v", meta)
	}
	if err := c.NameNode().CommitBlock(0); err == nil {
		t.Error("CommitBlock of aborted block should fail")
	}
}

// TestDegradedReadMatchesPayload loses the only replica of an encoded block
// and checks the degraded read through the client path decodes to the
// written payload.
func TestDegradedReadMatchesPayload(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(11))
	ids, contents := writeBlocks(t, c, c.Config().K, rng)
	// EAR keeps one open stripe per rack; seal them all so every block
	// (short stripes included) encodes.
	encodeAll(t, c)
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Nodes) != 1 {
		t.Fatalf("post-encode replicas = %v", meta.Nodes)
	}
	c.NameNode().MarkDead(meta.Nodes[0])
	got, err := c.ReadBlock(0, ids[0])
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, contents[ids[0]]) {
		t.Fatal("degraded read content mismatch")
	}
}

// TestAbortedBlockInStripeEncodes covers the interaction between write
// cancellation and stripe formation: a block aborted after the placement
// policy folded it into a stripe encodes as zeros (like short-stripe
// padding), the stripe still commits, and its live members survive
// degraded reads.
func TestAbortedBlockInStripeEncodes(t *testing.T) {
	c := newTestCluster(t, "ear")
	cfg := c.Config()
	rng := rand.New(rand.NewSource(13))
	ids, contents := writeBlocks(t, c, 2, rng)

	// Abort the third allocation mid-stripe with an already-dead context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WriteBlockCtx(ctx, 0, make([]byte, cfg.BlockSizeBytes)); err == nil {
		t.Fatal("write under canceled context should fail")
	}

	abortedID := topology.BlockID(2) // third allocation
	if meta, err := c.NameNode().Block(abortedID); err != nil || !meta.Aborted {
		t.Fatalf("block %d meta = %+v, err %v; want aborted", abortedID, meta, err)
	}

	moreIDs, moreContents := writeBlocks(t, c, 2, rng)
	ids = append(ids, moreIDs...)
	for id, d := range moreContents {
		contents[id] = d
	}
	// EAR keeps one open stripe per rack; seal them all so the stripe
	// holding the aborted member encodes too.
	c.NameNode().FlushOpenStripes()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatalf("EncodeAll with aborted member: %v", err)
	}
	if stats.Stripes == 0 {
		t.Fatal("no stripes encoded")
	}
	meta, err := c.NameNode().Block(abortedID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stripe < 0 {
		t.Fatal("aborted block not folded into any stripe")
	}
	if sm, err := c.NameNode().Stripe(meta.Stripe); err != nil || !sm.Encoded {
		t.Fatalf("stripe %d of aborted block not encoded (err %v)", meta.Stripe, err)
	}
	// Live members reconstruct after losing their surviving replica.
	victim := ids[0]
	vm, err := c.NameNode().Block(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])
	got, err := c.ReadBlock(0, victim)
	if err != nil {
		t.Fatalf("degraded read in stripe with aborted member: %v", err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("content mismatch after reconstruction")
	}
}
