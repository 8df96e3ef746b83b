package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ear/internal/fabric"
	"ear/internal/topology"
)

// linkMoved returns the bytes the named link moved in the snapshot delta, -1
// for a link the fabric does not have.
func linkMoved(delta fabric.Snapshot, name string) int64 {
	for _, l := range delta.Links {
		if l.Name == name {
			return l.MovedBytes
		}
	}
	return -1
}

// TestWriteIsWriterLocal pins where a write puts its first replica and what
// it moves, on bytes and placements: replica 1 is in the writer's rack, and
// on the writer itself unless EAR's flow graph rejected that first candidate;
// the block crosses the core once (HDFS-style placement: replicas 2..r share
// one remote rack, so at r = 2 that is Replicas-1 copies), r-1 copies travel
// the network in all, and nothing arrives over the writer's own rack or NIC
// downlink.
func TestWriteIsWriterLocal(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		for _, replicas := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/r=%d", policy, replicas), func(t *testing.T) {
				cfg := testConfig(policy)
				cfg.Replicas = replicas
				cfg.DiskBandwidthBytesPerSec = cfg.BandwidthBytesPerSec
				c := newCluster(t, cfg)
				top := c.Topology()
				block := int64(cfg.BlockSizeBytes)
				rng := rand.New(rand.NewSource(71))
				data := make([]byte, cfg.BlockSizeBytes)
				moved := 0
				for i := 0; i < 8*cfg.K; i++ {
					writer := topology.NodeID(rng.Intn(top.Nodes()))
					rack, _ := top.RackOf(writer)
					rng.Read(data)
					before := c.Fabric().Snapshot()
					id, err := c.WriteBlock(writer, data)
					if err != nil {
						t.Fatalf("write %d from node %d: %v", i, writer, err)
					}
					delta := c.Fabric().Snapshot().Sub(before)
					meta, err := c.NameNode().Block(id)
					if err != nil {
						t.Fatal(err)
					}
					if r, _ := top.RackOf(meta.Nodes[0]); r != rack {
						t.Fatalf("block %d written from node %d (rack %d) has replica 1 on node %d (rack %d)",
							id, writer, rack, meta.Nodes[0], r)
					}
					wantIntra := block * int64(replicas-2)
					if meta.Nodes[0] != writer {
						attempts := 1
						if policy == "ear" {
							attempts = c.nn.policies[rack].ear.LastPlaceAttempts()
						}
						if attempts == 1 {
							t.Fatalf("block %d: replica 1 on node %d, not on writer %d, though the first candidate was accepted",
								id, meta.Nodes[0], writer)
						}
						moved++
						wantIntra += block // writer -> the core-rack node the flow chose
					}
					if delta.CrossRackBytes != block || delta.IntraRackBytes != wantIntra {
						t.Fatalf("block %d from node %d to %v moved cross=%d intra=%d, want cross=%d intra=%d",
							id, writer, meta.Nodes, delta.CrossRackBytes, delta.IntraRackBytes, block, wantIntra)
					}
					for _, name := range []string{fmt.Sprintf("rack%d.down", rack), fmt.Sprintf("node%d.down", writer)} {
						if got := linkMoved(delta, name); got != 0 {
							t.Fatalf("block %d from node %d: %d bytes arrived over %s", id, writer, got, name)
						}
					}
					if got := linkMoved(delta, fmt.Sprintf("node%d.disk", writer)); meta.Nodes[0] == writer && got != block {
						t.Fatalf("block %d: the writer's own copy charged its disk %d bytes, want %d", id, got, block)
					}
				}
				if policy == "rr" && moved != 0 {
					t.Errorf("RR moved replica 1 off the writer %d times", moved)
				}
				t.Logf("replica 1 moved off the writer on %d of %d writes", moved, 8*cfg.K)
			})
		}
	}
}

// TestHotWriterSealsAndEncodesClean pushes three full stripes through
// Namespace.Append from one node, on the benchmark's geometry ((14,12), r = 2,
// c = 4 on 4 x 4 nodes) where a node may keep one block of a stripe and the
// other three racks have room for exactly twelve: every block's first
// candidate pins replica 1 to the writer, the flow graph admits it or the
// block falls back to another node of the writer's rack, every stripe seals
// at k blocks with that rack as its core, and the encode ends without a
// violation, auditor clean, with no block near MaxRetries.
func TestHotWriterSealsAndEncodesClean(t *testing.T) {
	cfg := testConfig("ear")
	cfg.Racks, cfg.NodesPerRack, cfg.Replicas, cfg.K, cfg.N, cfg.C = 4, 4, 2, 12, 14, 4
	c := newCluster(t, cfg)
	_, a := attachAuditor(c)
	const writer = topology.NodeID(4)
	rack, _ := c.Topology().RackOf(writer)
	payload := make([]byte, 3*cfg.K*cfg.BlockSizeBytes)
	rand.New(rand.NewSource(73)).Read(payload)
	ns := c.Namespace()
	if err := ns.Create("/hot"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Append(writer, "/hot", payload); err != nil {
		t.Fatal(err)
	}
	if got := c.NameNode().PendingStripeCount(); got != 3 {
		t.Fatalf("%d stripes sealed after 3k blocks from one writer, want 3", got)
	}
	if flushed, err := c.NameNode().FlushOpenStripes(); err != nil || flushed != 0 {
		t.Fatalf("FlushOpenStripes = %d, %v; want every stripe already sealed", flushed, err)
	}
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 3 || stats.Violations != 0 || stats.CrossRackDownloads != 0 {
		t.Fatalf("encode of a hot writer's stripes: %d stripes, %d violations, %d cross-rack downloads; want 3, 0, 0",
			stats.Stripes, stats.Violations, stats.CrossRackDownloads)
	}
	const maxRetries = 10000 // placement.Config's default; hdfs.Config sets none
	most, offWriter := 0, 0
	for _, id := range c.NameNode().EncodedStripes() {
		sm, err := c.NameNode().Stripe(id)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Info.CoreRack != rack {
			t.Errorf("stripe %d has core rack %d, want the writer's rack %d", id, sm.Info.CoreRack, rack)
		}
		for i, it := range sm.Info.Iterations {
			if it >= maxRetries {
				t.Errorf("stripe %d block %d took %d candidate layouts", id, i, it)
			}
			most = max(most, it)
			if sm.Info.Placements[i].Nodes[0] != writer {
				offWriter++
			}
		}
	}
	t.Logf("most candidate layouts for one block: %d; replica 1 off the writer on %d of %d blocks", most, offWriter, 3*cfg.K)
	if r := a.Report(); !r.Clean {
		t.Fatalf("hot writer not auditor-clean: ongoing=%+v transient=%+v", r.Ongoing, r.Transient)
	}
	got, err := ns.Read(0, "/hot")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back after encode: err %v, equal %v", err, bytes.Equal(got, payload))
	}
}

// TestWriteFromUnknownNodeAllocatesNothing: a writer outside the topology is
// refused before the NameNode is asked for anything, so no aborted member
// takes a slot of an open stripe.
func TestWriteFromUnknownNodeAllocatesNothing(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy)
			writeBlocks(t, c, 3, rand.New(rand.NewSource(79))) // leave stripes open
			before, blocks := c.NameNode().StateDigest(), c.NameNode().BlockCount()
			data := make([]byte, c.Config().BlockSizeBytes)
			for _, bad := range []topology.NodeID{-1, topology.NodeID(c.Topology().Nodes())} {
				if _, err := c.WriteBlock(bad, data); !errors.Is(err, topology.ErrUnknownNode) {
					t.Fatalf("WriteBlock from node %d = %v, want ErrUnknownNode", bad, err)
				}
			}
			if got := c.NameNode().BlockCount(); got != blocks {
				t.Errorf("block table grew %d -> %d", blocks, got)
			}
			if !bytes.Equal(c.NameNode().StateDigest(), before) {
				t.Error("refused writes changed the metadata plane (open stripes or block table)")
			}
		})
	}
}

// TestWriteCancelAtEverySlice cancels a write whose first hop is the
// writer's own disk the moment slice 0, 1, ... of the forward to replica 2 is
// booked on the writer's NIC, with that slice or one the stream's window put
// before it on the wire. Wherever it lands no stream stays open, no store
// keeps a replica, the allocation is void and no longer counted in flight,
// no pooled buffer is out and no stage outlives the call.
func TestWriteCancelAtEverySlice(t *testing.T) {
	cfg := testConfig("rr")
	cfg.Replicas = 2
	cfg.BlockSizeBytes = 512 << 10
	cfg.BandwidthBytesPerSec = 2 << 20 // 31 ms a slice
	cfg.DiskBandwidthBytesPerSec = 2 << 20
	c := newCluster(t, cfg)
	const writer = topology.NodeID(5)
	// One stream deep, the write walks fabric.ChunkBytes: eight slices.
	slice := c.foldSliceBytes(writer, 1)
	data := make([]byte, cfg.BlockSizeBytes)
	for idx := 0; idx < cfg.BlockSizeBytes/slice; idx++ {
		ctx, cancel := context.WithCancel(context.Background())
		sent := c.Fabric().Snapshot()
		stop := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			// The sending stage books a slice on the links before anyone
			// sleeps for it, so slice idx is queued or in flight once the
			// writer's NIC has booked idx+1 of them.
			defer close(watched)
			for {
				up := linkMoved(c.Fabric().Snapshot().Sub(sent), fmt.Sprintf("node%d.up", writer))
				if up >= int64((idx+1)*slice) {
					cancel()
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}()
		blocks := c.NameNode().BlockCount()
		canceledRun(t, c, context.Canceled, fmt.Sprintf("write canceled in slice %d", idx), func() error {
			_, err := c.WriteBlockCtx(ctx, writer, data)
			return err
		})
		close(stop)
		<-watched
		cancel()
		meta, err := c.NameNode().Block(topology.BlockID(blocks))
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Aborted || meta.Committed || len(meta.Nodes) != 0 {
			t.Errorf("write canceled in slice %d left block meta %+v", idx, meta)
		}
		wantInFlight(t, c.nn, fmt.Sprintf("write canceled in slice %d", idx))
	}
	if got := c.BufferPool().Outstanding(); got != 0 {
		t.Errorf("%d pooled buffers outstanding after the canceled writes", got)
	}
}

// TestWriterLocalWritesReplay: the log records each allocation's core rack
// and nodes, so a reopened NameNode rebuilds writer-local placements without
// knowing who wrote — same digest, same replicas per block.
func TestWriterLocalWritesReplay(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testConfig(policy)
			cfg.MetaDir = t.TempDir()
			cfg.MetaSync = "always"
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, _ := writeBlocks(t, c, 3*cfg.K+1, rand.New(rand.NewSource(83)))
			digest := c.NameNode().StateDigest()
			nodes := make(map[topology.BlockID][]topology.NodeID)
			for _, id := range ids {
				meta, err := c.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				nodes[id] = meta.Nodes
			}
			c.Close()

			re := newCluster(t, cfg)
			if re.NameNode().RecoveredOps() == 0 {
				t.Fatal("reopen replayed no ops")
			}
			if !bytes.Equal(re.NameNode().StateDigest(), digest) {
				t.Error("state digest differs after close, reopen, RecoverMeta")
			}
			for _, id := range ids {
				meta, err := re.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(meta.Nodes) != fmt.Sprint(nodes[id]) {
					t.Errorf("block %d recovered on %v, was written to %v", id, meta.Nodes, nodes[id])
				}
			}
		})
	}
}
