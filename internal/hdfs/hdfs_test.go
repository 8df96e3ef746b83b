package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/fabric"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// testConfig returns a fast configuration: tiny blocks, generous bandwidth.
func testConfig(policy string) Config {
	return Config{
		Racks:                6,
		NodesPerRack:         3,
		Policy:               policy,
		Replicas:             3,
		K:                    4,
		N:                    6,
		C:                    1,
		BlockSizeBytes:       8 << 10,  // 8 KiB
		BandwidthBytesPerSec: 64 << 20, // effectively instant
		MapTasks:             4,
		Seed:                 1,
	}
}

func newTestCluster(t *testing.T, policy string) *Cluster {
	t.Helper()
	return newCluster(t, testConfig(policy))
}

// newCluster builds a cluster the test closes when it ends.
func newCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster(%+v): %v", cfg, err)
	}
	t.Cleanup(c.Close)
	return c
}

// encodeAll seals every open stripe and encodes them all.
func encodeAll(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
}

// clearStores drops every block c's data nodes hold, for a test or benchmark
// done with a large layout before it ends: newCluster keeps every cluster
// until then.
func clearStores(c *Cluster) {
	for n := 0; n < c.Topology().Nodes(); n++ {
		if dn, err := c.DataNodeOf(topology.NodeID(n)); err == nil {
			dn.Store.Clear()
		}
	}
}

// settled fails the test unless the goroutine count comes back down to
// before: what the operation under test started must be gone when it has
// returned. A run joins its goroutines, but one that has returned stays in
// runtime.NumGoroutine until the scheduler has retired it, which is the
// host's business. So the wait is on the host, not on the test's clock: a GC
// cycle stops the world, which lets every exiting goroutine finish, where a
// deadline of seconds passes in microseconds of host time on a bubble's fake
// clock (bubble_test.go) and reported a goroutine no stack dump showed.
func settled(t *testing.T, before int) {
	t.Helper()
	for cycle := 0; runtime.NumGoroutine() > before; cycle++ {
		if cycle == 100 {
			t.Errorf("%d goroutines outlive the operation that started them", runtime.NumGoroutine()-before)
			return
		}
		runtime.GC()
	}
}

func writeBlocks(t *testing.T, c *Cluster, count int, rng *rand.Rand) ([]topology.BlockID, map[topology.BlockID][]byte) {
	t.Helper()
	ids := make([]topology.BlockID, 0, count)
	contents := make(map[topology.BlockID][]byte, count)
	for i := 0; i < count; i++ {
		data := make([]byte, c.Config().BlockSizeBytes)
		rng.Read(data)
		client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
		id, err := c.WriteBlock(client, data)
		if err != nil {
			t.Fatalf("WriteBlock %d: %v", i, err)
		}
		ids = append(ids, id)
		contents[id] = data
	}
	return ids, contents
}

func TestNewClusterValidation(t *testing.T) {
	cfg := testConfig("rr")
	cfg.Policy = "bogus"
	if _, err := NewCluster(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bogus policy: %v", err)
	}
	cfg = testConfig("rr")
	cfg.Racks = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Error("0 racks: expected error")
	}
	cfg = testConfig("rr")
	cfg.K = 10
	cfg.N = 9
	if _, err := NewCluster(cfg); err == nil {
		t.Error("n < k: expected error")
	}
}

func TestWriteAndReadBack(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy)
			rng := rand.New(rand.NewSource(2))
			ids, contents := writeBlocks(t, c, 8, rng)
			for _, id := range ids {
				got, err := c.ReadBlock(0, id)
				if err != nil {
					t.Fatalf("ReadBlock(%d): %v", id, err)
				}
				if !bytes.Equal(got, contents[id]) {
					t.Fatalf("block %d content mismatch", id)
				}
				// Replication factor respected.
				meta, err := c.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(meta.Nodes) != 3 {
					t.Fatalf("block %d has %d replicas", id, len(meta.Nodes))
				}
				for _, n := range meta.Nodes {
					dn, err := c.DataNodeOf(n)
					if err != nil {
						t.Fatal(err)
					}
					if !dn.Store.Has(DataKey(id)) {
						t.Fatalf("replica of %d missing on node %d", id, n)
					}
				}
			}
		})
	}
}

func TestWriteBlockSizeMismatch(t *testing.T) {
	c := newTestCluster(t, "rr")
	if _, err := c.WriteBlock(0, make([]byte, 10)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("wrong size: %v", err)
	}
}

func TestEncodeLifecycle(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy)
			rng := rand.New(rand.NewSource(3))
			ids, contents := writeBlocks(t, c, 12, rng) // 3 stripes of k=4
			// EAR seals per core rack; flush so all 12 blocks encode.
			c.NameNode().FlushOpenStripes()
			stats, err := c.RaidNode().EncodeAll()
			if err != nil {
				t.Fatalf("EncodeAll: %v", err)
			}
			if policy == "rr" && stats.Stripes != 3 {
				t.Fatalf("encoded %d stripes, want 3", stats.Stripes)
			}
			if stats.Stripes < 3 {
				t.Fatalf("encoded %d stripes, want >= 3", stats.Stripes)
			}
			if stats.ThroughputMBps <= 0 {
				t.Error("throughput not measured")
			}
			// All data still readable; exactly one replica left per block.
			for _, id := range ids {
				meta, err := c.NameNode().Block(id)
				if err != nil {
					t.Fatal(err)
				}
				if !meta.Encoded || len(meta.Nodes) != 1 {
					t.Fatalf("block %d post-encode meta: %+v", id, meta)
				}
				got, err := c.ReadBlock(5, id)
				if err != nil {
					t.Fatalf("ReadBlock(%d): %v", id, err)
				}
				if !bytes.Equal(got, contents[id]) {
					t.Fatalf("block %d corrupted by encoding", id)
				}
			}
			// Parity stored where the plan says.
			for _, sid := range c.NameNode().EncodedStripes() {
				sm, err := c.NameNode().Stripe(sid)
				if err != nil {
					t.Fatal(err)
				}
				if len(sm.Plan.Parity) != 2 {
					t.Fatalf("stripe %d has %d parity blocks", sid, len(sm.Plan.Parity))
				}
				for j, n := range sm.Plan.Parity {
					dn, err := c.DataNodeOf(n)
					if err != nil {
						t.Fatal(err)
					}
					if !dn.Store.Has(ParityKey(sid, j)) {
						t.Fatalf("stripe %d parity %d missing on node %d", sid, j, n)
					}
				}
			}
			// Idempotent drain: nothing left to encode.
			again, err := c.RaidNode().EncodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if again.Stripes != 0 {
				t.Errorf("second EncodeAll found %d stripes", again.Stripes)
			}
		})
	}
}

func TestEARNoCrossRackDownloadsAndCoreRackTasks(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(4))
	writeBlocks(t, c, 16, rng)
	c.NameNode().FlushOpenStripes()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatalf("EncodeAll: %v", err)
	}
	if stats.CrossRackDownloads != 0 {
		t.Errorf("EAR cross-rack downloads = %d, want 0", stats.CrossRackDownloads)
	}
	if stats.Violations != 0 {
		t.Errorf("EAR violations = %d, want 0", stats.Violations)
	}
	for _, pl := range stats.TaskPlacements {
		if !pl.Rack {
			t.Errorf("encode task %q ran outside its core rack (node %d)", pl.Task, pl.Node)
		}
	}
	// PlacementMonitor agrees: nothing to fix.
	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Errorf("PlacementMonitor found %d violating stripes under EAR", len(bad))
	}
}

func TestRRCrossRackDownloadsObserved(t *testing.T) {
	c := newTestCluster(t, "rr")
	rng := rand.New(rand.NewSource(5))
	writeBlocks(t, c, 16, rng)
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatalf("EncodeAll: %v", err)
	}
	if stats.CrossRackDownloads == 0 {
		t.Error("RR encoding produced no cross-rack downloads (unexpected)")
	}
}

func TestBlockMoverRestoresFaultTolerance(t *testing.T) {
	// With few racks RR violates often (this seed leaves three stripes
	// violating); after BlockMover the monitor must be clean and data must
	// remain readable. A relocation is a unit-row fold: it reads the member
	// through the source's shaped disk and moves it over the network once.
	cfg := testConfig("rr")
	cfg.Racks = 6
	cfg.K = 5
	cfg.N = 6
	cfg.Seed = 6
	cfg.DiskBandwidthBytesPerSec = 64 << 20
	c := newCluster(t, cfg)
	jrn := events.NewJournal(1 << 14)
	c.SetJournal(jrn)
	rng := rand.New(rand.NewSource(6))
	var ids []topology.BlockID
	contents := map[topology.BlockID][]byte{}
	for i := 0; i < 30; i++ {
		data := make([]byte, cfg.BlockSizeBytes)
		rng.Read(data)
		id, err := c.WriteBlock(0, data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		contents[id] = data
	}
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Violations == 0 {
		t.Fatal("seed 6 no longer produces a violating stripe; pick one that does")
	}
	before := c.Fabric().Snapshot()
	moved, movedBytes, err := c.RaidNode().BlockMover()
	if err != nil {
		t.Fatalf("BlockMover: %v", err)
	}
	if moved == 0 || movedBytes != int64(moved*cfg.BlockSizeBytes) {
		t.Fatalf("BlockMover moved %d members, %d bytes, despite %d violations", moved, movedBytes, stats.Violations)
	}
	delta := c.Fabric().Snapshot().Sub(before)
	if disk, net := delta.ClassBytes[fabric.ClassDisk], delta.ClassBytes[fabric.ClassNodeUp]; disk != movedBytes || net != movedBytes {
		t.Errorf("%d relocated bytes read %d bytes from disk and sent %d, want one block each a move", movedBytes, disk, net)
	}
	sources := make(map[topology.NodeID]int64)
	relocated, _, _ := jrn.Since(0, 0, events.Filter{Type: events.ReplicaRelocated})
	for _, e := range relocated {
		sources[e.Node] += e.Bytes
	}
	for n, want := range sources {
		if got := linkMoved(delta, fmt.Sprintf("node%d.disk", n)); got != want {
			t.Errorf("node %d's disk read %d bytes for the %d it gave up", n, got, want)
		}
	}
	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("%d stripes still violating after BlockMover", len(bad))
	}
	for _, id := range ids {
		got, err := c.ReadBlock(3, id)
		if err != nil {
			t.Fatalf("ReadBlock(%d) after move: %v", id, err)
		}
		if !bytes.Equal(got, contents[id]) {
			t.Fatalf("block %d corrupted by relocation", id)
		}
	}
}

func TestDegradedReadAfterNodeFailure(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		t.Run(policy, func(t *testing.T) {
			c := newTestCluster(t, policy)
			rng := rand.New(rand.NewSource(7))
			ids, contents := writeBlocks(t, c, 8, rng)
			encodeAll(t, c)
			// Fail the single node holding block ids[0].
			meta, err := c.NameNode().Block(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			failed := meta.Nodes[0]
			c.NameNode().MarkDead(failed)
			if !c.NameNode().IsDead(failed) {
				t.Fatal("MarkDead not recorded")
			}
			reader := topology.NodeID(0)
			if reader == failed {
				reader = 1
			}
			got, err := c.ReadBlock(reader, ids[0])
			if err != nil {
				t.Fatalf("degraded ReadBlock: %v", err)
			}
			if !bytes.Equal(got, contents[ids[0]]) {
				t.Fatal("degraded read returned wrong data")
			}
		})
	}
}

// TestDegradedReadsChargedToTenant: while a holder is down a tenant's read
// ops and bytes equal the blocks delivered — one charge a block whether it
// came from a replica, through ReadBlock's degraded fallback, or from
// DegradedRead called directly.
func TestDegradedReadsChargedToTenant(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(9))
	ids, contents := writeBlocks(t, c, 8, rng)
	encodeAll(t, c)
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(meta.Nodes[0])
	reader := (meta.Nodes[0] + 1) % topology.NodeID(c.Topology().Nodes())
	ctx := tenant.NewContext(context.Background(), "acme")
	delivered := 0
	for _, id := range ids { // ids[0] degrades, the rest may or may not
		got, err := c.ReadBlockCtx(ctx, reader, id)
		if err != nil || !bytes.Equal(got, contents[id]) {
			t.Fatalf("read of block %d: wrong bytes (err %v)", id, err)
		}
		delivered++
	}
	if got, err := c.DegradedReadCtx(ctx, reader, ids[0]); err != nil || !bytes.Equal(got, contents[ids[0]]) {
		t.Fatalf("direct degraded read: wrong bytes (err %v)", err)
	}
	delivered++
	for _, row := range c.Tenants().Snapshot() {
		if row.Tenant != "acme" {
			continue
		}
		for _, op := range row.Ops {
			if op.Op != "read" {
				continue
			}
			if op.Count != int64(delivered) || op.Bytes != int64(delivered*c.Config().BlockSizeBytes) {
				t.Fatalf("tenant read ops %d / bytes %d, want %d / %d", op.Count, op.Bytes, delivered, delivered*c.Config().BlockSizeBytes)
			}
			return
		}
	}
	t.Fatal("tenant acme has no read row")
}

func TestRepairBlock(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(8))
	ids, contents := writeBlocks(t, c, 8, rng)
	encodeAll(t, c)
	meta, err := c.NameNode().Block(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	failed := meta.Nodes[0]
	c.NameNode().MarkDead(failed)
	target, err := c.RepairBlock(ids[1])
	if err != nil {
		t.Fatalf("RepairBlock: %v", err)
	}
	if target == failed {
		t.Fatal("repair placed block on the dead node")
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := dn.Store.Get(DataKey(ids[1]))
	if err != nil {
		t.Fatalf("repaired block not stored: %v", err)
	}
	if !bytes.Equal(stored, contents[ids[1]]) {
		t.Fatal("repaired block content wrong")
	}
	// Normal read works again.
	got, err := c.ReadBlock(2, ids[1])
	if err != nil || !bytes.Equal(got, contents[ids[1]]) {
		t.Fatalf("read after repair: %v", err)
	}
}

// A repair rebuilds a member of an encoded stripe. A block whose stripe is
// flushed but not yet encoded is still replicated and has no parity: repairing
// it fails and leaves its recorded replica set as it was. With every copy
// gone, such a block has no decode to fall back on, and a degraded read
// reports no replica.
func TestRepairUnencodedStripeFails(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(8))
	ids, _ := writeBlocks(t, c, c.Config().K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	meta, err := c.NameNode().Block(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stripe < 0 || meta.Encoded {
		t.Fatalf("block %d: stripe %d, encoded %v; want a flushed, unencoded stripe", ids[1], meta.Stripe, meta.Encoded)
	}
	nodes := slices.Clone(meta.Nodes)
	if _, err := c.RepairBlock(ids[1]); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("RepairBlock of a block in an unencoded stripe: %v, want ErrUnknownStripe", err)
	}
	after, err := c.NameNode().Block(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Nodes, nodes) {
		t.Fatalf("replica set after a failed repair: %v, want %v", after.Nodes, nodes)
	}
	for _, n := range nodes {
		c.NameNode().MarkDead(n)
	}
	if _, err := c.DegradedRead(0, ids[1]); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("degraded read of a lost block in an unencoded stripe: %v, want ErrNoReplica", err)
	}
}

func TestDegradedReadUnencodedBlockFails(t *testing.T) {
	c := newTestCluster(t, "rr")
	rng := rand.New(rand.NewSource(9))
	ids, _ := writeBlocks(t, c, 1, rng)
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range meta.Nodes {
		c.NameNode().MarkDead(n)
	}
	if _, err := c.ReadBlock(0, ids[0]); !errors.Is(err, ErrNoReplica) {
		t.Errorf("read of fully failed unencoded block: %v", err)
	}
}

func TestShortStripeFlushAndEncode(t *testing.T) {
	// RR leaves a remainder smaller than k pending; those blocks stay
	// replicated and readable.
	c := newTestCluster(t, "rr")
	rng := rand.New(rand.NewSource(10))
	ids, contents := writeBlocks(t, c, 6, rng) // k=4: one stripe + 2 leftover
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 1 {
		t.Fatalf("encoded %d stripes, want 1", stats.Stripes)
	}
	for i, id := range ids {
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		wantEncoded := i < 4
		if meta.Encoded != wantEncoded {
			t.Errorf("block %d encoded = %v, want %v", id, meta.Encoded, wantEncoded)
		}
		got, err := c.ReadBlock(1, id)
		if err != nil || !bytes.Equal(got, contents[id]) {
			t.Fatalf("ReadBlock(%d): %v", id, err)
		}
	}
}

func TestNameNodeErrors(t *testing.T) {
	c := newTestCluster(t, "rr")
	nn := c.NameNode()
	if _, err := nn.Block(999); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown block: %v", err)
	}
	if _, err := nn.Stripe(999); !errors.Is(err, ErrUnknownStripe) {
		t.Errorf("unknown stripe: %v", err)
	}
	if err := nn.CommitBlock(999); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("commit unknown: %v", err)
	}
	if err := nn.CommitEncoding(999, nil); !errors.Is(err, ErrUnknownStripe) {
		t.Errorf("commit unknown stripe: %v", err)
	}
	if _, err := nn.LiveReplicas(999); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("live replicas unknown: %v", err)
	}
	if err := nn.UpdateBlockLocation(999, nil); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("update unknown: %v", err)
	}
	if err := nn.UpdateParityLocation(999, 0, 0); !errors.Is(err, ErrUnknownStripe) {
		t.Errorf("update parity unknown: %v", err)
	}
	if _, err := c.DataNodeOf(-1); err == nil {
		t.Error("DataNodeOf(-1): expected error")
	}
}

func TestCorruptReplicaFallsBackInDegradedRead(t *testing.T) {
	// Corrupt the surviving replica of an encoded block: the store detects
	// it (CRC) and the degraded path reconstructs from the stripe.
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(11))
	ids, contents := writeBlocks(t, c, 4, rng)
	encodeAll(t, c)
	meta, err := c.NameNode().Block(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	dn, err := c.DataNodeOf(meta.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Store.Corrupt(DataKey(ids[2])); err != nil {
		t.Fatal(err)
	}
	got, err := c.DegradedRead(1, ids[2])
	if err != nil {
		t.Fatalf("DegradedRead with corrupt replica: %v", err)
	}
	if !bytes.Equal(got, contents[ids[2]]) {
		t.Fatal("reconstruction produced wrong data")
	}
}

// TestReadFailsOverToAnotherReplica corrupts the replica the reader prefers
// (its own) before encoding: the read moves on to the next live replica,
// and only with every copy unreadable does it fail, naming the corruption.
// Blocks are four chunks long: a corrupt remote source's uplink moves at
// most its first chunk, booked before the checksum failed, and the fabric
// counts nothing delivered but the block the read returns.
func TestReadFailsOverToAnotherReplica(t *testing.T) {
	cfg := testConfig("rr")
	cfg.BlockSizeBytes = 4 * fabric.ChunkBytes
	cfg.BandwidthBytesPerSec = 4 << 20 // a chunk takes 15.6 ms, far longer than a checksum
	c := newCluster(t, cfg)
	ids, contents := writeBlocks(t, c, 1, rand.New(rand.NewSource(17)))
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	reader := meta.Nodes[0]
	for i, n := range meta.Nodes {
		dn, err := c.DataNodeOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Store.Corrupt(DataKey(ids[0])); err != nil {
			t.Fatal(err)
		}
		before := c.Fabric().Snapshot()
		got, err := c.ReadBlock(reader, ids[0])
		moved := c.Fabric().Snapshot().Sub(before)
		delivered := int64(0)
		if i < len(meta.Nodes)-1 {
			if err != nil {
				t.Fatalf("read with %d of %d replicas corrupt: %v", i+1, len(meta.Nodes), err)
			}
			if !bytes.Equal(got, contents[ids[0]]) {
				t.Fatalf("read with %d replicas corrupt returned wrong bytes", i+1)
			}
			delivered = int64(cfg.BlockSizeBytes)
		} else if !errors.Is(err, blockstore.ErrCorrupt) {
			t.Fatalf("read with every replica corrupt = %v, want ErrCorrupt", err)
		}
		if got := moved.CrossRackBytes + moved.IntraRackBytes; got != delivered {
			t.Errorf("read with %d replicas corrupt delivered %d bytes, want %d", i+1, got, delivered)
		}
		for _, l := range moved.Links {
			for _, bad := range meta.Nodes[1 : i+1] {
				if l.Name == fmt.Sprintf("node%d.up", bad) && l.MovedBytes > fabric.ChunkBytes {
					t.Errorf("read with %d replicas corrupt: corrupt source %s moved %d bytes, want at most %d", i+1, l.Name, l.MovedBytes, fabric.ChunkBytes)
				}
			}
		}
	}
}

// TestReadDegradesPastCorruptCopyBesideDeadNode: on an encoded stripe the
// block's only copy is corrupt and another member's holder is dead. The
// read finds no usable replica and reconstructs from the remaining k.
func TestReadDegradesPastCorruptCopyBesideDeadNode(t *testing.T) {
	c := newTestCluster(t, "ear") // (6,4) absorbs the two erasures
	ids, contents := writeBlocks(t, c, 4*c.Config().K, rand.New(rand.NewSource(19)))
	encodeAll(t, c)
	// Two members of one stripe on distinct nodes.
	byStripe := make(map[topology.StripeID][]topology.BlockID)
	var pair []topology.BlockID
	for _, id := range ids {
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		byStripe[meta.Stripe] = append(byStripe[meta.Stripe], id)
		if pair = byStripe[meta.Stripe]; len(pair) == 2 {
			break
		}
	}
	if len(pair) != 2 {
		t.Fatal("no stripe holds two of the written blocks")
	}
	corruptMeta, _ := c.NameNode().Block(pair[0])
	deadMeta, _ := c.NameNode().Block(pair[1])
	dn, err := c.DataNodeOf(corruptMeta.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Store.Corrupt(DataKey(pair[0])); err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(deadMeta.Nodes[0])
	for _, id := range pair {
		got, err := c.ReadBlock(1, id)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", id, err)
		}
		if !bytes.Equal(got, contents[id]) {
			t.Fatalf("block %d read back wrong bytes", id)
		}
	}
}
