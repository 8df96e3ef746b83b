package hdfs

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ear/internal/fabric"
	"ear/internal/progress"
	"ear/internal/topology"
)

// TestEncodeCrossesNoRack runs the whole "parity stays home" path on the
// benchmark's geometry ((14,12), r = 2, c = 4 on 4 x 4 nodes): writers walking
// the cluster plus one hot writer, every stripe sealed or flushed, one encode
// job. EAR proposed every block's remote replica where the stripe had room,
// the planner kept the core rack's places for the two parity blocks and each
// row's chain ended on the node that stores the row, so over the encode no
// byte crossed a rack, the NICs received exactly the partial sums plus one
// block per parity row whose holder has no member of its stripe, and the
// layout is the paper's: no violation, nothing for the PlacementMonitor,
// parity equal to the coder's. Then the stripe is read and rebuilt through
// its home parity: with the holder of one parity row and a data holder of the
// same stripe dead, the degraded read decodes through the other row, and
// recovering both nodes ends byte-identical, auditor clean, exposure ledger
// at zero.
func TestEncodeCrossesNoRack(t *testing.T) {
	cfg := testConfig("ear")
	cfg.Racks, cfg.NodesPerRack, cfg.Replicas, cfg.K, cfg.N, cfg.C = 4, 4, 2, 12, 14, 4
	c := newCluster(t, cfg)
	jrn, auditor := attachAuditor(c)
	tracker := progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
	t.Cleanup(tracker.Attach(jrn))
	top, nn := c.Topology(), c.NameNode()
	m, block := cfg.N-cfg.K, int64(cfg.BlockSizeBytes)

	rng := rand.New(rand.NewSource(91))
	contents := make(map[topology.BlockID][]byte)
	for i := 0; i < 8*cfg.K; i++ {
		writer := topology.NodeID(rng.Intn(top.Nodes()))
		if i%(4*cfg.K) < cfg.K {
			writer = 9 // a hot writer fills a stripe of rack 2 on its own
		}
		data := make([]byte, cfg.BlockSizeBytes)
		rng.Read(data)
		id, err := c.WriteBlock(writer, data)
		if err != nil {
			t.Fatal(err)
		}
		contents[id] = data
	}
	if _, err := nn.FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	// Who holds each member before the encode deletes the redundant copies.
	held := make(map[topology.BlockID][]topology.NodeID, len(contents))
	for id := range contents {
		meta, err := nn.Block(id)
		if err != nil {
			t.Fatal(err)
		}
		held[id] = meta.Nodes
	}

	before := c.Fabric().Snapshot()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	delta := c.Fabric().Snapshot().Sub(before)
	if stats.Stripes == 0 || stats.PipelinedStripes != stats.Stripes {
		t.Fatalf("%d stripes encoded, %d through the chain", stats.Stripes, stats.PipelinedStripes)
	}
	if stats.CrossRackDownloads != 0 || stats.CrossRackUploads != 0 || stats.Violations != 0 {
		t.Errorf("encode stats: %d cross-rack downloads, %d cross-rack uploads, %d violations; want 0, 0, 0",
			stats.CrossRackDownloads, stats.CrossRackUploads, stats.Violations)
	}
	if delta.CrossRackBytes != 0 {
		t.Errorf("the encode moved %d bytes across racks, want 0", delta.CrossRackBytes)
	}
	for _, l := range delta.Links {
		if strings.HasPrefix(l.Name, "rack") && l.MovedBytes != 0 {
			t.Errorf("the encode moved %d bytes over %s, want 0", l.MovedBytes, l.Name)
		}
	}
	// What the NICs receive, exactly: the partial sums, one block per hop of
	// each row's chain, plus one delivery for every parity row whose holder
	// has no member of its stripe and so is no hop of the chain.
	deliveries := 0
	for _, id := range nn.EncodedStripes() {
		sm := stripeOf(t, c, id)
		for j, n := range sm.Plan.Parity {
			if r, _ := top.RackOf(n); r != sm.Info.CoreRack {
				t.Errorf("stripe %d: parity %d on node %d of rack %d, core rack %d", id, j, n, r, sm.Info.CoreRack)
			}
			if !slices.ContainsFunc(sm.Info.Blocks, func(b topology.BlockID) bool { return slices.Contains(held[b], n) }) {
				deliveries++
			}
		}
	}
	var received int64
	for _, l := range delta.Links {
		if l.Class == fabric.ClassNodeDown {
			received += l.MovedBytes
		}
	}
	if want := stats.PartialSumBytes + int64(deliveries)*block; received != want {
		t.Errorf("the NICs received %d blocks over the encode, want %d partial sums + %d deliveries",
			received/block, stats.PartialSumBytes/block, deliveries)
	}
	monitorClean(t, c)
	if n := verifyParities(t, c, contents); n != m*stats.Stripes {
		t.Errorf("%d parity blocks verified, want %d", n, m*stats.Stripes)
	}
	if out := c.BufferPool().Outstanding(); out != 0 {
		t.Errorf("%d pooled buffers outstanding after the encode", out)
	}

	// Lose a home parity and a data member of the same stripe.
	sm := stripeOf(t, c, nn.EncodedStripes()[0])
	parityNode := sm.Plan.Parity[0]
	lost := sm.Info.Blocks[0]
	dataNode := soleHolder(t, c, lost)
	nn.MarkDead(parityNode)
	nn.MarkDead(dataNode)
	if rep := tracker.Report(); rep.BlocksAtRisk == 0 {
		t.Fatal("two node deaths opened no exposure window")
	}
	reader := topology.NodeID(0)
	for reader == parityNode || reader == dataNode {
		reader++
	}
	got, err := c.DegradedRead(reader, lost)
	if err != nil || !bytes.Equal(got, contents[lost]) {
		t.Fatalf("degraded read of block %d through the surviving home parity: err %v, identical %v", lost, err, bytes.Equal(got, contents[lost]))
	}
	for _, dead := range []topology.NodeID{parityNode, dataNode} {
		rs, err := c.RecoverNode(context.Background(), dead)
		if err != nil || rs.Unrecovered != 0 {
			t.Fatalf("RecoverNode(%d): %v, %d unrecovered", dead, err, rs.Unrecovered)
		}
	}
	verifyBlockContents(t, c, contents)
	verifyParities(t, c, contents)
	monitorClean(t, c)
	if r := auditor.Report(); !r.Clean {
		t.Errorf("auditor after recovery: ongoing=%+v transient=%+v", r.Ongoing, r.Transient)
	}
	if rep := tracker.Report(); rep.BlocksAtRisk != 0 {
		t.Errorf("%d blocks at risk after recovery, want 0", rep.BlocksAtRisk)
	}
	if out := c.BufferPool().Outstanding(); out != 0 {
		t.Errorf("%d pooled buffers outstanding after recovery", out)
	}
}
