package hdfs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"ear/internal/telemetry"
	"ear/internal/topology"
)

// TestEncodeParallelismMatchesSequential encodes a workload whose map tasks
// keep several stripes in flight at once (encodeFanIn) and checks what a
// sequential encode would give: every block of every concurrently encoded
// stripe reconstructs from its stripe alone, and the job's byte total is the
// workload's. (The name is from when the fan-in was a Config field and the test
// ran both settings; TestRaidNodeStatsAccumulate pins stripe and byte totals.)
func TestEncodeParallelismMatchesSequential(t *testing.T) {
	cPar := newTestCluster(t, "ear")
	_, contents := writeBlocks(t, cPar, 16, rand.New(rand.NewSource(21)))
	cPar.NameNode().FlushOpenStripes()
	sPar, err := cPar.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(16 * cPar.Config().BlockSizeBytes); sPar.Stripes == 0 || sPar.EncodedBytes != want {
		t.Fatalf("encoded %d stripes / %d bytes, want every one of %d bytes", sPar.Stripes, sPar.EncodedBytes, want)
	}
	// Every block encoded by the concurrent path must survive losing its
	// kept replica: delete the replica bytes and reconstruct from the
	// stripe.
	for id, want := range contents {
		meta, err := cPar.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Nodes) != 1 {
			t.Fatalf("block %d has %d replicas after encoding", id, len(meta.Nodes))
		}
		dn, err := cPar.DataNodeOf(meta.Nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Store.Delete(DataKey(id)); err != nil {
			t.Fatal(err)
		}
		got, err := cPar.DegradedRead(0, id)
		if err != nil {
			t.Fatalf("degraded read of block %d after parallel encode: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d reconstructed wrong bytes after parallel encode", id)
		}
		// Restore the replica so later blocks of the stripe keep k survivors.
		if err := dn.Store.Put(DataKey(id), want); err != nil {
			t.Fatal(err)
		}
	}
	// The encode and repair paths above all drew from the buffer pool.
	if gets, _ := cPar.BufferPool().Stats(); gets == 0 {
		t.Error("buffer pool never used")
	}
	if r := cPar.BufferPool().HitRate(); r < 0 || r > 1 {
		t.Errorf("pool hit rate %f out of range", r)
	}
}

// TestCrossRackNotCountedOnFailedGather pins the counting fix: cross-rack
// downloads are recorded when a fetch completes, so a gather whose fetches
// all fail reports zero even though every resolved source was remote.
func TestCrossRackNotCountedOnFailedGather(t *testing.T) {
	c := newTestCluster(t, "rr")
	tr := telemetry.NewTracer()
	c.SetTracer(tr)
	rng := rand.New(rand.NewSource(29))
	ids, _ := writeBlocks(t, c, c.Config().K, rng) // one full stripe
	c.NameNode().FlushOpenStripes()
	stripes, err := c.NameNode().TakePendingStripes()
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 1 {
		t.Fatalf("pending stripes = %d, want 1", len(stripes))
	}
	// Pick an encoder in a rack holding no replica of any stripe member, so
	// every planned download would be cross-rack.
	replicaRacks := make(map[topology.RackID]bool)
	for _, id := range ids {
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range meta.Nodes {
			rk, err := c.Topology().RackOf(n)
			if err != nil {
				t.Fatal(err)
			}
			replicaRacks[rk] = true
		}
	}
	encoder := topology.NodeID(-1)
	for n := 0; n < c.Topology().Nodes(); n++ {
		rk, err := c.Topology().RackOf(topology.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if !replicaRacks[rk] {
			encoder = topology.NodeID(n)
			break
		}
	}
	if encoder < 0 {
		t.Skip("every rack holds a replica; cannot isolate the encoder")
	}
	// Destroy the bytes of every replica so each fetch fails after source
	// resolution succeeded.
	for _, id := range ids {
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range meta.Nodes {
			dn, err := c.DataNodeOf(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := dn.Store.Delete(DataKey(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	parent := tr.Start("test-encode")
	res, _, err := c.encodeStripe(context.Background(), stripes[0], nil, encoder, parent, nil)
	parent.End()
	if err == nil {
		t.Fatal("encodeStripe succeeded with no replica bytes anywhere")
	}
	if res.CrossRackDownloads != 0 {
		t.Errorf("failed gather counted %d cross-rack downloads, want 0", res.CrossRackDownloads)
	}
	for _, s := range tr.Spans() {
		if s.Name != "download" {
			continue
		}
		if got := s.Args["cross_rack_downloads"]; got != "0" {
			t.Errorf("download span recorded cross_rack_downloads=%q for a failed gather, want \"0\"", got)
		}
	}
}

// TestEncodeThroughputTelemetry checks the new encode-path metrics: the
// per-stripe compute throughput histogram fills and the pool hit-rate gauge
// lands in [0, 1]. It runs two encode rounds against one shared registry
// with Reset between them — exactly one observation per stripe of *this*
// round is the assertion that used to flake when rounds shared counter
// state, so the second round pins the isolation.
func TestEncodeThroughputTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	round := func(seed int64) {
		c := newTestCluster(t, "ear")
		c.SetTelemetry(reg)
		rng := rand.New(rand.NewSource(seed))
		writeBlocks(t, c, 2*c.Config().K, rng)
		c.NameNode().FlushOpenStripes()
		stats, err := c.RaidNode().EncodeAll()
		if err != nil {
			t.Fatal(err)
		}
		h := reg.Histogram("raidnode_encode_mbps", "", nil).With()
		if got, want := h.Count(), uint64(stats.Stripes); got != want {
			t.Errorf("raidnode_encode_mbps observations = %d, want %d (one per stripe)", got, want)
		}
		if h.Count() > 0 && h.Mean() <= 0 {
			t.Errorf("encode throughput mean = %f MB/s", h.Mean())
		}
		if r := reg.Gauge("erasure_pool_hit_ratio", "").With().Value(); r < 0 || r > 1 {
			t.Errorf("pool hit ratio gauge = %f", r)
		}
	}
	round(31)
	reg.Reset()
	round(37)
}
