package hdfsraid

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/hdfs"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// populate drives one write sequence into a cluster: a full stripe, one
// aborted member mid-stream, the rest of its stripe, and a short tail, then
// seals every open stripe. The write path knows nothing of how the stripes
// will be encoded, so two clusters of one config end up in the same
// pre-encode state. It returns the written payloads.
func populate(t *testing.T, c *hdfs.Cluster, seed int64) map[topology.BlockID][]byte {
	t.Helper()
	cfg := c.Config()
	rng := rand.New(rand.NewSource(seed))
	contents := make(map[topology.BlockID][]byte)
	write := func(n int) {
		for i := 0; i < n; i++ {
			data := make([]byte, cfg.BlockSizeBytes)
			rng.Read(data)
			id, err := c.WriteBlock(topology.NodeID(rng.Intn(c.Topology().Nodes())), data)
			if err != nil {
				t.Fatalf("WriteBlock: %v", err)
			}
			contents[id] = data
		}
	}
	write(cfg.K)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WriteBlockCtx(ctx, 0, make([]byte, cfg.BlockSizeBytes)); err == nil {
		t.Fatal("write under canceled context should fail")
	}
	write(cfg.K)
	write(cfg.K / 2)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatalf("FlushOpenStripes: %v", err)
	}
	return contents
}

// storedParity returns every encoded stripe's parity blocks as its holders
// store them, after checking them against erasure.Coder over the written
// payloads (zeros for aborted members and short-stripe padding).
func storedParity(t *testing.T, c *hdfs.Cluster, contents map[topology.BlockID][]byte) map[topology.StripeID][][]byte {
	t.Helper()
	nn := c.NameNode()
	zero := make([]byte, c.Config().BlockSizeBytes)
	out := make(map[topology.StripeID][][]byte)
	for _, id := range nn.EncodedStripes() {
		sm, err := nn.Stripe(id)
		if err != nil {
			t.Fatalf("stripe %d: %v", id, err)
		}
		data := make([][]byte, c.Config().K)
		for i := range data {
			data[i] = zero
		}
		for i, b := range sm.Info.Blocks {
			if d, ok := contents[b]; ok {
				data[i] = d
			}
		}
		want, err := c.Coder().Encode(data)
		if err != nil {
			t.Fatalf("stripe %d oracle: %v", id, err)
		}
		for j, node := range sm.Plan.Parity {
			dn, err := c.DataNodeOf(node)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dn.Store.Get(hdfs.ParityKey(id, j))
			if err != nil {
				t.Fatalf("stripe %d parity %d on node %d: %v", id, j, node, err)
			}
			if !bytes.Equal(got, want[j]) {
				t.Fatalf("stripe %d parity %d differs from erasure.Coder over the payload", id, j)
			}
			out[id] = append(out[id], got)
		}
	}
	return out
}

// TestGatherMatchesChain is the differential test of the two encodes: on a
// spread of (k, m, block size, rack layout, policy) geometries,
// with a short stripe and an aborted member in each, the chain (EncodeAll)
// and the gather (through the EncodeAllWith seam) store byte-identical
// parity, and both store erasure.Coder's. The aborted-member stripe and the
// short one read the gather's shared zero block one after the other, so a
// kernel that wrote through its input would break the later one's parity.
func TestGatherMatchesChain(t *testing.T) {
	geoms := []struct {
		name string
		cfg  hdfs.Config
	}{
		{"ear-6x3-k4n6", hdfs.Config{Racks: 6, NodesPerRack: 3, Policy: "ear", Replicas: 3,
			K: 4, N: 6, C: 1, BlockSizeBytes: 8 << 10,
			BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 1}},
		{"rr-3x4-k6n9-disk", hdfs.Config{Racks: 3, NodesPerRack: 4, Policy: "rr", Replicas: 2,
			K: 6, N: 9, C: 3, BlockSizeBytes: 16 << 10,
			BandwidthBytesPerSec: 64 << 20, DiskBandwidthBytesPerSec: 256 << 20,
			MapTasks: 2, Seed: 2}},
		// An odd block size the slice does not divide.
		{"rr-5x2-k8n10-oddblock", hdfs.Config{Racks: 5, NodesPerRack: 2, Policy: "rr", Replicas: 2,
			K: 8, N: 10, C: 2, BlockSizeBytes: 10000,
			BandwidthBytesPerSec: 64 << 20, MapTasks: 3, Seed: 3}},
		{"ear-4x3-k8n12-smallchunk", hdfs.Config{Racks: 4, NodesPerRack: 3, Policy: "ear", Replicas: 2,
			K: 8, N: 12, C: 3, BlockSizeBytes: 12 << 10,
			BandwidthBytesPerSec: 64 << 20, MapTasks: 2, Seed: 4}},
		// A slow link, over shaped disks.
		{"rr-5x3-k8n10-derived", hdfs.Config{Racks: 5, NodesPerRack: 3, Policy: "rr", Replicas: 2,
			K: 8, N: 10, C: 2, BlockSizeBytes: 10000,
			BandwidthBytesPerSec: 4 << 20, DiskBandwidthBytesPerSec: 8 << 20,
			MapTasks: 3, Seed: 5}},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			newCluster := func(cfg hdfs.Config) *hdfs.Cluster {
				c, err := hdfs.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}
			chain, base := newCluster(g.cfg), newCluster(g.cfg)
			cc, bc := populate(t, chain, g.cfg.Seed+100), populate(t, base, g.cfg.Seed+100)

			cs, err := chain.RaidNode().EncodeAll()
			if err != nil {
				t.Fatalf("chain EncodeAll: %v", err)
			}
			bs, err := base.RaidNode().EncodeAllWith(context.Background(), Parity(base))
			if err != nil {
				t.Fatalf("gather EncodeAllWith: %v", err)
			}
			if cs.Stripes == 0 || cs.Stripes != bs.Stripes {
				t.Fatalf("stripes: chain %d, gather %d", cs.Stripes, bs.Stripes)
			}
			if cs.PipelinedStripes != cs.Stripes {
				t.Errorf("chain arm reports %d of %d stripes pipelined", cs.PipelinedStripes, cs.Stripes)
			}
			if bs.PipelinedStripes != 0 || bs.PartialSumBytes != 0 {
				t.Errorf("gather arm reports %d pipelined stripes, %d partial-sum bytes",
					bs.PipelinedStripes, bs.PartialSumBytes)
			}
			cp, bp := storedParity(t, chain, cc), storedParity(t, base, bc)
			if len(cp) != cs.Stripes || len(bp) != bs.Stripes {
				t.Fatalf("verified %d chain and %d gather stripes of %d", len(cp), len(bp), cs.Stripes)
			}
			for id, want := range cp {
				csm, _ := chain.NameNode().Stripe(id)
				bsm, err := base.NameNode().Stripe(id)
				if err != nil {
					t.Fatalf("gather cluster lacks stripe %d: %v", id, err)
				}
				if len(csm.Info.Blocks) != len(bsm.Info.Blocks) {
					t.Fatalf("stripe %d membership differs between the clusters", id)
				}
				for j := range want {
					if !bytes.Equal(want[j], bp[id][j]) {
						t.Fatalf("stripe %d parity %d: chain and gather differ", id, j)
					}
				}
			}
			if out := base.BufferPool().Outstanding(); out != 0 {
				t.Errorf("gather left %d pooled buffers checked out", out)
			}
		})
	}
}

// TestGatherCancelCommitsNothing cancels a gather job mid-download on a slow
// fabric: no store gains or loses a key, no stripe is encoded, every pooled
// buffer is back, and the requeued stripes then encode through the chain.
func TestGatherCancelCommitsNothing(t *testing.T) {
	// 128 KiB/s links: the cancel lands inside every download's first chunk,
	// and the window of chunks each canceled stream leaves booked is what the
	// re-encode at the end waits behind.
	cfg := hdfs.Config{Racks: 6, NodesPerRack: 3, Policy: "rr", Replicas: 3, K: 4, N: 6, C: 1,
		BlockSizeBytes: 256 << 10, BandwidthBytesPerSec: 128 << 10, MapTasks: 4, Seed: 1}
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	contents := populate(t, c, 17)
	if err := c.Fabric().SetAllRates(cfg.BandwidthBytesPerSec); err != nil {
		t.Fatal(err)
	}
	keys := func() int {
		n := 0
		for id := 0; id < c.Topology().Nodes(); id++ {
			dn, err := c.DataNodeOf(topology.NodeID(id))
			if err != nil {
				t.Fatal(err)
			}
			n += len(dn.Store.Keys())
		}
		return n
	}
	before := keys()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.RaidNode().EncodeAllWith(ctx, Parity(c)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EncodeAllWith under timeout = %v, want DeadlineExceeded", err)
	}
	if after := keys(); after != before {
		t.Errorf("stores hold %d keys after the canceled gather, %d before", after, before)
	}
	if enc := c.NameNode().EncodedStripes(); len(enc) != 0 {
		t.Errorf("canceled gather committed stripes %v", enc)
	}
	if out := c.BufferPool().Outstanding(); out != 0 {
		t.Errorf("canceled gather left %d pooled buffers checked out", out)
	}
	if n, err := c.NameNode().RequeueUnencodedStripes(); err != nil || n == 0 {
		t.Fatalf("requeued %d stripes (err %v)", n, err)
	}
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatalf("re-encode after cancel: %v", err)
	}
	if len(storedParity(t, c, contents)) == 0 {
		t.Fatal("no parity verified after the re-encode")
	}
}

// TestGatherTelemetryAndTrace checks what a gather job leaves behind for the
// paper-figure runs to read: one download, encode and parity-write span per
// stripe under its map task and no chain hop, the encode counters, no
// pipelined stripe, and StripeEncodeStarted events that say "gather".
func TestGatherTelemetryAndTrace(t *testing.T) {
	c, err := hdfs.NewCluster(hdfs.Config{Racks: 6, NodesPerRack: 3, Policy: "ear", Replicas: 3,
		K: 4, N: 6, C: 1, BlockSizeBytes: 8 << 10, BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	tr := telemetry.NewTracer()
	c.SetTracer(tr)
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	populate(t, c, 42)
	stats, err := c.RaidNode().EncodeAllWith(context.Background(), Parity(c))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes == 0 {
		t.Fatal("no stripes encoded")
	}
	counter := func(name string) float64 { return reg.Counter(name, "").With().Value() }
	if got := counter("raidnode_stripes_encoded_total"); got != float64(stats.Stripes) {
		t.Errorf("stripes counter = %g, want %d", got, stats.Stripes)
	}
	if got := counter("raidnode_pipelined_stripes_total"); got != 0 {
		t.Errorf("pipelined stripes counter = %g on the gather", got)
	}
	// EAR with strict scheduling downloads every block inside the core rack.
	if got := counter("raidnode_cross_rack_downloads_total"); got != 0 || stats.CrossRackDownloads != 0 {
		t.Errorf("cross-rack downloads = %g / %d, want 0 under EAR", got, stats.CrossRackDownloads)
	}
	// The gather counts its own uploads: with c = 1 one of a stripe's two
	// parity blocks stays in the core rack, where the encoder is, and the
	// other leaves it.
	if got := counter("raidnode_cross_rack_uploads_total"); got != float64(stats.Stripes) || stats.CrossRackUploads != stats.Stripes {
		t.Errorf("cross-rack uploads = %g / %d, want one a stripe (%d)", got, stats.CrossRackUploads, stats.Stripes)
	}
	spans := tr.Spans()
	counts := map[string]int{}
	byID := map[int64]telemetry.SpanSnapshot{}
	for _, s := range spans {
		counts[s.Name]++
		byID[s.ID] = s
	}
	for _, phase := range []string{"download", "encode", "parity-write", "replica-delete"} {
		if counts[phase] != stats.Stripes {
			t.Errorf("%s spans = %d for %d stripes", phase, counts[phase], stats.Stripes)
		}
	}
	if n := counts["raidnode.chain-hop"]; n != 0 {
		t.Errorf("%d chain-hop spans on the gather", n)
	}
	for _, s := range spans {
		if s.Name == "download" && byID[s.Parent].Name != "map-task" {
			t.Errorf("download span parent = %+v, want the map task", byID[s.Parent])
		}
		if !s.Ended {
			t.Errorf("span %s never ended", s.Name)
		}
	}
	started, _, _ := jrn.Since(0, 0, events.Filter{Type: events.StripeEncodeStarted})
	if len(started) != stats.Stripes {
		t.Errorf("%d StripeEncodeStarted events for %d stripes", len(started), stats.Stripes)
	}
	for _, e := range started {
		if e.Detail != "gather" {
			t.Errorf("stripe %d started with detail %q, want gather", e.Stripe, e.Detail)
		}
	}
}
