package hdfs

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// populatePipeTest drives an identical write sequence into a cluster: full
// stripes, one aborted member mid-stream, and a short tail stripe, then
// seals every open stripe.
func populatePipeTest(t *testing.T, c *Cluster, seed int64) map[topology.BlockID][]byte {
	t.Helper()
	cfg := c.Config()
	rng := rand.New(rand.NewSource(seed))
	contents := make(map[topology.BlockID][]byte)
	write := func(n int) {
		ids, m := writeBlocks(t, c, n, rng)
		_ = ids
		for id, d := range m {
			contents[id] = d
		}
	}
	write(cfg.K) // one full stripe
	// Abort an allocation mid-stream: the member encodes as zeros.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WriteBlockCtx(ctx, 0, make([]byte, cfg.BlockSizeBytes)); err == nil {
		t.Fatal("write under canceled context should fail")
	}
	write(cfg.K)     // fill the stripe holding the aborted member, start more
	write(cfg.K / 2) // short tail stripe once flushed
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatalf("FlushOpenStripes: %v", err)
	}
	return contents
}

// verifyParities checks every encoded stripe's stored parity blocks against
// ground truth computed directly from the written contents (zeros for
// aborted members and short-stripe padding).
func verifyParities(t *testing.T, c *Cluster, contents map[topology.BlockID][]byte) int {
	t.Helper()
	cfg := c.Config()
	nn := c.NameNode()
	zero := make([]byte, cfg.BlockSizeBytes)
	checked := 0
	for _, id := range nn.EncodedStripes() {
		sm, err := nn.Stripe(id)
		if err != nil {
			t.Fatalf("stripe %d: %v", id, err)
		}
		data := make([][]byte, cfg.K)
		for i := range data {
			data[i] = zero
		}
		for i, b := range sm.Info.Blocks {
			if d, okc := contents[b]; okc {
				data[i] = d
			}
		}
		want, err := c.Coder().Encode(data)
		if err != nil {
			t.Fatalf("stripe %d ground-truth encode: %v", id, err)
		}
		if sm.Plan == nil {
			t.Fatalf("stripe %d encoded without a plan", id)
		}
		for j, node := range sm.Plan.Parity {
			dn, err := c.DataNodeOf(node)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dn.Store.Get(ParityKey(id, j))
			if err != nil {
				t.Fatalf("stripe %d parity %d on node %d: %v", id, j, node, err)
			}
			if !bytes.Equal(got, want[j]) {
				t.Fatalf("stripe %d parity %d differs from ground truth", id, j)
			}
			checked++
		}
	}
	return checked
}

// abortStripe seals a stripe of k members, all written from one node under a
// canceled context: each allocation is aborted, and the stripe's content is
// zeros.
func abortStripe(t *testing.T, c *Cluster) {
	t.Helper()
	cfg := c.Config()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range cfg.K {
		if _, err := c.WriteBlockCtx(ctx, 0, make([]byte, cfg.BlockSizeBytes)); err == nil {
			t.Fatal("write under canceled context should fail")
		}
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
}

// allAbortedStripes counts the encoded stripes whose every member was aborted.
func allAbortedStripes(t *testing.T, c *Cluster) int {
	t.Helper()
	n := 0
	for _, id := range c.NameNode().EncodedStripes() {
		sm, err := c.NameNode().Stripe(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(sm.Info.Blocks, func(b topology.BlockID) bool {
			meta, err := c.NameNode().Block(b)
			return err != nil || !meta.Aborted
		}) {
			n++
		}
	}
	return n
}

// TestPipelinedEncodeMatchesGather is the chain's payload oracle: for a
// spread of (k, m, block size, rack layout, policy) geometries
// — including short and aborted-member stripes, and a stripe whose every
// member was aborted, whose rows have nothing but zeros to fold — the encode
// must store erasure.Coder's parity over the written bytes. The differential against
// the paper's gather, on the same geometries, lives with the gather
// (internal/experiments/hdfsraid).
func TestPipelinedEncodeMatchesGather(t *testing.T) {
	geoms := []struct {
		name string
		cfg  Config
		// allAborted adds a stripe of k members whose writes were all
		// abandoned.
		allAborted bool
	}{
		{
			name: "ear-6x3-k4n6",
			cfg: Config{Racks: 6, NodesPerRack: 3, Policy: "ear", Replicas: 3,
				K: 4, N: 6, C: 1, BlockSizeBytes: 8 << 10,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 1},
		},
		{
			name: "rr-3x4-k6n9-disk",
			cfg: Config{Racks: 3, NodesPerRack: 4, Policy: "rr", Replicas: 2,
				K: 6, N: 9, C: 3, BlockSizeBytes: 16 << 10,
				BandwidthBytesPerSec: 64 << 20, DiskBandwidthBytesPerSec: 256 << 20,
				MapTasks: 2, Seed: 2},
		},
		{
			// Odd block size not divisible by the slice: exercises the
			// partial final slice of every hop.
			name: "rr-5x2-k8n10-oddblock",
			cfg: Config{Racks: 5, NodesPerRack: 2, Policy: "rr", Replicas: 2,
				K: 8, N: 10, C: 2, BlockSizeBytes: 10000,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 3, Seed: 3},
		},
		{
			name: "ear-4x3-k8n12-smallchunk",
			cfg: Config{Racks: 4, NodesPerRack: 3, Policy: "ear", Replicas: 2,
				K: 8, N: 12, C: 3, BlockSizeBytes: 12 << 10,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 2, Seed: 4},
		},
		{
			// A slow link (4 MiB/s gives the 4 KiB floor) over an odd block
			// with shaped disks, so the read-ahead and a partial last slice
			// run.
			name: "rr-5x3-k8n10-derived",
			cfg: Config{Racks: 5, NodesPerRack: 3, Policy: "rr", Replicas: 2,
				K: 8, N: 10, C: 2, BlockSizeBytes: 10000,
				BandwidthBytesPerSec: 4 << 20, DiskBandwidthBytesPerSec: 8 << 20,
				MapTasks: 3, Seed: 5},
		},
		{
			name: "ear-6x3-k4n6-all-aborted",
			cfg: Config{Racks: 6, NodesPerRack: 3, Policy: "ear", Replicas: 3,
				K: 4, N: 6, C: 1, BlockSizeBytes: 8 << 10,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 6},
			allAborted: true,
		},
	}
	for _, g := range geoms {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			pipe := newCluster(t, g.cfg)
			pc := populatePipeTest(t, pipe, g.cfg.Seed+100)
			if g.allAborted {
				abortStripe(t, pipe)
			}

			ps, err := pipe.RaidNode().EncodeAll()
			if err != nil {
				t.Fatalf("EncodeAll: %v", err)
			}
			if ps.PipelinedStripes != ps.Stripes {
				t.Errorf("encoded %d of %d stripes through the chain",
					ps.PipelinedStripes, ps.Stripes)
			}
			if ps.PartialSumBytes <= 0 {
				t.Error("the chain shipped no partial-sum bytes")
			}
			if n := verifyParities(t, pipe, pc); n == 0 {
				t.Fatal("verified no parity blocks")
			}
			if g.allAborted && allAbortedStripes(t, pipe) == 0 {
				t.Fatal("encoded no stripe whose every member was aborted")
			}
			// Degraded reads work through pipelined parity too.
			var victim topology.BlockID = -1
			for id := range pc {
				victim = id
				break
			}
			vm, err := pipe.NameNode().Block(victim)
			if err != nil {
				t.Fatal(err)
			}
			if len(vm.Nodes) == 1 {
				pipe.NameNode().MarkDead(vm.Nodes[0])
				got, err := pipe.ReadBlock(0, victim)
				if err != nil {
					t.Fatalf("degraded read: %v", err)
				}
				if !bytes.Equal(got, pc[victim]) {
					t.Fatal("degraded read content mismatch after pipelined encode")
				}
			}
		})
	}
}

// TestPipelinedEncodeCancelCommitsNothing kills the context mid-pipeline on
// a slow fabric and verifies the staged-commit contract: no parity key
// lands in any store, no replica is deleted, the auditor stays clean, and
// the requeued stripes re-encode correctly afterwards, counted once each.
func TestPipelinedEncodeCancelCommitsNothing(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 256 << 10
	// ~2s per block: the cancel lands mid-slice, and the window of slices each
	// canceled stream leaves booked is what the re-encode below waits behind.
	cfg.BandwidthBytesPerSec = 128 << 10
	c := newCluster(t, cfg)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)

	// Populate at full speed, then throttle for the canceled encode.
	setRates(t, c, 64<<30, 64<<30)
	rng := rand.New(rand.NewSource(17))
	_, contents := writeBlocks(t, c, 2*cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.BandwidthBytesPerSec)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	canceledRun(t, c, context.DeadlineExceeded, "EncodeAllCtx under timeout", func() error {
		_, err := c.RaidNode().EncodeAllCtx(ctx)
		return err
	})
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after canceled pipeline: %+v", rep)
	}

	// The interrupted stripes requeue and re-encode cleanly at full speed.
	requeued, err := c.NameNode().RequeueUnencodedStripes()
	if err != nil {
		t.Fatal(err)
	}
	if requeued == 0 {
		t.Fatal("no stripes requeued after canceled encode")
	}
	setRates(t, c, 64<<30, 64<<30)
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatalf("re-encode after cancel: %v", err)
	}
	if stats.Stripes != requeued {
		t.Fatalf("re-encoded %d stripes, requeued %d", stats.Stripes, requeued)
	}
	// The canceled job committed nothing, so it counted nothing.
	encoded := len(c.NameNode().EncodedStripes())
	if got := reg.Counter("raidnode_stripes_encoded_total", "").With().Value(); got != float64(encoded) {
		t.Errorf("raidnode_stripes_encoded_total = %g, %d stripes encoded", got, encoded)
	}
	if n := verifyParities(t, c, contents); n == 0 {
		t.Fatal("no parity verified after re-encode")
	}
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after re-encode: %+v", rep)
	}
}

// TestEncodeReplansAroundCorruptReplica corrupts the core-rack replicas of
// two members of one stripe before the encode job runs. Each hop's
// checksum-verified read fails, the replica is excluded and the chain
// re-planned over the member's remaining copies, so the job succeeds instead
// of requeueing a stripe that can never converge. The bad copies must be
// gone and every block's surviving replica must pass its checksum. With c = 1
// on this geometry the plan keeps neither bad copy, so nothing is rewritten
// (the log says 0); TestEncodeRewritesCorruptKeptCopyInLoop covers a kept
// one. The re-planned chain's remote hops are reported as m cross-rack
// block-equivalents per rack boundary plus one per rewrite — for that stripe
// only.
func TestEncodeReplansAroundCorruptReplica(t *testing.T) {
	c := newTestCluster(t, "ear")
	cfg := c.Config()
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)

	ids, contents := writeBlocks(t, c, 3*cfg.K, rand.New(rand.NewSource(67)))
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	first, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sm, err := c.NameNode().Stripe(first.Stripe)
	if err != nil {
		t.Fatal(err)
	}
	// The stripe's holders with the core-rack copies of members 0 and 1
	// taken out: what the re-planned chain folds over.
	holders := make([][]topology.NodeID, cfg.K)
	corrupted := make(map[topology.BlockID]topology.NodeID)
	for i, b := range sm.Info.Blocks {
		meta, err := c.NameNode().Block(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range meta.Nodes {
			if r, _ := c.Topology().RackOf(n); i < 2 && r == sm.Info.CoreRack {
				corrupted[b] = n
				continue
			}
			holders[i] = append(holders[i], n)
		}
	}
	if len(corrupted) != 2 {
		t.Fatalf("members 0 and 1 of stripe %d have %d core-rack replicas, want 2", sm.Info.ID, len(corrupted))
	}
	for b, n := range corrupted {
		dn, _ := c.DataNodeOf(n)
		if err := dn.Store.Corrupt(DataKey(b)); err != nil {
			t.Fatal(err)
		}
	}
	encoder := topology.NodeID(-1)
	defer jrn.Subscribe(func(e events.Event) {
		if e.Type == events.StripeEncodeStarted && e.Stripe == sm.Info.ID {
			encoder = e.Node
		}
	})()

	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatalf("EncodeAll with corrupt core-rack replicas: %v", err)
	}
	if stats.PipelinedStripes != stats.Stripes || stats.Stripes < 2 {
		t.Fatalf("pipelined %d of %d stripes", stats.PipelinedStripes, stats.Stripes)
	}
	// Every block's one surviving replica is readable in place; a kept bad
	// copy was rewritten, an unkept one deleted.
	buf := make([]byte, cfg.BlockSizeBytes)
	rewrites := 0
	for id, want := range contents {
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Nodes) != 1 {
			t.Fatalf("block %d has replicas %v after encoding, want one", id, meta.Nodes)
		}
		dn, _ := c.DataNodeOf(meta.Nodes[0])
		if err := dn.Store.GetInto(DataKey(id), buf); err != nil {
			t.Fatalf("kept replica of block %d on node %d: %v", id, meta.Nodes[0], err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("kept replica of block %d on node %d diverged from the payload", id, meta.Nodes[0])
		}
		if bad, ok := corrupted[id]; ok {
			if bad == meta.Nodes[0] {
				rewrites++
			} else if bdn, _ := c.DataNodeOf(bad); bdn.Store.Has(DataKey(id)) {
				t.Errorf("corrupt replica of block %d still stored on node %d", id, bad)
			}
		}
	}
	// The excluded members' other replicas sit outside the core rack, so the
	// re-planned chain pays m blocks per rack boundary and each rewrite one;
	// every other stripe stays in its core rack.
	hops, err := placement.PlanPipeline(c.Topology(), holders, encoder)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := placement.PipelineRackBoundaries(hops, sm.Info.CoreRack)
	if boundaries < 1 {
		t.Fatalf("re-planned chain crosses %d rack boundaries, want >= 1", boundaries)
	}
	if want := boundaries*c.Coder().M() + rewrites; stats.CrossRackDownloads != want {
		t.Errorf("CrossRackDownloads = %d, want %d (%d boundaries x m + %d rewrites, all in the re-planned stripe)",
			stats.CrossRackDownloads, want, boundaries, rewrites)
	}
	if n := verifyParities(t, c, contents); n == 0 {
		t.Fatal("no parity verified")
	}
	verifyBlockContents(t, c, contents)
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after re-planned encode: %+v", rep)
	}
	t.Logf("re-planned chain: %d rack boundaries, %d kept copies rewritten", boundaries, rewrites)
}

// TestPipelinedEncodeTelemetry checks the overlap instrumentation: per-hop
// fill/drain histograms populate and measured pipeline depth exceeds 1
// (arithmetic genuinely overlapped transfer).
func TestPipelinedEncodeTelemetry(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 256 << 10
	cfg.BandwidthBytesPerSec = 8 << 20
	c := newCluster(t, cfg)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)

	rng := rand.New(rand.NewSource(29))
	writeBlocks(t, c, 2*cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PipelinedStripes != stats.Stripes || stats.Stripes == 0 {
		t.Fatalf("pipelined %d of %d stripes", stats.PipelinedStripes, stats.Stripes)
	}
	if stats.PartialSumBytes <= 0 {
		t.Error("PartialSumBytes not accumulated")
	}
	snap := reg.Snapshot()
	seen := make(map[string]bool)
	for _, fam := range snap {
		for _, s := range fam.Series {
			if s.Count > 0 || s.Value > 0 {
				seen[fam.Name] = true
			}
		}
	}
	for _, name := range []string{
		"raidnode_pipe_hop_fill_seconds",
		"raidnode_pipe_hop_drain_seconds",
		"raidnode_pipe_depth",
		"raidnode_partial_sum_bytes_total",
		"raidnode_pipelined_stripes_total",
	} {
		if !seen[name] {
			t.Errorf("%s not populated by a pipelined encode", name)
		}
	}
}
