package hdfs

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"ear/internal/mapred"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// TestEncodeParallelismMatchesSequential encodes a workload whose map tasks
// keep several stripes in flight at once (every stripe of a task folds in
// the task's one stage loop) and checks what a sequential encode would give:
// every block of every concurrently encoded stripe reconstructs from its
// stripe alone, and the job's byte total is the workload's
// (TestRaidNodeStatsAccumulate pins stripe and byte totals).
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
}

// TestNoPathTakesPooledBuffer pins that no data path draws from the buffer
// pool, which is the gather baseline's download scratch alone: a write
// forwards the caller's bytes, and the chain engine folds members from the
// stores' views into blocks of its own that the stores keep as they were
// folded. Writes, an encode, a degraded read, a repair, a node recovery and a
// BlockMover round each take no pooled buffer.
func TestNoPathTakesPooledBuffer(t *testing.T) {
	takesNone := func(c *Cluster, what string, op func()) {
		t.Helper()
		pool := c.BufferPool()
		before, _ := pool.Stats()
		op()
		if gets, _ := pool.Stats(); gets != before {
			t.Errorf("%s took %d pooled buffers, want none", what, gets-before)
		}
		if out := pool.Outstanding(); out != 0 {
			t.Errorf("%s left %d pooled buffers out", what, out)
		}
	}
	c := newTestCluster(t, "ear")
	var ids []topology.BlockID
	var contents map[topology.BlockID][]byte
	takesNone(c, "the writes", func() { ids, contents = writeBlocks(t, c, 4*c.Config().K, rand.New(rand.NewSource(23))) })
	c.NameNode().FlushOpenStripes()
	takesNone(c, "the encode", func() {
		stats, err := c.RaidNode().EncodeAll()
		if err != nil || stats.Stripes == 0 {
			t.Fatalf("encoded %d stripes: %v", stats.Stripes, err)
		}
	})
	dead := soleHolder(t, c, ids[0])
	c.NameNode().MarkDead(dead)
	reader := (dead + 1) % topology.NodeID(c.Topology().Nodes())
	takesNone(c, "the degraded read", func() {
		got, err := c.DegradedRead(reader, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[ids[0]]) {
			t.Error("the degraded read returned wrong bytes")
		}
	})
	takesNone(c, "the repair", func() {
		if _, err := c.RepairBlock(ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	takesNone(c, "the node recovery", func() {
		stats, err := c.RecoverNode(context.Background(), dead)
		if err != nil || stats.BlocksRepaired+stats.ParityRepaired == 0 {
			t.Fatalf("recovery repaired %d + %d members: %v", stats.BlocksRepaired, stats.ParityRepaired, err)
		}
	})
	verifyBlockContents(t, c, contents)
	m := newTestCluster(t, "ear")
	stageStripe(t, m, 73, crowdData(m.Topology()))
	takesNone(m, "the BlockMover round", func() {
		if moved, _, err := m.RaidNode().BlockMover(); err != nil || moved == 0 {
			t.Fatalf("BlockMover moved %d members: %v", moved, err)
		}
	})
}

// TestEncodeStoresParityAsFolded pins that each parity holder keeps the block
// its chain folded: an encode allocates one block a parity block, plus its
// bookkeeping, where a copy into the store would double that. No later job,
// recovery or BlockMover round may then write a stored parity block, which a
// buffer reused after it reached a store would. Not parallel: it reads the
// process's heap counters.
func TestEncodeStoresParityAsFolded(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 64 << 10
	c := newCluster(t, cfg)
	rng := rand.New(rand.NewSource(43))
	_, contents := writeBlocks(t, c, 8*cfg.K, rng)
	c.NameNode().FlushOpenStripes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats, err := c.RaidNode().EncodeAll()
	runtime.ReadMemStats(&after)
	if err != nil || stats.Stripes == 0 {
		t.Fatalf("encoded %d stripes: %v", stats.Stripes, err)
	}
	perParity := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.BlockSizeBytes) / float64(c.Coder().M()*stats.Stripes)
	t.Logf("the encode of %d stripes allocated %.2f blocks a parity block", stats.Stripes, perParity)
	if perParity >= 1.5 {
		t.Errorf("the encode allocated %.2f blocks a parity block, want < 1.5 (one, stored as folded)", perParity)
	}
	// A second job whose layouts the BlockMover has to fix, then a recovery
	// of the busiest node: both fold into blocks of their own.
	c.NameNode().SetPlanOverrideForTest(crowdData(c.Topology()))
	_, more := writeBlocks(t, c, 4*cfg.K, rng)
	encodeAll(t, c)
	maps.Copy(contents, more)
	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	if _, err := c.RecoverNode(context.Background(), dead); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if moved, _, err := c.RaidNode().BlockMover(); err != nil || moved == 0 {
		t.Fatalf("BlockMover moved %d members: %v", moved, err)
	}
	if n := verifyParities(t, c, contents); n == 0 {
		t.Fatal("no parity block verified")
	}
	verifyBlockContents(t, c, contents)
	if out := c.BufferPool().Outstanding(); out != 0 {
		t.Errorf("%d pooled buffers out", out)
	}
}

// TestFoldAdmissionMakesNoBlocks pins that an admission only plans and opens
// streams: the stage loop makes each fold's block at its row's first step. An
// encode job admits every stripe, and a recovery round every repair, before
// the read-ahead books its first slice (readAheadKey), so the heap a job has
// allocated by then is its admissions': less than a block a run, where blocks
// made at admission come to m a stripe and one a repair. Not parallel: it
// reads the process's heap counters.
func TestFoldAdmissionMakesNoBlocks(t *testing.T) {
	// admitted runs op under a context whose read-ahead hook reads the heap
	// counters at the first slice, and returns what op allocated until then.
	admitted := func(t *testing.T, op func(ctx context.Context)) uint64 {
		t.Helper()
		var start, first runtime.MemStats
		booked := false
		ctx := context.WithValue(context.Background(), readAheadKey{}, func(topology.NodeID, *stageRun, int) {
			if !booked {
				booked = true
				runtime.ReadMemStats(&first)
			}
		})
		runtime.GC()
		runtime.ReadMemStats(&start)
		op(ctx)
		if !booked {
			t.Fatal("the read-ahead booked no slice")
		}
		return first.TotalAlloc - start.TotalAlloc
	}
	check := func(t *testing.T, what string, grew uint64, runs, blockSize int) {
		t.Helper()
		perRun := float64(grew) / float64(blockSize) / float64(runs)
		t.Logf("%s allocated %.3f blocks a run before its first slice (%d runs)", what, perRun, runs)
		if perRun >= 1 {
			t.Errorf("%s allocated %.3f blocks a run before its first slice, want < 1: an admission makes no block", what, perRun)
		}
	}
	c, cfg := lifecycleWrites(t, 1)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	var stripes int
	grew := admitted(t, func(ctx context.Context) {
		stats, err := c.RaidNode().EncodeAllCtx(ctx)
		if err != nil || stats.Stripes == 0 {
			t.Fatalf("encoded %d stripes: %v", stats.Stripes, err)
		}
		stripes = stats.Stripes
	})
	check(t, "the encode job", grew, stripes, cfg.BlockSizeBytes)

	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	var repairs int
	grew = admitted(t, func(ctx context.Context) {
		stats, err := c.RecoverNode(ctx, dead)
		if err != nil || stats.Unrecovered != 0 {
			t.Fatalf("RecoverNode left %d members unrecovered: %v", stats.Unrecovered, err)
		}
		repairs = stats.BlocksRepaired + stats.ParityRepaired
	})
	check(t, "the recovery round", grew, repairs, cfg.BlockSizeBytes)
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
	var res StripeParity
	task := &encodeTask{Task: mapred.Task{Name: "test-encode-map0", Preferred: encoder}, stripes: stripes, homes: make([][]topology.NodeID, len(stripes))}
	_, err = c.foldJob(telemetry.ContextWithSpan(context.Background(), parent), []*encodeTask{task}, func(_ *placement.StripeInfo, sp StripeParity, _ bool) {
		res.CrossRackDownloads += sp.CrossRackDownloads
	})
	parent.End()
	if err == nil {
		t.Fatal("foldJob succeeded with no replica bytes anywhere")
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

// TestEncodeThroughputTelemetry checks the encode-path metric: the
// per-stripe compute throughput histogram fills. It runs two encode rounds against one shared registry
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
	}
	round(31)
	reg.Reset()
	round(37)
}
