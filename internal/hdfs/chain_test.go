package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// busiestDataNode returns the live node holding the most data blocks of
// encoded stripes — the node whose death costs the most repairs.
func busiestDataNode(t *testing.T, c *Cluster) topology.NodeID {
	t.Helper()
	nn := c.NameNode()
	count := make(map[topology.NodeID]int)
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Aborted {
				continue
			}
			for _, n := range meta.Nodes {
				if !nn.IsDead(n) {
					count[n]++
				}
			}
		}
	}
	best, bestN := topology.NodeID(-1), -1
	for n := 0; n < c.Topology().Nodes(); n++ {
		if count[topology.NodeID(n)] > bestN {
			best, bestN = topology.NodeID(n), count[topology.NodeID(n)]
		}
	}
	if bestN <= 0 {
		t.Fatal("no node holds any encoded data block")
	}
	return best
}

// setRates re-rates every link and every disk of c, so a test can populate
// at full speed and measure at the shaped rates.
func setRates(t testing.TB, c *Cluster, link, disk float64) {
	t.Helper()
	if err := errors.Join(c.Fabric().SetAllRates(link), c.Fabric().SetDiskRates(disk)); err != nil {
		t.Fatal(err)
	}
}

// chainFold folds rows over the holders toward the sinks in a loop of one run
// (foldStages, runStages), copies the blocks the run ended in into out, and
// returns the fold's ledger: the bare engine, without an owner to re-plan or
// commit. Hop spans hang off the span carried by ctx.
func (c *Cluster) chainFold(ctx context.Context, stripe topology.StripeID, rows [][]byte, holders [][]topology.NodeID, key func(pos int) blockstore.Key, anchor topology.NodeID, sinks []topology.NodeID, out [][]byte) (chainLedger, error) {
	stages, err := c.foldStages(stripe, rows, holders, key, anchor, sinks, nil)
	if err != nil {
		return chainLedger{}, err
	}
	run, err := c.runStages(ctx, stages, anchor, hopSpans(ctx, stripe))
	if err != nil {
		return chainLedger{}, err
	}
	for j, b := range run.blocks() {
		copy(out[j], b.Bytes())
	}
	return c.foldLedger(stages, run.start, run.end), nil
}

// verifyBlockContents reads every written block through the client path and
// compares against ground truth.
func verifyBlockContents(t *testing.T, c *Cluster, contents map[topology.BlockID][]byte) {
	t.Helper()
	for id, want := range contents {
		got, err := c.ReadBlock(0, id)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d content diverged after repair", id)
		}
	}
}

// TestChainRepairMatchesPayload is the repair property test: across a spread
// of (k, m, rack layout, block size) geometries — with short stripes
// and aborted members in the population — killing a full DataNode and
// recovering it must restore block and parity content byte-identical to
// what was written, and no repair may ship more than one partial sum per
// rack boundary of the cluster. A second kill targets a parity holder so
// parity-row reconstruction with a dead parity node is covered in every
// geometry.
func TestChainRepairMatchesPayload(t *testing.T) {
	geoms := []struct {
		name string
		cfg  Config
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
			// partial final slice of every repair hop.
			name: "rr-5x3-k8n10-oddblock",
			cfg: Config{Racks: 5, NodesPerRack: 3, Policy: "rr", Replicas: 2,
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
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := g.cfg
			c := newCluster(t, cfg)
			contents := populatePipeTest(t, c, cfg.Seed+200)
			if _, err := c.RaidNode().EncodeAll(); err != nil {
				t.Fatal(err)
			}

			recover := func(n topology.NodeID) RecoveryStats {
				c.NameNode().MarkDead(n)
				stats, err := c.RecoverNode(context.Background(), n)
				if err != nil {
					t.Fatalf("RecoverNode(%d): %v", n, err)
				}
				// The chain visits every rack at most once, so a repair
				// crosses the core at most Racks-1 times, one partial each.
				members := int64(stats.BlocksRepaired + stats.ParityRepaired)
				if limit := members * int64(cfg.Racks-1) * int64(cfg.BlockSizeBytes); stats.CrossRackBytes > limit {
					t.Errorf("%d repairs moved %d cross-rack bytes, more than one partial per rack boundary (%d)",
						members, stats.CrossRackBytes, limit)
				}
				return stats
			}
			dead := busiestDataNode(t, c)
			if stats := recover(dead); stats.BlocksRepaired == 0 {
				t.Fatal("node death cost no data repairs")
			}
			verifyBlockContents(t, c, contents)
			if n := verifyParities(t, c, contents); n == 0 {
				t.Fatal("no parity verified after recovery")
			}

			// Second failure: a parity holder of the first encoded stripe,
			// so the sweep reconstructs a parity row (decode-row fold for a
			// parity target) with the holder dead.
			c.NameNode().MarkAlive(dead)
			sm, err := c.NameNode().Stripe(c.NameNode().EncodedStripes()[0])
			if err != nil {
				t.Fatal(err)
			}
			if stats := recover(sm.Plan.Parity[0]); stats.ParityRepaired == 0 {
				t.Fatalf("killing parity holder %d repaired no parity", sm.Plan.Parity[0])
			}
			verifyBlockContents(t, c, contents)
			if verifyParities(t, c, contents) == 0 {
				t.Fatal("no parity verified after parity-holder recovery")
			}
		})
	}
}

// loseOneBlock encodes a freshly written population on c and kills the
// holder of one data block of a full stripe, returning the block, its
// stripe and its stripe position.
func loseOneBlock(t *testing.T, c *Cluster, ids []topology.BlockID) (topology.BlockID, *StripeMeta, int) {
	t.Helper()
	nn := c.NameNode()
	encodeAll(t, c)
	for _, victim := range ids {
		vm, err := nn.Block(victim)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := nn.Stripe(vm.Stripe)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.Info.Blocks) == c.Config().K && len(vm.Nodes) == 1 {
			nn.MarkDead(vm.Nodes[0])
			return victim, sm, slices.Index(sm.Info.Blocks, victim)
		}
	}
	t.Fatal("no full encoded stripe among the written blocks")
	return 0, nil, 0
}

// TestDegradedReadCrossRackBytes pins one partial sum per survivor rack, as
// DESIGN.md ("One fold of one member") has it: a degraded read of a dead
// member moves exactly one block across the core per rack boundary of the
// chain planned over the survivors the decode rule picks for the reading
// client (survivors) — measured at the fabric, not at the engine's ledger —
// and never more than over the k lowest surviving positions.
func TestDegradedReadCrossRackBytes(t *testing.T) {
	cfg := Config{Racks: 4, NodesPerRack: 4, Policy: "ear", Replicas: 2,
		K: 6, N: 9, C: 3, BlockSizeBytes: 8 << 10,
		BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 5}
	c := newCluster(t, cfg)
	ids, contents := writeBlocks(t, c, 4*cfg.K, rand.New(rand.NewSource(53)))
	victim, sm, pos := loseOneBlock(t, c, ids)

	// The surviving positions, resolved from the NameNode alone: every
	// stripe position other than the victim that still has a live holder.
	have := make([][]topology.NodeID, cfg.N)
	var known []int
	for i := 0; i < cfg.N; i++ {
		switch {
		case i == pos:
			continue
		case i < len(sm.Info.Blocks):
			live, err := c.NameNode().LiveReplicas(sm.Info.Blocks[i])
			if err != nil {
				t.Fatal(err)
			}
			have[i] = live
		case i >= cfg.K && !c.NameNode().IsDead(sm.Plan.Parity[i-cfg.K]):
			have[i] = []topology.NodeID{sm.Plan.Parity[i-cfg.K]}
		}
		if len(have[i]) > 0 {
			known = append(known, i)
		}
	}
	if len(known) < cfg.K {
		t.Fatalf("stripe %d offers %d survivors, want at least %d", sm.Info.ID, len(known), cfg.K)
	}
	chain := func(indices []int, client topology.NodeID) int {
		holders := make([][]topology.NodeID, cfg.N)
		for _, i := range indices {
			holders[i] = have[i]
		}
		hops, err := placement.PlanPipeline(c.Topology(), holders, client)
		if err != nil {
			t.Fatal(err)
		}
		clientRack, _ := c.Topology().RackOf(client)
		return placement.PipelineRackBoundaries(hops, clientRack)
	}
	for client := topology.NodeID(0); int(client) < c.Topology().Nodes(); client++ {
		if c.NameNode().IsDead(client) {
			continue
		}
		indices, _, err := c.survivors(sm, pos, client, make(map[holder]bool), nil)
		if err != nil {
			t.Fatal(err)
		}
		boundaries := chain(indices, client)
		if lowest := chain(known[:cfg.K], client); boundaries > lowest {
			t.Fatalf("client %d: chain crosses %d boundaries, more than the %d of the k lowest survivors", client, boundaries, lowest)
		}
		if boundaries >= cfg.K {
			t.Fatalf("client %d: chain crosses %d boundaries, no better than gathering k=%d blocks", client, boundaries, cfg.K)
		}
		before := c.Fabric().Snapshot()
		got, err := c.DegradedRead(client, victim)
		if err != nil {
			t.Fatalf("DegradedRead from node %d: %v", client, err)
		}
		if !bytes.Equal(got, contents[victim]) {
			t.Fatalf("degraded read from node %d differs from payload", client)
		}
		moved := c.Fabric().Snapshot().Sub(before).CrossRackBytes
		if want := int64(boundaries) * int64(cfg.BlockSizeBytes); moved != want {
			t.Errorf("client %d: degraded read moved %d cross-rack bytes, want %d boundaries x block = %d",
				client, moved, boundaries, want)
		}
	}
}

// canceledRun runs one stage run (a fold, a replicated write) that the
// caller has arranged to end mid-way with the error want, and checks that
// nothing of it is left behind: every stream it opened is closed (a run opens
// all of them before its first stage starts), every pooled buffer is back in
// the pool, no store has gained or lost a key, and no goroutine the run
// started outlives it.
func canceledRun(t *testing.T, c *Cluster, want error, what string, run func() error) {
	t.Helper()
	reg := telemetry.NewRegistry()
	c.Fabric().SetTelemetry(reg)
	streams := reg.Gauge("fabric_streams_active", "").With()
	storeKeys := func() []int {
		keys := make([]int, c.Topology().Nodes())
		for n := range keys {
			dn, _ := c.DataNodeOf(topology.NodeID(n))
			keys[n] = dn.Store.Len()
		}
		return keys
	}
	keysBefore, outstanding, goroutines := storeKeys(), c.BufferPool().Outstanding(), runtime.NumGoroutine()
	if err := run(); !errors.Is(err, want) {
		t.Fatalf("%s = %v, want %v", what, err, want)
	}
	if opened := reg.Counter("fabric_streams_total", "").With().Value(); opened == 0 {
		t.Errorf("%s opened no stream", what)
	}
	if got := streams.Value(); got != 0 {
		t.Errorf("%s left %g fabric streams open", what, got)
	}
	if got := c.BufferPool().Outstanding(); got != outstanding {
		t.Errorf("%s leaked %d pooled buffers", what, got-outstanding)
	}
	if got := storeKeys(); !slices.Equal(got, keysBefore) {
		t.Errorf("%s changed the stores: %v -> %v keys a node", what, keysBefore, got)
	}
	settled(t, goroutines)
}

// TestChainFoldCancelAtEveryStage runs the engine directly, as a 1-row and
// as an m-row fold over a sealed stripe toward sinks that hold no member. One
// uncancelled fold at lifted rates names the fold's streams, from its
// TransferStarted events: every row's chain, the disk stream each node with
// members shares between the rows, and each row's delivery stage. Then the
// fold is cancelled the moment each of those streams in turn opens, and once
// more on a deadline that lands while every node's read-ahead is part-way
// through its block. The run opens its streams before any stage starts, so a
// cancellation at any stream but the last makes the next OpenStream fail with
// the earlier ones open and no stage running. Wherever the cancellation
// lands, every stream must be closed, every pooled buffer back in the pool,
// no store may have changed, and no goroutine may outlive the fold.
func TestChainFoldCancelAtEveryStage(t *testing.T) {
	cfg := testConfig("rr")
	cfg.BlockSizeBytes = 256 << 10      // twice a stream's window
	cfg.BandwidthBytesPerSec = 64 << 10 // 4 s per block: no fold finishes first
	cfg.DiskBandwidthBytesPerSec = 64 << 10
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	ids, _ := writeBlocks(t, c, cfg.K, rand.New(rand.NewSource(59)))
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	jrn := events.NewJournal(1 << 12)
	c.SetJournal(jrn)

	holders := make([][]topology.NodeID, cfg.K)
	var err error
	for i, id := range ids {
		if holders[i], err = c.NameNode().LiveReplicas(id); err != nil {
			t.Fatal(err)
		}
	}
	key := func(pos int) blockstore.Key { return DataKey(ids[pos]) }
	parityRows := make([][]byte, c.Coder().M())
	for j := range parityRows {
		if parityRows[j], err = c.Coder().ParityRowView(j); err != nil {
			t.Fatal(err)
		}
	}
	// One sink per row, none holding a member, so every row ends in a
	// delivery stage; the first doubles as the planning anchor.
	var sinks []topology.NodeID
	for n := topology.NodeID(0); int(n) < c.Topology().Nodes() && len(sinks) < len(parityRows); n++ {
		if !slices.ContainsFunc(holders, func(h []topology.NodeID) bool { return slices.Contains(h, n) }) {
			sinks = append(sinks, n)
		}
	}
	if len(sinks) < len(parityRows) {
		t.Fatalf("only %d nodes hold no member, want %d sinks", len(sinks), len(parityRows))
	}

	// fold runs one fold under ctx toward the first len(rows) sinks.
	fold := func(ctx context.Context, rows [][]byte) error {
		out := make([][]byte, len(rows))
		for j := range out {
			out[j] = c.BufferPool().Get(cfg.BlockSizeBytes)
		}
		_, err := c.chainFold(ctx, 0, rows, holders, key, sinks[0], sinks[:len(rows)], out)
		for _, o := range out {
			c.BufferPool().Put(o)
		}
		return err
	}
	// opened returns the streams an uncancelled fold opens, in order, and
	// checks that it read every member off its disk once, whatever the
	// number of rows.
	opened := func(rows [][]byte) []events.Event {
		setRates(t, c, 64<<30, 64<<30)
		defer setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
		var started []events.Event
		defer jrn.Subscribe(func(e events.Event) {
			if e.Type == events.TransferStarted {
				started = append(started, e)
			}
		})()
		before := c.Fabric().Snapshot()
		if err := fold(context.Background(), rows); err != nil {
			t.Fatal(err)
		}
		if read, want := c.Fabric().Snapshot().Sub(before).ClassBytes[fabric.ClassDisk], int64(cfg.K*cfg.BlockSizeBytes); read != want {
			t.Errorf("%d-row fold read %d disk bytes, want the %d of its members once", len(rows), read, want)
		}
		return started
	}
	// canceledFold runs one fold under ctx, which the caller has arranged to
	// end mid-fold, and checks that nothing of it is left behind.
	canceledFold := func(ctx context.Context, rows [][]byte, want error, where string) {
		t.Helper()
		canceledRun(t, c, want, fmt.Sprintf("%d-row fold canceled %s", len(rows), where), func() error {
			return fold(ctx, rows)
		})
		if out := c.BufferPool().Outstanding(); out != 0 {
			t.Errorf("%d-row fold canceled %s: %d pooled buffers outstanding", len(rows), where, out)
		}
	}
	for _, rows := range [][][]byte{parityRows[:1], parityRows} {
		// Every row walks the whole cover and ends in a delivery, so each row
		// has as many network streams as the cover has hops, and the hops'
		// disk streams are one per node whatever the number of rows.
		streams := opened(rows)
		disks := 0
		for _, e := range streams {
			if e.Node == e.Peer {
				disks++
			}
		}
		if network := len(streams) - disks; disks == 0 || network != len(rows)*disks {
			t.Fatalf("%d-row fold opened %d disk and %d network streams, want one network stream a row per disk stream",
				len(rows), disks, network)
		}
		for _, sink := range sinks[:len(rows)] {
			if !slices.ContainsFunc(streams, func(e events.Event) bool { return e.Peer == sink }) {
				t.Fatalf("%d-row fold opened no stream to sink %d: %+v", len(rows), sink, streams)
			}
		}
		for s, at := range streams {
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			unsub := jrn.Subscribe(func(e events.Event) {
				if e.Type == events.TransferStarted {
					if seen == s {
						cancel()
					}
					seen++
				}
			})
			canceledFold(ctx, rows, context.Canceled, fmt.Sprintf("at stream %d (%d->%d)", s, at.Node, at.Peer))
			unsub()
			cancel()
		}
		// Mid-block: a block is twice the 128 KiB a stream may hold booked and
		// unarrived, and a 4 KiB slice takes 62.5 ms on link and disk alike,
		// so 150 ms in every node's read-ahead has booked some slices — those
		// that arrived and its stream's window — and none all of them.
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		before := c.Fabric().Snapshot()
		canceledFold(ctx, rows, context.DeadlineExceeded, "mid-block")
		cancel()
		read := c.Fabric().Snapshot().Sub(before).ClassBytes[fabric.ClassDisk]
		if whole := int64(cfg.K * cfg.BlockSizeBytes); read <= 0 || read >= whole {
			t.Errorf("%d-row fold canceled mid-block had read %d disk bytes, want within (0, %d)", len(rows), read, whole)
		}
	}
}

// TestChainOpenStreamFailsMidway: a stage run opens every stream before its
// first stage starts, so an OpenStream that fails — here on a node outside
// the topology, not on a canceled context — finds earlier streams open and
// no stage running to close them. A fold whose one sink is unknown and a
// write with an unknown second replica must both return the error with every
// stream closed, every pooled buffer returned, no store changed and no
// goroutine left.
func TestChainOpenStreamFailsMidway(t *testing.T) {
	cfg := testConfig("rr")
	cfg.DiskBandwidthBytesPerSec = 64 << 20
	c := newCluster(t, cfg)
	ids, _ := writeBlocks(t, c, cfg.K, rand.New(rand.NewSource(67)))
	holders := make([][]topology.NodeID, cfg.K)
	var err error
	for i, id := range ids {
		if holders[i], err = c.NameNode().LiveReplicas(id); err != nil {
			t.Fatal(err)
		}
	}
	row, err := c.Coder().ParityRowView(0)
	if err != nil {
		t.Fatal(err)
	}
	nowhere := topology.NodeID(c.Topology().Nodes())
	canceledRun(t, c, topology.ErrUnknownNode, "fold toward an unknown sink", func() error {
		out := c.BufferPool().Get(cfg.BlockSizeBytes)
		defer c.BufferPool().Put(out)
		_, err := c.chainFold(context.Background(), 0, [][]byte{row}, holders,
			func(pos int) blockstore.Key { return DataKey(ids[pos]) }, 0, []topology.NodeID{nowhere}, [][]byte{out})
		return err
	})
	canceledRun(t, c, topology.ErrUnknownNode, "write with an unknown second replica", func() error {
		meta := &BlockMeta{ID: topology.BlockID(1 << 20), Nodes: []topology.NodeID{3, nowhere}}
		return c.replicate(context.Background(), 3, meta, make([]byte, cfg.BlockSizeBytes))
	})
}

// TestRepairReplansAroundCorruptSurvivor corrupts a survivor the first plan
// folds: the hop's checksum-verified read fails, the holder is excluded,
// the survivors are re-selected, and the repaired and degraded-read bytes
// still equal the payload. One erasure more than the code absorbs surfaces
// as ErrNoReplica rather than wrong bytes.
func TestRepairReplansAroundCorruptSurvivor(t *testing.T) {
	c := newTestCluster(t, "ear") // (6,4): dead member + corrupt survivor = n-k
	cfg := c.Config()
	ids, contents := writeBlocks(t, c, 4*cfg.K, rand.New(rand.NewSource(61)))
	victim, sm, pos := loseOneBlock(t, c, ids)

	corrupt := func(i int) {
		t.Helper()
		meta, err := c.NameNode().Block(sm.Info.Blocks[i])
		if err != nil {
			t.Fatal(err)
		}
		dn, _ := c.DataNodeOf(meta.Nodes[0])
		if err := dn.Store.Corrupt(DataKey(sm.Info.Blocks[i])); err != nil {
			t.Fatal(err)
		}
	}
	// The lowest surviving data position is in every first plan.
	first := 0
	if pos == 0 {
		first = 1
	}
	corrupt(first)
	got, err := c.DegradedRead(1, victim)
	if err != nil {
		t.Fatalf("DegradedRead with a corrupt survivor: %v", err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("degraded read around a corrupt survivor differs from payload")
	}
	target, err := c.RepairBlock(victim)
	if err != nil {
		t.Fatalf("RepairBlock with a corrupt survivor: %v", err)
	}
	dn, _ := c.DataNodeOf(target)
	if got, err = dn.Store.Get(DataKey(victim)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("repair around a corrupt survivor differs from payload")
	}

	// A third erasure in a (6,4) stripe: kill the repaired copy again and
	// corrupt a second survivor.
	c.NameNode().MarkDead(target)
	for i := range sm.Info.Blocks {
		if i != pos && i != first {
			corrupt(i)
			break
		}
	}
	if _, err := c.DegradedRead(1, victim); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("DegradedRead past n-k erasures = %v, want ErrNoReplica", err)
	}
}

// TestRepairCancelCommitsNothing kills the context mid-repair on a slow
// fabric and verifies the staged-commit contract of a chain repair: no
// block lands in any store, no location changes, the auditor stays clean,
// and rerunning the repair at full speed restores the block.
func TestRepairCancelCommitsNothing(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 256 << 10
	// ~2s per block: the cancel lands mid-slice, and the window of slices each
	// canceled stream leaves booked is what the re-repair below waits behind.
	cfg.BandwidthBytesPerSec = 128 << 10
	c := newCluster(t, cfg)
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)

	// Populate and encode at full speed, then throttle for the repair.
	setRates(t, c, 64<<30, 64<<30)
	rng := rand.New(rand.NewSource(23))
	ids, contents := writeBlocks(t, c, cfg.K, rng)
	encodeAll(t, c)
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.BandwidthBytesPerSec)

	victim := ids[0]
	vm, err := c.NameNode().Block(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	canceledRun(t, c, context.DeadlineExceeded, "RepairBlockCtx under timeout", func() error {
		_, err := c.RepairBlockCtx(ctx, victim)
		return err
	})
	if meta, err := c.NameNode().Block(victim); err != nil || len(meta.Nodes) != 1 || meta.Nodes[0] != vm.Nodes[0] {
		t.Fatalf("block location changed across canceled repair: %v, %v", meta, err)
	}
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after canceled repair: %+v", rep)
	}

	// Requeue: the same repair at full speed succeeds and restores content.
	setRates(t, c, 64<<30, 64<<30)
	target, err := c.RepairBlock(victim)
	if err != nil {
		t.Fatalf("repair after cancel: %v", err)
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dn.Store.Get(DataKey(victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("repaired content differs from ground truth")
	}
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after re-repair: %+v", rep)
	}
}

// TestConcurrentRepairSameStripe loses two data blocks of one stripe and
// repairs them concurrently — the -race run proves the shared decode cache,
// the members' shared store views and pooled buffers tolerate concurrent
// RepairBlock on the same stripe. The two repairs take the repair turn one
// after the other, so the second plans against the first's commit: the
// targets differ, and the PlacementMonitor and an attached auditor find the
// stripe within rack fault tolerance.
func TestConcurrentRepairSameStripe(t *testing.T) {
	cfg := testConfig("ear") // (6,4): two erasures stay decodable
	c := newCluster(t, cfg)
	jrn := events.NewJournal(1 << 12)
	c.SetJournal(jrn)
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)
	rng := rand.New(rand.NewSource(31))
	_, contents := writeBlocks(t, c, 4*cfg.K, rng)
	encodeAll(t, c)
	nn := c.NameNode()
	// Find a stripe with two single-replica members on distinct nodes and
	// kill both holders (a (6,4) code decodes through two erasures).
	var victims []topology.BlockID
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		var picks []topology.BlockID
		seen := make(map[topology.NodeID]bool)
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Aborted || len(meta.Nodes) != 1 || seen[meta.Nodes[0]] {
				continue
			}
			seen[meta.Nodes[0]] = true
			picks = append(picks, b)
			if len(picks) == 2 {
				break
			}
		}
		if len(picks) == 2 {
			victims = picks
			for _, b := range victims {
				meta, err := nn.Block(b)
				if err != nil {
					t.Fatal(err)
				}
				nn.MarkDead(meta.Nodes[0])
			}
			break
		}
	}
	if len(victims) != 2 {
		t.Fatal("no stripe offered two single-replica victims on distinct nodes")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(victims))
	targets := make([]topology.NodeID, len(victims))
	for i, b := range victims {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			targets[i], errs[i] = c.RepairBlock(b)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent repair of block %d: %v", victims[i], err)
		}
		dn, err := c.DataNodeOf(targets[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := dn.Store.Get(DataKey(victims[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[victims[i]]) {
			t.Fatalf("block %d repaired with wrong content", victims[i])
		}
	}
	if targets[0] == targets[1] {
		t.Errorf("both repairs of the stripe chose node %d", targets[0])
	}
	monitorClean(t, c)
	if rep := aud.Report(); rep.Total() != 0 {
		t.Errorf("auditor dirty after the concurrent repairs: %+v", rep)
	}
}

// TestFoldSliceDerivation pins how a stage run sizes its slices: with streams
// in series, the largest power of two within [4 KiB, fabric.ChunkBytes] that
// fills the chain within 1/32 of the block time, or more where the anchor's
// NIC moves more than a slice in 100 µs at the fabric's current rate (an
// unshaped fabric walks fabric.ChunkBytes); with a single stream deep,
// fabric.ChunkBytes whatever the rate.
func TestFoldSliceDerivation(t *testing.T) {
	cfg := testConfig("ear")
	c := newCluster(t, cfg)
	if got := c.foldSliceBytes(0, 2); got != minSliceBytes {
		t.Errorf("slice of an 8 KiB block at the configured %g B/s = %d, want %d", cfg.BandwidthBytesPerSec, got, minSliceBytes)
	}
	// Each row re-rates the same fabric, so every derivation after the first
	// also shows that the current rate is read, not the configured one. The
	// 8 KiB block leaves the fill budget no room: the rate alone decides.
	for _, tc := range []struct {
		rate float64
		want int
	}{
		{16 << 20, 4 << 10},
		{128 << 20, 8 << 10},
		{256 << 20, 16 << 10},
		{384 << 20, 32 << 10}, // rounds down to a power of two
		{64 << 30, 64 << 10},
		{1 << 20, 4 << 10},
	} {
		setRates(t, c, tc.rate, tc.rate)
		if got := c.foldSliceBytes(0, 2); got != tc.want {
			t.Errorf("slice after SetAllRates(%g) = %d, want %d", tc.rate, got, tc.want)
		}
		if got := c.foldSliceBytes(0, 1); got != fabric.ChunkBytes {
			t.Errorf("slice of a run one stream deep after SetAllRates(%g) = %d, want %d", tc.rate, got, fabric.ChunkBytes)
		}
	}

	// A megabyte block on 8 MiB/s links: the fill budget of 32 KiB a block
	// sets the slice, down to the floor for a run 9 streams deep.
	cfg.BlockSizeBytes, cfg.BandwidthBytesPerSec = 1<<20, 8<<20
	big := newCluster(t, cfg)
	for streams, want := range map[int]int{1: 64 << 10, 2: 32 << 10, 3: 16 << 10, 5: 8 << 10, 9: 4 << 10, 13: 4 << 10} {
		if got := big.foldSliceBytes(0, streams); got != want {
			t.Errorf("slice of a 1 MiB block at 8 MiB/s, %d streams deep = %d, want %d", streams, got, want)
		}
	}
	// The benchmark geometry: the 13-stream degraded read of 256 KiB blocks
	// on 16 MiB/s links walks 4 KiB, and so does an encode's 3-stream row
	// chain; a two-stream replicated write walks 8 KiB.
	bench := newCluster(t, benchGeometry())
	for streams, want := range map[int]int{1: 64 << 10, 2: 8 << 10, 3: 4 << 10, 4: 4 << 10, 5: 4 << 10, 13: 4 << 10} {
		if got := bench.foldSliceBytes(0, streams); got != want {
			t.Errorf("slice on the benchmark geometry, %d streams deep = %d, want %d", streams, got, want)
		}
	}
}

// onLink is n bytes on a link of the given rate, bytes per second.
func onLink(n int, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

// took is how long op takes on the clock the suite was built for.
func took(op func()) time.Duration {
	t0 := time.Now()
	op()
	return time.Since(t0)
}

// benchGeometry is the benchmark's shaped cluster: (14,12) over 4x4 nodes,
// 256 KiB blocks, 16 MiB/s links, 32 MiB/s disks.
func benchGeometry() Config {
	return Config{Racks: 4, NodesPerRack: 4, Policy: "ear", Replicas: 2,
		K: 12, N: 14, C: 4, BlockSizeBytes: 256 << 10,
		BandwidthBytesPerSec: 16 << 20, DiskBandwidthBytesPerSec: 32 << 20,
		MapTasks: 4, Seed: 6}
}

// benchWalks are the benchmark's client walks: writer w issues its writes
// from seeded shuffles of all nodes, one after another.
func benchWalks(seed int64, nodes int) func(w int) func() topology.NodeID {
	return func(w int) func() topology.NodeID {
		rng := rand.New(rand.NewSource(seed*7919 + 101 + int64(w)))
		var perm []int
		return func() topology.NodeID {
			if len(perm) == 0 {
				perm = rng.Perm(nodes)
			}
			n := perm[0]
			perm = perm[1:]
			return topology.NodeID(n)
		}
	}
}

// lifecycleWrites returns a cluster of the benchmark geometry on the given
// seed holding what one lifecycle-shaped round writes: 14 x k blocks.
func lifecycleWrites(t testing.TB, seed int64) (*Cluster, Config) {
	t.Helper()
	return benchWrites(t, seed, 14)
}

// benchWrites returns a cluster of the benchmark geometry on the given seed
// holding stripes x k blocks from the benchmark's two clients' walks, taken
// in turn from one goroutine so the layout repeats, at lifted rates.
func benchWrites(t testing.TB, seed int64, stripes int) (*Cluster, Config) {
	t.Helper()
	cfg := benchGeometry()
	cfg.Seed = seed
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	walks := benchWalks(seed, cfg.Racks*cfg.NodesPerRack)
	clients := []func() topology.NodeID{walks(0), walks(1)}
	data := make([]byte, cfg.BlockSizeBytes)
	for i := 0; i < stripes*cfg.K; i++ {
		if _, err := c.WriteBlock(clients[i%2](), data); err != nil {
			t.Fatal(err)
		}
	}
	return c, cfg
}

// lifecycleRun is what each phase of one lifecycleOnBench took. Encode and
// recovery run several folds at once and have no closed form; what holds them
// from below is their link bound, the bytes the phase put on its busiest link
// over that link's rate. encodeLinks is what the encode put on every link.
type lifecycleRun struct {
	write, read, encode, degraded, recover time.Duration
	encodeBound, recoverBound              time.Duration
	encodeLinks                            fabric.Snapshot
}

// linkBound times op and returns its link bound beside what it took and what
// it put on every link, failing the test if op beat the bound.
func linkBound(t *testing.T, c *Cluster, what string, op func()) (dur, bound time.Duration, moved fabric.Snapshot) {
	t.Helper()
	before := c.Fabric().Snapshot()
	dur = took(op)
	moved = c.Fabric().Snapshot().Sub(before)
	for _, l := range moved.Links {
		bound = max(bound, onLink(int(l.MovedBytes), l.RateBytesPerSec))
	}
	if dur <= bound-time.Microsecond { // a booking's link time is truncated to the nanosecond
		t.Errorf("%s took %v, under the %v its busiest link needs", what, dur, bound)
	}
	return dur, bound, moved
}

// lifecycleOnBench takes a fresh cluster of the benchmark geometry through
// the lifecycle the benchmark measures, one closed-loop client throughout: 4k
// seeded writes (EAR seals a stripe per core rack), k reads, the encode of
// every stripe, the death of the busiest node, a degraded read of a block it
// held, its recovery, and an unshaped read-back of every block against the
// seeded payload. It fails the test on a wrong byte, an unrecovered member, a
// phase under its link bound or a pooled buffer still out.
func lifecycleOnBench(t *testing.T) (run lifecycleRun) {
	t.Helper()
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	rng := rand.New(rand.NewSource(81))
	var ids []topology.BlockID
	var contents map[topology.BlockID][]byte
	run.write = took(func() { ids, contents = writeBlocks(t, c, 4*cfg.K, rng) })
	run.read = took(func() {
		for _, id := range ids[:cfg.K] {
			if _, err := c.ReadBlock(topology.NodeID(rng.Intn(c.Topology().Nodes())), id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	run.encode, run.encodeBound, run.encodeLinks = linkBound(t, c, "encode", func() {
		if _, err := c.RaidNode().EncodeAll(); err != nil {
			t.Fatal(err)
		}
	})
	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	lost := ids[slices.IndexFunc(ids, func(id topology.BlockID) bool {
		meta, err := c.NameNode().Block(id)
		return err == nil && slices.Equal(meta.Nodes, []topology.NodeID{dead})
	})]
	run.degraded = took(func() {
		if _, err := c.DegradedRead((dead+1)%topology.NodeID(c.Topology().Nodes()), lost); err != nil {
			t.Fatal(err)
		}
	})
	run.recover, run.recoverBound, _ = linkBound(t, c, "recovery", func() {
		stats, err := c.RecoverNode(context.Background(), dead)
		if err != nil || stats.Unrecovered != 0 || stats.BlocksRepaired == 0 {
			t.Fatalf("RecoverNode(%d) = %+v, %v", dead, stats, err)
		}
	})
	setRates(t, c, 64<<30, 64<<30)
	verifyBlockContents(t, c, contents)
	if out := c.BufferPool().Outstanding(); out != 0 {
		t.Errorf("%d pooled buffers still out after the lifecycle", out)
	}
	return run
}
