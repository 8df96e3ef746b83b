package hdfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ear/internal/events"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// TestRecoverNode drives a full-node failure through the parallel recovery
// driver: every member lost with the node is reconstructed, the plan is
// deterministic and balanced across surviving nodes, lifecycle events
// bracket the sweep, and the progress tracker's durability-exposure ledger
// opens on the death and fully closes on recovery.
func TestRecoverNode(t *testing.T) {
	cfg := Config{Racks: 4, NodesPerRack: 4, Policy: "ear", Replicas: 2,
		K: 6, N: 9, C: 3, BlockSizeBytes: 8 << 10,
		BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 7}
	c := newCluster(t, cfg)
	jrn := events.NewJournal(1 << 15)
	c.SetJournal(jrn)
	tracker := progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
	defer tracker.Attach(jrn)()

	rng := rand.New(rand.NewSource(41))
	_, contents := writeBlocks(t, c, 6*cfg.K, rng)
	encodeAll(t, c)

	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	if rep := tracker.Report(); rep.BlocksAtRisk == 0 {
		t.Fatal("node death opened no exposure windows in the progress tracker")
	}

	// The plan is deterministic: two plannings of the same state agree.
	plan1, err := c.planNodeRecovery(dead)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := c.planNodeRecovery(dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan1) != len(plan2) {
		t.Fatalf("plan sizes differ: %d vs %d", len(plan1), len(plan2))
	}
	if len(plan1) == 0 {
		t.Fatal("busiest node's death planned no repairs")
	}
	for i := range plan1 {
		a, b := plan1[i], plan2[i]
		if a.sm.Info.ID != b.sm.Info.ID || a.pos != b.pos || a.target != b.target {
			t.Fatalf("plan diverged at %d: %+v vs %+v", i, a, b)
		}
	}
	// Balanced: no surviving node is assigned a disproportionate share, and
	// the load spreads over more than one rack.
	perNode := make(map[topology.NodeID]int)
	racks := make(map[topology.RackID]bool)
	for _, task := range plan1 {
		if task.target == dead {
			t.Fatalf("task targets the dead node: %+v", task)
		}
		perNode[task.target]++
		r, err := c.Topology().RackOf(task.target)
		if err != nil {
			t.Fatal(err)
		}
		racks[r] = true
	}
	maxLoad := (len(plan1) + len(perNode) - 1) / len(perNode)
	for n, load := range perNode {
		if load > maxLoad+1 {
			t.Errorf("node %d assigned %d repairs, fair share %d", n, load, maxLoad)
		}
	}
	if len(plan1) >= 4 && len(racks) < 2 {
		t.Errorf("%d repairs all landed in one rack", len(plan1))
	}

	stats, err := c.RecoverNode(context.Background(), dead)
	if err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if stats.BlocksRepaired+stats.ParityRepaired != len(plan1) {
		t.Fatalf("repaired %d+%d members, planned %d",
			stats.BlocksRepaired, stats.ParityRepaired, len(plan1))
	}
	if stats.BytesRepaired != int64(len(plan1))*int64(cfg.BlockSizeBytes) {
		t.Errorf("BytesRepaired = %d, want %d", stats.BytesRepaired, int64(len(plan1))*int64(cfg.BlockSizeBytes))
	}
	if stats.CrossRackBytes <= 0 || stats.CrossRackBytes > stats.TotalBytes {
		t.Errorf("implausible traffic: cross %d of total %d", stats.CrossRackBytes, stats.TotalBytes)
	}
	if stats.Duration <= 0 || stats.ThroughputMBps() <= 0 {
		t.Errorf("implausible timing: %v, %.2f MB/s", stats.Duration, stats.ThroughputMBps())
	}

	// Nothing references the dead node anymore, and all content survives.
	nn := c.NameNode()
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
				if n == dead {
					t.Fatalf("block %d still located on dead node %d", b, dead)
				}
			}
		}
		for j, n := range sm.Plan.Parity {
			if n == dead {
				t.Fatalf("stripe %d parity %d still located on dead node %d", sid, j, dead)
			}
		}
	}
	verifyBlockContents(t, c, contents)
	if n := verifyParities(t, c, contents); n == 0 {
		t.Fatal("no parity verified after recovery")
	}

	// Recovery closed every exposure window it could: zero residual risk.
	if rep := tracker.Report(); rep.BlocksAtRisk != 0 {
		t.Fatalf("blocks at risk after full recovery = %d, want 0", rep.BlocksAtRisk)
	}

	// Lifecycle events bracket the sweep.
	started, _, _ := jrn.Since(0, 0, events.Filter{Type: events.NodeRecoveryStarted})
	finished, _, _ := jrn.Since(0, 0, events.Filter{Type: events.NodeRecoveryFinished})
	if len(started) != 1 || len(finished) != 1 {
		t.Fatalf("lifecycle events: %d started, %d finished, want 1 each", len(started), len(finished))
	}
	if started[0].Node != dead || finished[0].Node != dead {
		t.Errorf("lifecycle events name nodes %d/%d, want %d", started[0].Node, finished[0].Node, dead)
	}
	if finished[0].Bytes != stats.BytesRepaired {
		t.Errorf("NodeRecoveryFinished bytes %d, want %d", finished[0].Bytes, stats.BytesRepaired)
	}

	// A live node is not recoverable.
	if _, err := c.RecoverNode(context.Background(), dead+1); err == nil {
		t.Error("RecoverNode on a live node should fail")
	}
	// A second sweep over the same dead node finds nothing left to do.
	again, err := c.RecoverNode(context.Background(), dead)
	if err != nil {
		t.Fatalf("idempotent re-sweep: %v", err)
	}
	if again.BlocksRepaired+again.ParityRepaired != 0 {
		t.Errorf("re-sweep repaired %d members, want 0", again.BlocksRepaired+again.ParityRepaired)
	}
}

// TestRepairTelemetry checks the repair traffic metrics: cross-rack repair
// bytes accumulate and the per-repair throughput histogram populates.
func TestRepairTelemetry(t *testing.T) {
	cfg := testConfig("ear")
	c := newCluster(t, cfg)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(43))
	ids, _ := writeBlocks(t, c, cfg.K, rng)
	encodeAll(t, c)
	vm, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])
	if _, err := c.RepairBlock(ids[0]); err != nil {
		t.Fatal(err)
	}
	var cross, mbpsCount float64
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			switch fam.Name {
			case "hdfs_repair_cross_rack_bytes_total":
				cross += s.Value
			case "hdfs_repair_mbps":
				mbpsCount += float64(s.Count)
			}
		}
	}
	if cross <= 0 {
		t.Errorf("hdfs_repair_cross_rack_bytes_total = %v, want > 0", cross)
	}
	if mbpsCount == 0 {
		t.Error("hdfs_repair_mbps histogram empty")
	}
}

// TestRecoverNodeUnrecoverable: with more erasures than parity can absorb,
// RecoverNode surfaces the error instead of silently skipping the stripe —
// and still repairs every other member the dead node held.
func TestRecoverNodeUnrecoverable(t *testing.T) {
	cfg := testConfig("ear")
	c := newCluster(t, cfg)
	jrn := events.NewJournal(1 << 15)
	c.SetJournal(jrn)
	rng := rand.New(rand.NewSource(47))
	_, contents := writeBlocks(t, c, 12*cfg.K, rng)
	encodeAll(t, c)
	// Kill three members of ONE stripe: (6,4) absorbs only two erasures. The
	// node to recover is one of the three that holds a member of another
	// stripe too, so that it has something recoverable; where the plans put
	// the members varies from run to run (concurrent stripes share one rng).
	nn := c.NameNode()
	members := make(map[topology.NodeID]int)
	for _, sid := range nn.EncodedStripes() {
		sm := stripeOf(t, c, sid)
		for pos := 0; pos < cfg.N; pos++ {
			recorded, err := c.recordedHolders(sm, pos)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range recorded {
				members[n]++
			}
		}
	}
	var dead topology.NodeID = -1
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		var holders []topology.NodeID
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
			holders = append(holders, meta.Nodes[0])
		}
		holders = holders[:min(len(holders), 3)]
		if i := slices.IndexFunc(holders, func(n topology.NodeID) bool { return members[n] > 1 }); len(holders) == 3 && i >= 0 {
			for _, n := range holders {
				nn.MarkDead(n)
			}
			dead = holders[i]
			break
		}
	}
	if dead < 0 {
		t.Fatal("no stripe offered three single-replica members on distinct nodes, one of them holding more")
	}
	// Split what the dead node held by whether its stripe can still decode.
	tasks, err := c.planNodeRecovery(dead)
	if err != nil {
		t.Fatal(err)
	}
	var recoverable, hopeless []recoverTask
	for _, task := range tasks {
		erased := 0
		for i := 0; i < cfg.N; i++ {
			if _, known, err := c.posHolders(task.sm, i, nil); err != nil {
				t.Fatal(err)
			} else if !known {
				erased++
			}
		}
		if erased <= cfg.N-cfg.K {
			recoverable = append(recoverable, task)
		} else {
			hopeless = append(hopeless, task)
		}
	}
	if len(recoverable) == 0 || len(hopeless) == 0 {
		t.Fatalf("dead node holds %d recoverable and %d unrecoverable members, want both", len(recoverable), len(hopeless))
	}

	stats, err := c.RecoverNode(context.Background(), dead)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("RecoverNode over an unrecoverable stripe = %v, want ErrNoReplica", err)
	}
	if got := stats.BlocksRepaired + stats.ParityRepaired; got != len(recoverable) || stats.Unrecovered != len(hopeless) {
		t.Fatalf("repaired %d, unrecovered %d; want %d and %d", got, stats.Unrecovered, len(recoverable), len(hopeless))
	}
	// One hopeless stripe did not cancel its siblings: no recoverable member
	// names the dead node any more, and every repaired block reads back.
	for _, task := range recoverable {
		sm, err := nn.Stripe(task.sm.Info.ID)
		if err != nil {
			t.Fatal(err)
		}
		recorded, err := c.recordedHolders(sm, task.pos)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(recorded, dead) {
			t.Errorf("stripe %d position %d still names dead node %d", sm.Info.ID, task.pos, dead)
		}
		if task.pos >= cfg.K {
			continue
		}
		block := sm.Info.Blocks[task.pos]
		got, err := c.ReadBlock(task.target, block)
		if err != nil || !bytes.Equal(got, contents[block]) {
			t.Errorf("repaired block %d reads back wrong (err %v)", block, err)
		}
	}
	finished, _, _ := jrn.Since(0, 0, events.Filter{Type: events.NodeRecoveryFinished})
	want := fmt.Sprintf("%d repaired, %d unrecovered", len(recoverable), len(hopeless))
	if len(finished) != 1 || finished[0].Detail != want {
		t.Errorf("NodeRecoveryFinished = %+v, want one event with detail %q", finished, want)
	}
}
