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

	"ear/internal/events"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// recoverGeometry is the node-recovery tests' cluster: (9,6) with c = 3 on
// four racks of four, so a dead node's members have targets in several racks.
func recoverGeometry() Config {
	return Config{Racks: 4, NodesPerRack: 4, Policy: "ear", Replicas: 2,
		K: 6, N: 9, C: 3, BlockSizeBytes: 8 << 10,
		BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 7}
}

// TestRecoverNode drives a full-node failure through the parallel recovery
// driver: every member lost with the node is reconstructed, the plan is
// deterministic and balanced across surviving nodes, lifecycle events
// bracket the sweep, and the progress tracker's durability-exposure ledger
// opens on the death and fully closes on recovery.
func TestRecoverNode(t *testing.T) {
	cfg := recoverGeometry()
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
	plan1, _, err := c.planNodeRecovery(dead)
	if err != nil {
		t.Fatal(err)
	}
	plan2, _, err := c.planNodeRecovery(dead)
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
	if left := recordedOn(t, c, dead); len(left) != 0 {
		t.Fatalf("members %v still located on dead node %d", left, dead)
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
	// stripe too, so that it has something recoverable. The seed fixes where
	// the plans put the members (TestEncodePlansRepeat), so the search finds
	// the same stripe and node on every run; it searches so as not to depend
	// on which.
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
	tasks, _, err := c.planNodeRecovery(dead)
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

// recordedOn lists the members of encoded stripes the NameNode records on the
// node, as stripe*n + position.
func recordedOn(t *testing.T, c *Cluster, node topology.NodeID) []int {
	t.Helper()
	var members []int
	for _, sid := range c.NameNode().EncodedStripes() {
		sm := stripeOf(t, c, sid)
		for pos := 0; pos < c.Config().N; pos++ {
			recorded, err := c.recordedHolders(sm, pos)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(recorded, node) {
				members = append(members, int(sid)*c.Config().N+pos)
			}
		}
	}
	return members
}

// TestRecoverNodeSecondDeath kills a repair target inside the sweep that
// chose it — the failure of the repair target inside the repair window — at
// the sweep's first RepairStarted, and under a fold delivering to it. Either
// way nothing is ever recorded on a node that was dead at commit, the one call
// still repairs every member of the first node by planning again, the exposure
// windows left open are the second node's, no pooled buffer stays out, and a
// sweep of the second node then finds exactly what it held when it died.
func TestRecoverNodeSecondDeath(t *testing.T) {
	for _, tc := range []struct {
		name string
		// victim picks the target to kill from the first plan, trigger the
		// event of the sweep that kills it.
		victim  func(plan []recoverTask) topology.NodeID
		trigger func(e events.Event, victim topology.NodeID) bool
	}{
		{"at the first repair", func(plan []recoverTask) topology.NodeID { return plan[len(plan)-1].target },
			func(e events.Event, _ topology.NodeID) bool { return e.Type == events.RepairStarted }},
		{"under its fold", func(plan []recoverTask) topology.NodeID { return plan[0].target },
			func(e events.Event, victim topology.NodeID) bool {
				return e.Type == events.TransferStarted && e.Peer == victim
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := recoverGeometry()
			c := newCluster(t, cfg)
			nn := c.NameNode()
			jrn := events.NewJournal(1 << 15)
			c.SetJournal(jrn)
			tracker := progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
			defer tracker.Attach(jrn)()
			_, contents := writeBlocks(t, c, 6*cfg.K, rand.New(rand.NewSource(41)))
			encodeAll(t, c)

			first := busiestDataNode(t, c)
			nn.MarkDead(first)
			plan, _, err := c.planNodeRecovery(first)
			if err != nil || len(plan) == 0 {
				t.Fatalf("plan of %d tasks, %v", len(plan), err)
			}
			second := tc.victim(plan)
			heldBefore := len(recordedOn(t, c, second))

			// A subscriber runs under the journal's lock, which MarkDead's own
			// event needs: the death is set from a goroutine, is in force before
			// the subscriber returns, and is journaled right after it.
			var killed sync.WaitGroup
			armed := true
			cancel := jrn.Subscribe(func(e events.Event) {
				if !armed || !tc.trigger(e, second) {
					return
				}
				armed = false
				killed.Add(1)
				go func() {
					defer killed.Done()
					nn.MarkDead(second)
				}()
				for !nn.IsDead(second) {
					runtime.Gosched()
				}
			})
			stats, err := c.RecoverNode(context.Background(), first)
			cancel()
			killed.Wait()
			if armed {
				t.Fatal("the sweep published no event to kill the second node on")
			}
			if err != nil || stats.Unrecovered != 0 || stats.BlocksRepaired+stats.ParityRepaired != len(plan) {
				t.Fatalf("RecoverNode(%d) with node %d dying under it = %+v, %v; want all %d members repaired",
					first, second, stats, err, len(plan))
			}
			if left := recordedOn(t, c, first); len(left) != 0 {
				t.Errorf("members %v still recorded on node %d", left, first)
			}
			t.Logf("node %d recovered with node %d dying under the sweep: %d + %d members, %d unrecovered", first, second, stats.BlocksRepaired, stats.ParityRepaired, stats.Unrecovered)

			// No repair finished on the second node after its death, and it is
			// recorded for what it held plus what was committed while it lived.
			died, _, _ := jrn.Since(0, 0, events.Filter{Type: events.NodeDead})
			if len(died) != 2 || died[1].Node != second {
				t.Fatalf("node-dead events %+v, want nodes %d and %d", died, first, second)
			}
			finished, _, _ := jrn.Since(0, 0, events.Filter{Type: events.RepairFinished})
			alive := 0
			for _, e := range finished {
				if e.Node != second {
					continue
				}
				if e.Seq > died[1].Seq {
					t.Errorf("repair of stripe %d finished on node %d at seq %d, after it died at seq %d", e.Stripe, second, e.Seq, died[1].Seq)
				}
				alive++
			}
			held := recordedOn(t, c, second)
			if len(held) != heldBefore+alive {
				t.Errorf("node %d held %d members, %d repairs finished on it alive, yet %d are recorded on it",
					second, heldBefore, alive, len(held))
			}
			// The ledger keeps one window a stripe: what is still open is a
			// stripe with a data block on the second node, nothing of the first's.
			exposed := make(map[topology.StripeID]bool)
			for _, m := range held {
				if m%cfg.N < cfg.K {
					exposed[topology.StripeID(m/cfg.N)] = true
				}
			}
			for _, w := range tracker.Report().ExposureWindows {
				if !w.Resolved() && !exposed[w.Stripe] {
					t.Errorf("exposure window still open with node %d recovered and nothing of the stripe on node %d: %+v", first, second, w)
				}
			}
			for _, typ := range []events.Type{events.NodeRecoveryStarted, events.NodeRecoveryFinished} {
				if evs, _, _ := jrn.Since(0, 0, events.Filter{Type: typ}); len(evs) != 1 {
					t.Errorf("%d %s events, want 1: the rounds are one sweep", len(evs), typ)
				}
			}
			if out := c.BufferPool().Outstanding(); out != 0 {
				t.Errorf("%d pooled buffers still out after the sweep", out)
			}

			// The second node's own sweep finds what it held when it died.
			stats, err = c.RecoverNode(context.Background(), second)
			if err != nil || stats.Unrecovered != 0 || stats.BlocksRepaired+stats.ParityRepaired != len(held) {
				t.Fatalf("RecoverNode(%d) = %+v, %v; want the %d members it held", second, stats, err, len(held))
			}
			if left := append(recordedOn(t, c, first), recordedOn(t, c, second)...); len(left) != 0 {
				t.Errorf("members %v still recorded on a dead node", left)
			}
			if rep := tracker.Report(); rep.BlocksAtRisk != 0 {
				t.Errorf("blocks at risk after both recoveries = %d, want 0", rep.BlocksAtRisk)
			}
			verifyBlockContents(t, c, contents)
			if n := verifyParities(t, c, contents); n == 0 {
				t.Error("no parity verified after recovery")
			}
		})
	}
}

// TestRecoverNodeStuckMember: a lost member no node is eligible to take must
// not cost the sweep its other members. With c = 1 a full stripe fills every
// rack, so the only targets for a dead node's member are its rack-mates; with
// those dead too, the members of full stripes are stuck while the members of
// short stripes, which leave racks free, are not. The sweep repairs the latter,
// counts and reports the former, and picks them up when a rack-mate returns.
func TestRecoverNodeStuckMember(t *testing.T) {
	cfg := testConfig("ear")
	c := newCluster(t, cfg)
	nn := c.NameNode()
	_, contents := writeBlocks(t, c, 12*cfg.K, rand.New(rand.NewSource(53)))
	encodeAll(t, c)

	var dead topology.NodeID = -1
	var mates []topology.NodeID
	var tasks []recoverTask
	var stuck []error
	for n := 0; n < c.Topology().Nodes() && dead < 0; n++ {
		rack, err := c.Topology().RackOf(topology.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		mates, err = c.Topology().NodesInRack(rack)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mates {
			nn.MarkDead(m)
		}
		if tasks, stuck, err = c.planNodeRecovery(topology.NodeID(n)); err != nil {
			t.Fatal(err)
		}
		if len(tasks) > 0 && len(stuck) > 0 {
			dead = topology.NodeID(n)
			break
		}
		for _, m := range mates {
			nn.MarkAlive(m)
		}
	}
	if dead < 0 {
		t.Fatal("no node holds a member of a full stripe and a member of a short one")
	}
	t.Logf("node %d, its rack dead: %d members have a target, %d have none", dead, len(tasks), len(stuck))

	stats, err := c.RecoverNode(context.Background(), dead)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("RecoverNode with %d stuck members = %v, want ErrNoReplica", len(stuck), err)
	}
	if got := stats.BlocksRepaired + stats.ParityRepaired; got != len(tasks) || stats.Unrecovered != len(stuck) {
		t.Fatalf("repaired %d, unrecovered %d; want %d and %d", got, stats.Unrecovered, len(tasks), len(stuck))
	}
	if left := recordedOn(t, c, dead); len(left) != len(stuck) {
		t.Errorf("%d members still recorded on node %d, want the %d stuck ones", len(left), dead, len(stuck))
	}
	for _, task := range tasks {
		if task.pos >= cfg.K {
			continue
		}
		block := task.sm.Info.Blocks[task.pos]
		if got, err := c.ReadBlock(task.target, block); err != nil || !bytes.Equal(got, contents[block]) {
			t.Errorf("repaired block %d reads back wrong (err %v)", block, err)
		}
	}

	// A rack-mate back in service is a target again: the same call finishes
	// the job.
	for _, m := range mates {
		if m != dead {
			nn.MarkAlive(m)
			break
		}
	}
	stats, err = c.RecoverNode(context.Background(), dead)
	if err != nil || stats.Unrecovered != 0 || stats.BlocksRepaired+stats.ParityRepaired != len(stuck) {
		t.Fatalf("re-sweep with a rack-mate alive = %+v, %v; want the %d stuck members repaired", stats, err, len(stuck))
	}
	if left := recordedOn(t, c, dead); len(left) != 0 {
		t.Errorf("members %v still recorded on node %d", left, dead)
	}
}

// TestPickTarget walks pickTarget through the edge cases a rack allocator
// gets wrong (an index advanced before use, a continue that does not advance,
// a walk that never ends when everything is excluded): with nothing eligible
// it returns ErrNoReplica, never loops or panics; otherwise it returns the
// least (node load, rack load, apart from the stripe, ring distance).
func TestPickTarget(t *testing.T) {
	grid := func(racks, perRack, c int) Config {
		return Config{Racks: racks, NodesPerRack: perRack, Policy: "rr", Replicas: 1,
			K: 2, N: 3, C: c, BlockSizeBytes: 4 << 10, Seed: 1}
	}
	all := func(n int) []topology.NodeID {
		ids := make([]topology.NodeID, n)
		for i := range ids {
			ids[i] = topology.NodeID(i)
		}
		return ids
	}
	const none = topology.NodeID(-1)
	for _, tc := range []struct {
		name      string
		cfg       Config
		stripe    topology.StripeID
		dead      []topology.NodeID
		used      []topology.NodeID
		rackCount map[topology.RackID]int
		load      map[topology.NodeID]int
		want      topology.NodeID
	}{
		{name: "every rack at its c limit", cfg: grid(4, 3, 1),
			rackCount: map[topology.RackID]int{0: 1, 1: 1, 2: 1, 3: 1}, want: none},
		{name: "every candidate dead", cfg: grid(4, 3, 1), dead: all(12), want: none},
		{name: "used covers every node", cfg: grid(4, 3, 1), stripe: 5, used: all(12), want: none},
		{name: "the one rack with room is dead or used", cfg: grid(4, 3, 1), stripe: 2,
			rackCount: map[topology.RackID]int{0: 1, 2: 1, 3: 1}, dead: []topology.NodeID{3, 5}, used: []topology.NodeID{4}, want: none},
		{name: "single rack with room", cfg: grid(1, 4, 3), stripe: 9,
			rackCount: map[topology.RackID]int{0: 2}, used: []topology.NodeID{1, 2}, want: 3},
		{name: "single rack at its limit", cfg: grid(1, 4, 3),
			rackCount: map[topology.RackID]int{0: 3}, used: []topology.NodeID{0, 1, 2}, want: none},
		{name: "the rotation starts at stripe mod nodes", cfg: grid(4, 3, 2), stripe: 19, want: 7},
		{name: "and skips the dead and the used", cfg: grid(4, 3, 2), stripe: 19,
			dead: []topology.NodeID{7}, used: []topology.NodeID{8}, want: 9},
		{name: "co-located beats apart at equal load", cfg: grid(4, 3, 2), stripe: 3,
			rackCount: map[topology.RackID]int{0: 1}, used: []topology.NodeID{0}, want: 1},
		{name: "a lighter node beats a co-located one", cfg: grid(4, 3, 2), stripe: 3,
			rackCount: map[topology.RackID]int{0: 1}, used: []topology.NodeID{0},
			load: map[topology.NodeID]int{1: 1, 2: 1}, want: 3},
		{name: "a lighter rack beats a heavier one at equal node load", cfg: grid(4, 3, 2), stripe: 3,
			load: map[topology.NodeID]int{4: 1}, want: 6},
		{name: "a rack at the cap is passed over though it is nearest", cfg: grid(4, 3, 2), stripe: 3,
			rackCount: map[topology.RackID]int{1: 2, 2: 1}, want: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.cfg)
			for _, n := range tc.dead {
				c.NameNode().MarkDead(n)
			}
			used := make(map[topology.NodeID]bool)
			for _, n := range tc.used {
				used[n] = true
			}
			for run := 0; run < 100; run++ {
				got, err := c.pickTarget(tc.stripe, used, tc.rackCount, tc.load)
				if tc.want == none {
					if !errors.Is(err, ErrNoReplica) {
						t.Fatalf("pickTarget = (%d, %v), want ErrNoReplica", got, err)
					}
				} else if err != nil || got != tc.want {
					t.Fatalf("pickTarget = (%d, %v) on run %d, want node %d", got, err, run, tc.want)
				}
			}
		})
	}

	// Over seeded random occupancies, loads and deaths: the pick is eligible,
	// nothing eligible sorts before it, and nil load picks as zero load does.
	cfg := grid(5, 4, 2)
	c := newCluster(t, cfg)
	nodes := c.Topology().Nodes()
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 500; trial++ {
		for n := 0; n < nodes; n++ {
			if rng.Intn(4) == 0 {
				c.NameNode().MarkDead(topology.NodeID(n))
			} else {
				c.NameNode().MarkAlive(topology.NodeID(n))
			}
		}
		used := make(map[topology.NodeID]bool)
		rackCount := make(map[topology.RackID]int)
		load := make(map[topology.NodeID]int)
		rackLoad := make(map[topology.RackID]int)
		for n := 0; n < nodes; n++ {
			rack := topology.RackID(n / cfg.NodesPerRack)
			if rng.Intn(3) == 0 {
				used[topology.NodeID(n)] = true
				rackCount[rack]++
			}
			if trial%2 == 0 && rng.Intn(2) == 0 {
				l := rng.Intn(3)
				load[topology.NodeID(n)] += l
				rackLoad[rack] += l
			}
		}
		stripe := topology.StripeID(rng.Intn(1000))
		key := func(n int) []int {
			rack := topology.RackID(n / cfg.NodesPerRack)
			apart := 0
			if rackCount[rack] == 0 {
				apart = 1
			}
			return []int{load[topology.NodeID(n)], rackLoad[rack], apart, (n - int(stripe)%nodes + nodes) % nodes}
		}
		eligible := func(n int) bool {
			return !c.NameNode().IsDead(topology.NodeID(n)) && !used[topology.NodeID(n)] &&
				rackCount[topology.RackID(n/cfg.NodesPerRack)] < cfg.C
		}
		want := -1
		for n := 0; n < nodes; n++ {
			if eligible(n) && (want < 0 || slices.Compare(key(n), key(want)) < 0) {
				want = n
			}
		}
		got, err := c.pickTarget(stripe, used, rackCount, load)
		if want < 0 {
			if !errors.Is(err, ErrNoReplica) {
				t.Fatalf("trial %d: pickTarget = (%d, %v) with nothing eligible, want ErrNoReplica", trial, got, err)
			}
			continue
		}
		if err != nil || !eligible(int(got)) || int(got) != want {
			t.Fatalf("trial %d: pickTarget = (%d, %v), want node %d (eligible %v, key %v against %v)",
				trial, got, err, want, err == nil && eligible(int(got)), key(int(got)), key(want))
		}
		if len(load) == 0 {
			if again, err := c.pickTarget(stripe, used, rackCount, nil); err != nil || again != got {
				t.Fatalf("trial %d: nil load picks (%d, %v), an empty load node %d", trial, again, err, got)
			}
		}
	}
}
