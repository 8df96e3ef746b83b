package hdfs

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ear/internal/events"
	"ear/internal/mapred"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// TestRaidNodeStatsAccumulate: each job reports only its own stripes, and the
// registry's raidnode counters are where the totals across jobs accumulate.
func TestRaidNodeStatsAccumulate(t *testing.T) {
	c := newTestCluster(t, "rr")
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(40))
	var jobs []EncodeStats
	for _, blocks := range []int{8, 4} { // 2 stripes, then 1 more
		writeBlocks(t, c, blocks, rng)
		stats, err := c.RaidNode().EncodeAll()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Stripes != blocks/4 || len(stats.TaskPlacements) == 0 {
			t.Errorf("job of %d blocks: %d stripes, %d task placements", blocks, stats.Stripes, len(stats.TaskPlacements))
		}
		jobs = append(jobs, stats)
	}
	get := func(name string) float64 { return reg.Counter(name, "").With().Value() }
	if got := get("raidnode_stripes_encoded_total"); got != 3 {
		t.Errorf("stripes counter = %g, want 3", got)
	}
	if got, want := get("raidnode_encoded_bytes_total"), float64(3*4*c.Config().BlockSizeBytes); got != want {
		t.Errorf("bytes counter = %g, want %g", got, want)
	}
	if got, want := get("raidnode_cross_rack_downloads_total"), float64(jobs[0].CrossRackDownloads+jobs[1].CrossRackDownloads); got != want {
		t.Errorf("cross-rack downloads counter = %g, want %g", got, want)
	}
}

// TestEncodeJobWaitsForSlot encodes, on single-node racks, more map tasks in
// one core rack than its node has map slots. Every block is written from node
// 0, so every stripe's core rack is rack 0, and Config.MapTasks splits them
// into one task a stripe, all pinned to node 0. The job must complete with
// every stripe's parity; the JobTracker must place every task once, on node 0
// (a TaskScheduled event and a TaskPlacements entry each); and node 0 must
// never hold more than slotsPerNode of them: mapred_slots_busy stays within
// slotsPerNode at every event of the job, exactly slotsPerNode tasks are
// scheduled before the first stripe commits and frees a slot, and every slot
// is free once the job returns.
func TestEncodeJobWaitsForSlot(t *testing.T) {
	cfg := testConfig("ear")
	cfg.Racks, cfg.NodesPerRack, cfg.Replicas = 8, 1, 2
	cfg.MapTasks = 64
	c := newCluster(t, cfg)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	jrn := events.NewJournal(1 << 12)
	c.SetJournal(jrn)
	rng := rand.New(rand.NewSource(83))
	contents := make(map[topology.BlockID][]byte)
	for i := 0; i < (slotsPerNode+2)*cfg.K; i++ {
		data := make([]byte, cfg.BlockSizeBytes)
		rng.Read(data)
		id, err := c.WriteBlock(0, data)
		if err != nil {
			t.Fatal(err)
		}
		contents[id] = data
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	busy := reg.Gauge("mapred_slots_busy", "").With()
	var maxBusy float64
	scheduled, early, committed := 0, 0, false
	unsub := jrn.Subscribe(func(e events.Event) {
		maxBusy = max(maxBusy, busy.Value())
		switch e.Type {
		case events.TaskScheduled:
			scheduled++
			if !committed {
				early++
			}
		case events.StripeEncoded:
			committed = true
		}
	})
	stats, err := c.RaidNode().EncodeAll()
	unsub()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes <= slotsPerNode {
		t.Fatalf("encoded %d stripes, want more than the %d slots of a node", stats.Stripes, slotsPerNode)
	}
	if len(stats.TaskPlacements) != stats.Stripes || scheduled != stats.Stripes {
		t.Errorf("%d stripes, one a task: %d placements recorded, %d TaskScheduled events", stats.Stripes, len(stats.TaskPlacements), scheduled)
	}
	for _, pl := range stats.TaskPlacements {
		if pl.Node != 0 || !pl.Local {
			t.Errorf("task %s placed %+v, want node-local on node 0", pl.Task, pl)
		}
	}
	if maxBusy > slotsPerNode || early != slotsPerNode {
		t.Errorf("up to %g slots busy and %d tasks scheduled before the first commit, want %d of each", maxBusy, early, slotsPerNode)
	}
	if got := busy.Value(); got != 0 {
		t.Errorf("%g slots still busy after the job", got)
	}
	if n := verifyParities(t, c, contents); n != stats.Stripes*c.Coder().M() {
		t.Errorf("verified %d parity blocks of %d stripes", n, stats.Stripes)
	}
}

func TestChooseReplicaPreference(t *testing.T) {
	c := newTestCluster(t, "rr") // 6 racks x 3 nodes
	// Reader itself holds a replica: always chosen.
	got, err := c.chooseReplica(0, []topology.NodeID{9, 4, 2}, 4)
	if err != nil || got != 4 {
		t.Errorf("local preference = (%d, %v), want node 4", got, err)
	}
	// Same-rack replica preferred over remote: reader 0 is in rack 0
	// (nodes 0-2); candidate 1 shares it.
	got, err = c.chooseReplica(0, []topology.NodeID{9, 1}, 0)
	if err != nil || got != 1 {
		t.Errorf("rack preference = (%d, %v), want node 1", got, err)
	}
	// No candidates: error.
	if _, err := c.chooseReplica(0, nil, 0); err == nil {
		t.Error("empty candidates: expected error")
	}
}

func TestBuildTasksChunking(t *testing.T) {
	c := newTestCluster(t, "rr")
	var stripes []*placement.StripeInfo
	for i := 0; i < 10; i++ {
		stripes = append(stripes, &placement.StripeInfo{ID: topology.StripeID(i), CoreRack: -1})
	}
	tasks, err := c.RaidNode().buildTasks(stripes)
	if err != nil {
		t.Fatal(err)
	}
	// MapTasks = 4: ceil(10/4) = 3 stripes per task -> 4 tasks.
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks, want 4", len(tasks))
	}
	total := 0
	for _, task := range tasks {
		total += len(task.stripes)
		if task.StrictRack || task.Preferred != mapred.AnyNode {
			t.Error("RR tasks must not be rack-pinned")
		}
	}
	if total != 10 {
		t.Errorf("tasks cover %d stripes, want 10", total)
	}
	// Empty input: no tasks.
	none, err := c.RaidNode().buildTasks(nil)
	if err != nil || none != nil {
		t.Errorf("empty stripes = (%v, %v)", none, err)
	}
}

func TestBuildTasksEARGroupsByCoreRack(t *testing.T) {
	c := newTestCluster(t, "ear")
	stripes := []*placement.StripeInfo{
		{ID: 1, CoreRack: 2},
		{ID: 2, CoreRack: 5},
		{ID: 3, CoreRack: 2},
	}
	tasks, err := c.RaidNode().buildTasks(stripes)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if !task.StrictRack {
			t.Error("EAR tasks must be rack-pinned")
		}
		rack, err := c.Topology().RackOf(task.Preferred)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range task.stripes {
			if s.CoreRack != rack {
				t.Errorf("task preferring rack %d contains stripe with core rack %d", rack, s.CoreRack)
			}
		}
	}
}

// TestParityHomesTakeTurns: four stripes of a core rack whose four nodes all
// hold members take the parity in pairs around the rack from the first node
// given, so every node holds parity twice and sends 6 partial sums; a node
// that holds no member of a stripe is home only when too few holders are left.
func TestParityHomesTakeTurns(t *testing.T) {
	rack := []topology.NodeID{4, 5, 6, 7}
	stripe := func(holders ...topology.NodeID) *placement.StripeInfo {
		s := &placement.StripeInfo{}
		for i, n := range holders {
			s.Placements = append(s.Placements, topology.Placement{Block: topology.BlockID(i), Nodes: []topology.NodeID{n, 12}})
		}
		return s
	}
	all := stripe(4, 5, 6, 7, 4, 5)
	homes := parityHomes(rack, 1, []*placement.StripeInfo{all, all, all, all}, 2)
	want := [][]topology.NodeID{{5, 6}, {7, 4}, {5, 6}, {7, 4}}
	if !reflect.DeepEqual(homes, want) {
		t.Errorf("homes %v, want %v", homes, want)
	}
	// A node that holds nothing of a stripe is passed over for the next
	// holder in turn: node 5 on the first stripe, node 7 on the second. The
	// third stripe's one holder, node 5, comes first and takes the node whose
	// turn it is beside it.
	homes = parityHomes(rack, 0, []*placement.StripeInfo{stripe(4, 6, 7), stripe(4, 5, 6), stripe(5)}, 2)
	want = [][]topology.NodeID{{4, 6}, {6, 4}, {5, 4}}
	if !reflect.DeepEqual(homes, want) {
		t.Errorf("homes %v, want %v", homes, want)
	}
}

func TestPlacementMonitorDetectsManualViolation(t *testing.T) {
	// Encode cleanly, then move a block into an over-full rack by hand and
	// confirm the monitor flags the stripe and the mover repairs it.
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(41))
	writeBlocks(t, c, 40, rng)
	encodeAll(t, c)
	// Pick a stripe with at least two data blocks.
	var sm *StripeMeta
	var sid topology.StripeID = -1
	for _, id := range c.NameNode().EncodedStripes() {
		cand, err := c.NameNode().Stripe(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(cand.Info.Blocks) >= 2 {
			sm, sid = cand, id
			break
		}
	}
	if sm == nil {
		t.Fatal("no multi-block stripe sealed")
	}
	// Teleport block 0's surviving replica into block 1's rack.
	b0, b1 := sm.Info.Blocks[0], sm.Info.Blocks[1]
	m0, _ := c.NameNode().Block(b0)
	m1, _ := c.NameNode().Block(b1)
	rack1, _ := c.Topology().RackOf(m1.Nodes[0])
	nodes, _ := c.Topology().NodesInRack(rack1)
	var target topology.NodeID = -1
	for _, n := range nodes {
		if n != m1.Nodes[0] {
			target = n
			break
		}
	}
	srcDN, _ := c.DataNodeOf(m0.Nodes[0])
	payload, err := srcDN.Store.Get(DataKey(b0))
	if err != nil {
		t.Fatal(err)
	}
	dstDN, _ := c.DataNodeOf(target)
	if err := dstDN.Store.Put(DataKey(b0), payload); err != nil {
		t.Fatal(err)
	}
	if err := srcDN.Store.Delete(DataKey(b0)); err != nil {
		t.Fatal(err)
	}
	if err := c.NameNode().UpdateBlockLocation(b0, []topology.NodeID{target}); err != nil {
		t.Fatal(err)
	}

	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != sid {
		t.Fatalf("monitor = %v, want [%d]", bad, sid)
	}
	moved, _, err := c.RaidNode().BlockMover()
	if err != nil {
		t.Fatalf("BlockMover: %v", err)
	}
	if moved == 0 {
		t.Fatal("mover did nothing")
	}
	bad, err = c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("still violating after mover: %v", bad)
	}
}

// TestEncodeTelemetryAndTrace checks the encode counters and the span tree
// of one job: the chain emits raidnode.chain-hop spans under each map task.
// (The paper's gather and its download / encode / parity-write spans are
// checked where the gather lives, internal/experiments/hdfsraid.)
func TestEncodeTelemetryAndTrace(t *testing.T) {
	t.Run("chain", testEncodeTelemetryAndTrace)
}

func testEncodeTelemetryAndTrace(t *testing.T) {
	const phase = "raidnode.chain-hop"
	cfg := testConfig("ear")
	c := newCluster(t, cfg)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	tr := telemetry.NewTracer()
	c.SetTracer(tr)

	rng := rand.New(rand.NewSource(42))
	writeBlocks(t, c, 8, rng) // 2 stripes
	c.NameNode().FlushOpenStripes()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}

	if stats.Stripes == 0 {
		t.Fatal("no stripes encoded")
	}
	get := func(name string) float64 {
		return reg.Counter(name, "").With().Value()
	}
	if got := get("raidnode_stripes_encoded_total"); got != float64(stats.Stripes) {
		t.Errorf("stripes counter = %g, want %d", got, stats.Stripes)
	}
	if got := get("raidnode_encode_jobs_total"); got != 1 {
		t.Errorf("jobs counter = %g, want 1", got)
	}
	if got := get("raidnode_encoded_bytes_total"); got != float64(stats.EncodedBytes) {
		t.Errorf("bytes counter = %g, want %d", got, stats.EncodedBytes)
	}
	// EAR with strict scheduling downloads every block inside the core rack.
	if got := get("raidnode_cross_rack_downloads_total"); got != 0 {
		t.Errorf("cross-rack downloads = %g, want 0 under EAR strict", got)
	}
	if got := get("raidnode_placement_violations_total"); got != float64(stats.Violations) {
		t.Errorf("violations = %g, want %d", got, stats.Violations)
	}
	// Client latency histogram observed the 8 writes.
	if got := reg.Histogram("hdfs_client_write_seconds", "", nil).With().Count(); got != 8 {
		t.Errorf("write latency count = %d, want 8", got)
	}

	// One span per phase, parented into the encode job.
	spans := tr.Spans()
	counts := map[string]int{}
	byID := map[int64]telemetry.SpanSnapshot{}
	for _, s := range spans {
		counts[s.Name]++
		byID[s.ID] = s
	}
	if counts["encode-job"] != 1 || counts["stripe-selection"] != 1 {
		t.Errorf("job/selection spans = %d/%d, want 1/1",
			counts["encode-job"], counts["stripe-selection"])
	}
	if counts["map-task"] == 0 {
		t.Error("no map-task spans")
	}
	if counts["replica-delete"] != stats.Stripes {
		t.Errorf("replica-delete spans = %d, want %d", counts["replica-delete"], stats.Stripes)
	}
	// A chain has one span per stage, so at least one per stripe.
	if got := counts[phase]; got < stats.Stripes {
		t.Errorf("%s spans = %d for %d stripes", phase, got, stats.Stripes)
	}
	for _, s := range spans {
		if s.Name == phase {
			parent, ok := byID[s.Parent]
			if !ok || parent.Name != "map-task" {
				t.Errorf("%s span parent = %+v", s.Name, parent)
			}
		}
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
		if !s.Ended {
			t.Errorf("span %s never ended", s.Name)
		}
	}
}

func TestEncodeCrossRackCountersUnderRR(t *testing.T) {
	c := newTestCluster(t, "rr")
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(43))
	writeBlocks(t, c, 16, rng) // 4 stripes
	c.NameNode().FlushOpenStripes()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Counter("raidnode_cross_rack_downloads_total", "").With().Value()
	if got != float64(stats.CrossRackDownloads) {
		t.Errorf("counter = %g, stats = %d", got, stats.CrossRackDownloads)
	}
	// With 6 racks, C=1 and random placement, some downloads must cross
	// racks (every replica co-resident with the encoder is essentially
	// impossible at this scale).
	if stats.CrossRackDownloads == 0 {
		t.Error("RR encode saw zero cross-rack downloads")
	}
	// The parity uploads have a count of their own. Two parity blocks a stripe
	// sit in two racks (C=1), so at least one of them left the last hop's.
	if got := reg.Counter("raidnode_cross_rack_uploads_total", "").With().Value(); got != float64(stats.CrossRackUploads) {
		t.Errorf("uploads counter = %g, stats = %d", got, stats.CrossRackUploads)
	}
	if stats.CrossRackUploads < stats.Stripes || stats.CrossRackUploads > 2*stats.Stripes {
		t.Errorf("%d cross-rack parity uploads for %d stripes of 2 parity blocks", stats.CrossRackUploads, stats.Stripes)
	}
	if v := reg.Counter("fabric_bytes_total", "", "locality").With("cross-rack").Value(); v <= 0 {
		t.Error("fabric cross-rack byte counter not bumped")
	}
}

// TestEncodePlansRepeat encodes the same writes on two clusters of one seed,
// every map task and every stripe of a task in flight at once: each stripe's
// post-encoding plan is a function of (seed, stripe), so both clusters keep
// the same replicas and place the same parity, in whatever order their
// goroutines reached the planner.
func TestEncodePlansRepeat(t *testing.T) {
	encode := func() (*Cluster, []*StripeMeta) {
		cfg := testConfig("ear")
		c := newCluster(t, cfg)
		writeBlocks(t, c, 12*cfg.K, rand.New(rand.NewSource(61)))
		encodeAll(t, c)
		var stripes []*StripeMeta
		for _, sid := range c.NameNode().EncodedStripes() {
			stripes = append(stripes, stripeOf(t, c, sid))
		}
		return c, stripes
	}
	ca, a := encode()
	cb, b := encode()
	if len(a) != len(b) || len(a) < 12 {
		t.Fatalf("%d and %d stripes encoded, want the same dozen or more", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i].Plan.Keep, b[i].Plan.Keep) || !slices.Equal(a[i].Plan.Parity, b[i].Plan.Parity) {
			t.Errorf("stripe %d planned keep %v parity %v, then keep %v parity %v",
				a[i].Info.ID, a[i].Plan.Keep, a[i].Plan.Parity, b[i].Plan.Keep, b[i].Plan.Parity)
		}
	}
	if na, nb := busiestDataNode(t, ca), busiestDataNode(t, cb); na != nb {
		t.Errorf("busiest node %d, then %d", na, nb)
	}
}
