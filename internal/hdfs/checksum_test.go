package hdfs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/placement"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// A fold takes its members unverified and its read-ahead checks each one's
// checksum slice by slice (stageLoop.read), so admission only plans and opens
// streams. These tests hold the two sides of that: an encode job admits every
// stripe it can before it books anything, and a member that fails its
// checksum ends its run alone, which its owner re-plans into the same loop.

// runStripe returns the stripe a fold's run reads members of.
func runStripe(run *stageRun) topology.StripeID {
	for _, st := range run.stages {
		if st.disk != nil {
			return st.disk.stripe
		}
	}
	return events.NoneStripe
}

// TestEncodeJobAdmitsEveryStripeFirst watches an encode job's read-ahead
// (readAheadKey) beside its journal. With every map task placed at once, all
// stripes of every task are admitted before the read-ahead books its first
// slice. On the TestEncodeJobWaitsForSlot geometry, slot-starved, the first
// slotsPerNode tasks' stripes are admitted before the first slice, and each
// waiting task's stripe is admitted as the commit that frees its slot ends,
// before the read-ahead books anything more.
func TestEncodeJobAdmitsEveryStripeFirst(t *testing.T) {
	// watch encodes every pending stripe and returns, in order, what the job
	// did: 'A' a stripe admitted (StripeEncodeStarted, published as its
	// admission begins), 'C' a stripe committed, 'R' a slice the read-ahead
	// booked; and how many stripes the job encoded.
	watch := func(t *testing.T, c *Cluster) (string, int) {
		t.Helper()
		jrn := events.NewJournal(1 << 14)
		c.SetJournal(jrn)
		var seq []byte
		defer jrn.Subscribe(func(e events.Event) {
			switch e.Type {
			case events.StripeEncodeStarted:
				seq = append(seq, 'A')
			case events.StripeEncoded:
				seq = append(seq, 'C')
			}
		})()
		ctx := context.WithValue(context.Background(), readAheadKey{}, func(topology.NodeID, *stageRun, int) { seq = append(seq, 'R') })
		stats, err := c.RaidNode().EncodeAllCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PipelinedStripes != stats.Stripes {
			t.Fatalf("pipelined %d of %d stripes", stats.PipelinedStripes, stats.Stripes)
		}
		return string(seq), stats.Stripes
	}
	count := func(s string, b byte) (n int) {
		for i := range len(s) {
			if s[i] == b {
				n++
			}
		}
		return n
	}
	firstRead := func(t *testing.T, seq string) int {
		t.Helper()
		for i := range len(seq) {
			if seq[i] == 'R' {
				return i
			}
		}
		t.Fatal("the read-ahead booked no slice")
		return 0
	}

	t.Run("placed", func(t *testing.T) {
		c := newTestCluster(t, "ear")
		writeBlocks(t, c, 6*c.Config().K, rand.New(rand.NewSource(89)))
		if _, err := c.NameNode().FlushOpenStripes(); err != nil {
			t.Fatal(err)
		}
		seq, stripes := watch(t, c)
		if stripes < 3 {
			t.Fatalf("encoded %d stripes, want a job of several", stripes)
		}
		if before := count(seq[:firstRead(t, seq)], 'A'); before != stripes {
			t.Errorf("%d of %d stripes admitted before the read-ahead's first slice (job %s)", before, stripes, seq)
		}
		if got := count(seq, 'C'); got != stripes {
			t.Errorf("%d commits for %d stripes", got, stripes)
		}
	})

	t.Run("slot-starved", func(t *testing.T) {
		cfg := testConfig("ear")
		cfg.Racks, cfg.NodesPerRack, cfg.Replicas = 8, 1, 2
		cfg.MapTasks = 64
		c := newCluster(t, cfg)
		rng := rand.New(rand.NewSource(83))
		for range (slotsPerNode + 2) * cfg.K {
			data := make([]byte, cfg.BlockSizeBytes)
			rng.Read(data)
			if _, err := c.WriteBlock(0, data); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.NameNode().FlushOpenStripes(); err != nil {
			t.Fatal(err)
		}
		seq, stripes := watch(t, c)
		if stripes <= slotsPerNode {
			t.Fatalf("encoded %d stripes, want more than the %d slots of a node", stripes, slotsPerNode)
		}
		first := firstRead(t, seq)
		if before := count(seq[:first], 'A'); before != slotsPerNode {
			t.Errorf("%d stripes admitted before the read-ahead's first slice, want the %d a node's slots hold (job %s)", before, slotsPerNode, seq)
		}
		// Every later admission follows a commit, with no slice booked between.
		for i := first; i < len(seq); i++ {
			if seq[i] != 'A' {
				continue
			}
			j := i - 1
			for seq[j] == 'A' {
				j--
			}
			if seq[j] != 'C' {
				t.Errorf("a waiting task's stripe was admitted at %d after a booked slice, not as a commit freed its slot (job %s)", i, seq)
				break
			}
		}
		if a, cm := count(seq, 'A'), count(seq, 'C'); a != stripes || cm != stripes {
			t.Errorf("%d admissions and %d commits for %d stripes", a, cm, stripes)
		}
	})
}

// corruptWatch is what a late-detection test observes: the journal's events
// by type, the auditor and the progress tracker attached to it, the tracer,
// and the runs the read-ahead booked slices for, by stripe.
type corruptWatch struct {
	jrn     *events.Journal
	aud     *audit.Auditor
	tracker *progress.Tracker
	tr      *telemetry.Tracer
	runs    map[topology.StripeID]map[*stageRun]bool
	ctx     context.Context
}

func watchCorrupt(t *testing.T, c *Cluster) *corruptWatch {
	t.Helper()
	cfg := c.Config()
	w := &corruptWatch{
		jrn:     events.NewJournal(1 << 15),
		aud:     audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: cfg.Policy == "ear"}),
		tracker: progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy}),
		tr:      telemetry.NewTracer(),
		runs:    make(map[topology.StripeID]map[*stageRun]bool),
	}
	c.SetJournal(w.jrn)
	c.SetTracer(w.tr)
	t.Cleanup(w.aud.Attach(w.jrn))
	t.Cleanup(w.tracker.Attach(w.jrn))
	w.ctx = context.WithValue(context.Background(), readAheadKey{}, func(_ topology.NodeID, run *stageRun, _ int) {
		id := runStripe(run)
		if w.runs[id] == nil {
			w.runs[id] = make(map[*stageRun]bool)
		}
		w.runs[id][run] = true
	})
	return w
}

// events returns the journaled events of one type.
func (w *corruptWatch) events(typ events.Type) []events.Event {
	evs, _, _ := w.jrn.Since(0, 0, events.Filter{Type: typ})
	return evs
}

// settledAfter checks what a loop must leave once a run in it failed: no
// pooled buffer out, no span open, a clean auditor and nothing at risk.
func (w *corruptWatch) settledAfter(t *testing.T, c *Cluster) {
	t.Helper()
	if n := c.BufferPool().Outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding", n)
	}
	for _, sp := range w.tr.Spans() {
		if !sp.Ended {
			t.Errorf("span %s %v still open", sp.Name, sp.Args)
		}
	}
	if rep := w.aud.Report(); rep.Total() != 0 {
		t.Errorf("auditor dirty: %+v", rep)
	}
	if rep := w.tracker.Report(); rep.BlocksAtRisk != 0 {
		t.Errorf("%d blocks at risk", rep.BlocksAtRisk)
	}
}

// oneCorruptEvent checks the journal holds exactly one ReplicaCorrupt event,
// for block b of stripe on node.
func (w *corruptWatch) oneCorruptEvent(t *testing.T, b topology.BlockID, stripe topology.StripeID, node topology.NodeID) {
	t.Helper()
	evs := w.events(events.ReplicaCorrupt)
	if len(evs) != 1 {
		t.Fatalf("%d ReplicaCorrupt events for one detection: %+v", len(evs), evs)
	}
	if e := evs[0]; e.Block != b || e.Stripe != stripe || e.Node != node || e.Trace == 0 {
		t.Errorf("ReplicaCorrupt %+v, want block %d of stripe %d on node %d, traced", e, b, stripe, node)
	}
}

// TestEncodeJobReplansCorruptMemberInLoop corrupts the core-rack replica of
// one member of one stripe in a job of several. The fold reads it, the
// read-ahead's checksum fails at its last slice, and that run alone ends:
// its owner re-plans the stripe over the member's other replicas into the
// same loop, no stripe is requeued, every stripe commits once, all parity is
// the coder's, and the job leaves no pooled buffer out and no span open.
func TestEncodeJobReplansCorruptMemberInLoop(t *testing.T) {
	c := newTestCluster(t, "ear")
	ids, contents := writeBlocks(t, c, 4*c.Config().K, rand.New(rand.NewSource(97)))
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	sm, err := c.NameNode().Stripe(meta.Stripe)
	if err != nil {
		t.Fatal(err)
	}
	bad := topology.NodeID(-1)
	for _, n := range meta.Nodes {
		if r, _ := c.Topology().RackOf(n); r == sm.Info.CoreRack {
			bad = n
		}
	}
	if bad < 0 {
		t.Fatalf("block %d has no replica in its stripe's core rack %d", ids[0], sm.Info.CoreRack)
	}
	dn, _ := c.DataNodeOf(bad)
	if err := dn.Store.Corrupt(DataKey(ids[0])); err != nil {
		t.Fatal(err)
	}
	w := watchCorrupt(t, c)
	stats, err := c.RaidNode().EncodeAllCtx(w.ctx)
	if err != nil {
		t.Fatalf("EncodeAll with a corrupt core-rack replica: %v", err)
	}
	if stats.Stripes < 3 || stats.PipelinedStripes != stats.Stripes {
		t.Fatalf("pipelined %d of %d stripes, want a job of at least 3", stats.PipelinedStripes, stats.Stripes)
	}
	w.oneCorruptEvent(t, ids[0], sm.Info.ID, bad)
	started := make(map[topology.StripeID]int)
	for _, e := range w.events(events.StripeEncodeStarted) {
		started[e.Stripe]++
	}
	encoded := make(map[topology.StripeID]int)
	for _, e := range w.events(events.StripeEncoded) {
		encoded[e.Stripe]++
	}
	for _, id := range c.NameNode().EncodedStripes() {
		if started[id] != 1 || encoded[id] != 1 {
			t.Errorf("stripe %d started %d and committed %d times, want once each", id, started[id], encoded[id])
		}
		if runs := len(w.runs[id]); id == sm.Info.ID && runs < 2 || id != sm.Info.ID && runs != 1 {
			t.Errorf("stripe %d folded in %d runs (the corrupt member's stripe is %d)", id, runs, sm.Info.ID)
		}
	}
	if n := verifyParities(t, c, contents); n != stats.Stripes*c.Coder().M() {
		t.Errorf("verified %d parity blocks of %d stripes", n, stats.Stripes)
	}
	w.settledAfter(t, c)
	verifyBlockContents(t, c, contents)
}

// runRows returns how many rows a fold's run folds: one sink stage a row.
func runRows(run *stageRun) (rows int) {
	for _, st := range run.stages {
		if len(st.next) == 0 {
			rows++
		}
	}
	return rows
}

// TestEncodeRewritesCorruptKeptCopyInLoop corrupts, once and as the stripe's
// plan is made, a core-rack copy that the post-encoding plan keeps: with c = 3
// the plan keeps core-rack copies, and the fold, anchored in the core rack,
// reads them. The read-ahead finds the copy failing its checksum, the fold is
// re-planned around it, and a copy of the member to the kept node joins the
// same loop beside the re-planned fold: its first slice is booked before the
// fold's last. The stripe commits once both have ended, so the kept copy is
// stored, verifies and equals the payload, every parity block is the coder's,
// and the auditor is clean.
func TestEncodeRewritesCorruptKeptCopyInLoop(t *testing.T) {
	cfg := testConfig("ear")
	cfg.C = 3
	c := newCluster(t, cfg)
	_, contents := writeBlocks(t, c, 2*cfg.K, rand.New(rand.NewSource(67)))
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	stripe, victim, kept := events.NoneStripe, topology.BlockID(-1), holder{node: -1}
	c.NameNode().SetPlanOverrideForTest(func(info *placement.StripeInfo, plan *placement.PostEncodingPlan) {
		if victim >= 0 {
			return
		}
		for i, b := range info.Blocks {
			if r, _ := c.Topology().RackOf(plan.Keep[i]); r != info.CoreRack {
				continue
			}
			dn, _ := c.DataNodeOf(plan.Keep[i])
			if err := dn.Store.Corrupt(DataKey(b)); err != nil {
				t.Error(err)
			}
			stripe, victim, kept = info.ID, b, holder{plan.Keep[i], i}
			return
		}
	})
	w := watchCorrupt(t, c)
	var booked []*stageRun
	ctx := context.WithValue(context.Background(), readAheadKey{}, func(_ topology.NodeID, run *stageRun, _ int) {
		booked = append(booked, run)
	})
	stats, err := c.RaidNode().EncodeAllCtx(ctx)
	if err != nil {
		t.Fatalf("EncodeAll with a corrupt kept copy: %v", err)
	}
	if victim < 0 {
		t.Fatal("no plan kept a core-rack copy")
	}
	w.oneCorruptEvent(t, victim, stripe, kept.node)
	if got := soleHolder(t, c, victim); got != kept.node {
		t.Fatalf("block %d kept on node %d, the plan keeps node %d", victim, got, kept.node)
	}
	dn, _ := c.DataNodeOf(kept.node)
	got, err := dn.Store.Get(DataKey(victim))
	if err != nil {
		t.Fatalf("kept copy of block %d on node %d: %v", victim, kept.node, err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatalf("kept copy of block %d on node %d differs from the payload", victim, kept.node)
	}
	if n := verifyParities(t, c, contents); n != stats.Stripes*c.Coder().M() {
		t.Errorf("verified %d parity blocks of %d stripes", n, stats.Stripes)
	}
	w.settledAfter(t, c)
	// The rewrite is the stripe's one-row run; its re-planned fold is the
	// last of its m-row runs.
	firstRewrite, lastFold := -1, -1
	for i, run := range booked {
		if runStripe(run) != stripe {
			continue
		}
		if runRows(run) == 1 && firstRewrite < 0 {
			firstRewrite = i
		}
		if runRows(run) == c.Coder().M() {
			lastFold = i
		}
	}
	if firstRewrite < 0 {
		t.Fatal("the read-ahead booked no slice of a rewrite")
	}
	if firstRewrite > lastFold {
		t.Errorf("the rewrite's first slice is booking %d of %d, after the re-planned fold's last (%d): it did not share the fold's loop",
			firstRewrite, len(booked), lastFold)
	}
	t.Logf("stripe %d: the rewrite of block %d to node %d booked its first slice at %d of %d, the re-planned fold its last at %d",
		stripe, victim, kept.node, firstRewrite, len(booked), lastFold)
}

// TestRecoverSweepReplansCorruptSurvivorInLoop corrupts a survivor the first
// repair of a node-recovery sweep folds. That repair's run ends at the
// survivor's last slice and is re-planned without it into the sweep's loop;
// every planned member is repaired once, the parity is the coder's, and the
// sweep leaves no pooled buffer out and no span open.
func TestRecoverSweepReplansCorruptSurvivorInLoop(t *testing.T) {
	cfg := recoverGeometry()
	c := newCluster(t, cfg)
	_, contents := writeBlocks(t, c, 6*cfg.K, rand.New(rand.NewSource(41)))
	encodeAll(t, c)
	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	plan, _, err := c.planNodeRecovery(dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("the sweep plans %d repairs, want at least 2", len(plan))
	}
	// The lowest surviving data position of the first repair's stripe is in
	// its first plan, whether that repair decodes or copies.
	sm := plan[0].sm
	victim, holder := topology.BlockID(-1), topology.NodeID(-1)
	for i, b := range sm.Info.Blocks {
		if i == plan[0].pos {
			continue
		}
		live, _, err := c.posHolders(sm, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) == 1 {
			victim, holder = b, live[0]
			break
		}
	}
	if victim < 0 {
		t.Fatalf("stripe %d has no surviving data member to corrupt", sm.Info.ID)
	}
	dn, _ := c.DataNodeOf(holder)
	if err := dn.Store.Corrupt(DataKey(victim)); err != nil {
		t.Fatal(err)
	}
	w := watchCorrupt(t, c)
	stats, err := c.RecoverNode(w.ctx, dead)
	if err != nil {
		t.Fatalf("RecoverNode with a corrupt survivor: %v", err)
	}
	if got := stats.BlocksRepaired + stats.ParityRepaired; got != len(plan) || stats.Unrecovered != 0 {
		t.Fatalf("repaired %d of %d planned members (%d unrecovered)", got, len(plan), stats.Unrecovered)
	}
	w.oneCorruptEvent(t, victim, sm.Info.ID, holder)
	type member struct {
		stripe topology.StripeID
		block  topology.BlockID
		detail string
	}
	finished := make(map[member]int)
	for _, e := range w.events(events.RepairFinished) {
		finished[member{e.Stripe, e.Block, e.Detail}]++
	}
	if len(finished) != len(plan) {
		t.Errorf("%d members finished repair, %d planned", len(finished), len(plan))
	}
	for m, n := range finished {
		if n != 1 {
			t.Errorf("member %+v finished repair %d times", m, n)
		}
	}
	for id, runs := range w.runs {
		if id == sm.Info.ID && len(runs) < 2 || id != sm.Info.ID && len(runs) != 1 {
			t.Errorf("stripe %d repaired in %d runs (the corrupt survivor's stripe is %d)", id, len(runs), sm.Info.ID)
		}
	}
	if left := recordedOn(t, c, dead); len(left) != 0 {
		t.Fatalf("members %v still located on dead node %d", left, dead)
	}
	if n := verifyParities(t, c, contents); n == 0 {
		t.Fatal("no parity verified after recovery")
	}
	w.settledAfter(t, c)
}

// TestReplicaCorruptJournaledPerSkippedCopy reads a block whose preferred
// replica is corrupt: the read skips it for the next, and journals exactly
// one ReplicaCorrupt event for it, under the read's trace; a second read is
// a second detection. The auditor and the progress tracker take the events
// in their stride.
func TestReplicaCorruptJournaledPerSkippedCopy(t *testing.T) {
	c := newTestCluster(t, "ear")
	ids, contents := writeBlocks(t, c, 1, rand.New(rand.NewSource(101)))
	w := watchCorrupt(t, c)
	meta, err := c.NameNode().Block(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	reader := meta.Nodes[0] // a reader prefers its own copy
	dn, _ := c.DataNodeOf(reader)
	if err := dn.Store.Corrupt(DataKey(ids[0])); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadBlock(reader, ids[0])
	if err != nil || string(got) != string(contents[ids[0]]) {
		t.Fatalf("read past a corrupt copy: %v", err)
	}
	w.oneCorruptEvent(t, ids[0], meta.Stripe, reader)
	if _, err := c.ReadBlock(reader, ids[0]); err != nil {
		t.Fatal(err)
	}
	if n := len(w.events(events.ReplicaCorrupt)); n != 2 {
		t.Errorf("%d ReplicaCorrupt events after two reads past the copy, want 2", n)
	}
	if _, err := dn.Store.Unverified(DataKey(ids[0])); err != nil {
		t.Errorf("the corrupt copy left its store: %v", err)
	}
	w.settledAfter(t, c)
	if rep := w.tracker.Report(); rep.Events == 0 {
		t.Error("the progress tracker saw no event")
	}
}
