package hdfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/topology"
)

// Tests of the one member move (foldMember, then commitMember) through its
// three callers: RepairBlockCtx, RecoverNode and the BlockMover.

// planOverride rewrites a post-encoding plan before it is committed.
type planOverride func(*placement.StripeInfo, *placement.PostEncodingPlan)

// crowdData keeps data members on their core-rack replica (under EAR the
// first of a placement; the others are elsewhere) until the core rack holds
// exactly two members of the stripe, the parity row the plan keeps at home
// included: with c = 1 the core rack is over-full by one data member.
func crowdData(top *topology.Topology) planOverride {
	return func(info *placement.StripeInfo, plan *placement.PostEncodingPlan) {
		inCore := 0
		for _, n := range plan.Layout(info.ID).AllNodes() {
			if r, _ := top.RackOf(n); r == info.CoreRack {
				inCore++
			}
		}
		for i := 0; i < len(plan.Keep) && inCore < 2; i++ {
			if plan.Keep[i] != info.Placements[i].Nodes[0] {
				plan.Keep[i] = info.Placements[i].Nodes[0]
				inCore++
			}
		}
	}
}

// firstInCoreRack returns the lowest data position of the stripe whose block
// sits in the core rack, with the block and its holder: the member a
// BlockMover pass over a crowdData stripe moves.
func firstInCoreRack(t *testing.T, c *Cluster, sm *StripeMeta) (int, topology.BlockID, topology.NodeID) {
	t.Helper()
	for pos, b := range sm.Info.Blocks {
		n := soleHolder(t, c, b)
		if r, _ := c.Topology().RackOf(n); r == sm.Info.CoreRack {
			return pos, b, n
		}
	}
	t.Fatal("no data member in the core rack")
	return 0, 0, 0
}

// crowdParity puts the second parity row beside the first, on another node of
// the same rack: with c = 1 that rack is over-full and holds only parity.
func crowdParity(top *topology.Topology) planOverride {
	return func(_ *placement.StripeInfo, plan *placement.PostEncodingPlan) {
		plan.Parity[1] = rackMate(top, plan.Parity[0])
	}
}

// rackMate returns the lowest node sharing n's rack.
func rackMate(top *topology.Topology, n topology.NodeID) topology.NodeID {
	rack, _ := top.RackOf(n)
	nodes, _ := top.NodesInRack(rack)
	for _, m := range nodes {
		if m != n {
			return m
		}
	}
	return n
}

// stageStripe writes one full stripe from three writers of rack 0 (so EAR
// groups the blocks into a single stripe whose core rack is rack 0, the first
// replicas on distinct nodes where the flow graph allows) and encodes it with
// its plan rewritten by override (nil: as planned).
func stageStripe(t *testing.T, c *Cluster, seed int64, override planOverride) (*StripeMeta, map[topology.BlockID][]byte) {
	t.Helper()
	c.NameNode().SetPlanOverrideForTest(override)
	rng := rand.New(rand.NewSource(seed))
	contents := make(map[topology.BlockID][]byte)
	for i := 0; i < c.Config().K; i++ {
		data := make([]byte, c.Config().BlockSizeBytes)
		rng.Read(data)
		id, err := c.WriteBlock(topology.NodeID(i%3), data)
		if err != nil {
			t.Fatal(err)
		}
		contents[id] = data
	}
	encodeAll(t, c)
	ids := c.NameNode().EncodedStripes()
	if len(ids) != 1 {
		t.Fatalf("staged %d stripes, want 1", len(ids))
	}
	return stripeOf(t, c, ids[0]), contents
}

func stripeOf(t *testing.T, c *Cluster, id topology.StripeID) *StripeMeta {
	t.Helper()
	sm, err := c.NameNode().Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// soleHolder returns the one node the NameNode records for a data block.
func soleHolder(t *testing.T, c *Cluster, b topology.BlockID) topology.NodeID {
	t.Helper()
	meta, err := c.NameNode().Block(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Nodes) != 1 {
		t.Fatalf("block %d recorded on %v, want one holder", b, meta.Nodes)
	}
	return meta.Nodes[0]
}

func holds(t *testing.T, c *Cluster, n topology.NodeID, key blockstore.Key) bool {
	t.Helper()
	dn, err := c.DataNodeOf(n)
	if err != nil {
		t.Fatal(err)
	}
	return dn.Store.Has(key)
}

func monitorClean(t *testing.T, c *Cluster) {
	t.Helper()
	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("PlacementMonitor still flags %v", bad)
	}
}

// TestRelocationCommitsBeforeSourceDelete fails the NameNode's location update
// under a relocation (its metadata log is closed) and requires the block to
// stay where the NameNode says it is: the source copy is deleted only after
// the metadata names the new holder. Before the member moves were unified the
// source went first, and the failed update left the recorded holder empty.
func TestRelocationCommitsBeforeSourceDelete(t *testing.T) {
	cfg := testConfig("ear")
	cfg.MetaDir = t.TempDir()
	c := newCluster(t, cfg)
	sm, contents := stageStripe(t, c, 71, crowdData(c.Topology()))
	_, victim, from := firstInCoreRack(t, c, sm)
	if err := c.NameNode().CloseMeta(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RaidNode().BlockMover(); !errors.Is(err, metalog.ErrClosed) {
		t.Fatalf("BlockMover over a closed metadata log = %v, want metalog.ErrClosed", err)
	}
	if got := soleHolder(t, c, victim); got != from {
		t.Fatalf("block %d recorded on node %d after a failed update, want %d", victim, got, from)
	}
	if !holds(t, c, from, DataKey(victim)) {
		t.Fatalf("node %d lost its copy of block %d though the NameNode still names it", from, victim)
	}
	got, err := c.ReadBlock(from, victim)
	if err != nil || !bytes.Equal(got, contents[victim]) {
		t.Fatalf("block %d unreadable from its recorded holder (err %v)", victim, err)
	}
}

// TestRelocationRebuildsCorruptSource corrupts the copy a relocation would
// move: the move must rebuild the member from the rest of the stripe instead
// of failing the BlockMover pass, and the bad copy must be gone.
func TestRelocationRebuildsCorruptSource(t *testing.T) {
	c := newTestCluster(t, "ear")
	sm, contents := stageStripe(t, c, 73, crowdData(c.Topology()))
	_, victim, from := firstInCoreRack(t, c, sm)
	dn, _ := c.DataNodeOf(from)
	if err := dn.Store.Corrupt(DataKey(victim)); err != nil {
		t.Fatal(err)
	}
	moved, movedBytes, err := c.RaidNode().BlockMover()
	if err != nil {
		t.Fatalf("BlockMover with a corrupt source copy: %v", err)
	}
	if moved != 1 || movedBytes != int64(c.Config().BlockSizeBytes) {
		t.Fatalf("moved %d members, %d bytes; want one block", moved, movedBytes)
	}
	to := soleHolder(t, c, victim)
	if to == from || holds(t, c, from, DataKey(victim)) {
		t.Fatalf("corrupt copy of block %d still on node %d (recorded holder %d)", victim, from, to)
	}
	monitorClean(t, c)
	verifyBlockContents(t, c, contents)
}

// TestBlockMoverVictimOrderIsDeterministic stages a stripe with two over-full
// racks — two data members in the core rack, a parity row beside a third data
// member — on two clusters of one seed. Both must move the same members, in
// the same order, into the same racks: the over-full rack used to be whichever
// a map iteration produced first, so the order differed from run to run.
func TestBlockMoverVictimOrderIsDeterministic(t *testing.T) {
	type move struct {
		pos      int // stripe position; k for a parity row
		from     topology.NodeID
		fromRack topology.RackID
		toRack   topology.RackID
	}
	run := func() []move {
		c := newTestCluster(t, "ear")
		top := c.Topology()
		jrn := events.NewJournal(1 << 12)
		c.SetJournal(jrn)
		sm, _ := stageStripe(t, c, 79, func(info *placement.StripeInfo, plan *placement.PostEncodingPlan) {
			crowdData(top)(info, plan)
			for _, n := range plan.Keep {
				if r, _ := top.RackOf(n); r != info.CoreRack {
					// The last row: the first is the one the plan keeps at home.
					plan.Parity[len(plan.Parity)-1] = rackMate(top, n)
					return
				}
			}
			t.Error("no data member outside the core rack to crowd with parity")
		})
		moved, _, err := c.RaidNode().BlockMover()
		if err != nil {
			t.Fatal(err)
		}
		monitorClean(t, c)
		evs, _, _ := jrn.Since(0, 0, events.Filter{Type: events.ReplicaRelocated})
		if len(evs) != moved || moved != 2 {
			t.Fatalf("%d relocations journaled for %d moves, want 2 and 2", len(evs), moved)
		}
		var moves []move
		for _, e := range evs {
			m := move{pos: c.Config().K, from: e.Node}
			if e.Detail != "parity" {
				m.pos = slices.Index(sm.Info.Blocks, e.Block)
			}
			m.fromRack, _ = top.RackOf(e.Node)
			m.toRack, _ = top.RackOf(e.Peer)
			moves = append(moves, m)
		}
		return moves
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different relocations:\n%+v\n%+v", a, b)
	}
	// One member out of each over-full rack, the lower position first.
	if a[0].pos >= a[1].pos || a[0].fromRack == a[1].fromRack {
		t.Errorf("relocations %+v, want one per over-full rack in position order", a)
	}
}

// TestParityRelocationEndToEnd stages a stripe whose over-full rack holds
// nothing but parity and follows the move through every layer: the stores, the
// NameNode, the monitor, the auditor, and a degraded read that decodes through
// the moved row.
func TestParityRelocationEndToEnd(t *testing.T) {
	c := newTestCluster(t, "ear")
	_, a := attachAuditor(c)
	sm, contents := stageStripe(t, c, 83, crowdParity(c.Topology()))
	from := sm.Plan.Parity[0]
	moved, movedBytes, err := c.RaidNode().BlockMover()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 || movedBytes != int64(c.Config().BlockSizeBytes) {
		t.Fatalf("moved %d members, %d bytes; want one parity block", moved, movedBytes)
	}
	after := stripeOf(t, c, sm.Info.ID)
	to := after.Plan.Parity[0]
	if to == from || after.Plan.Parity[1] != sm.Plan.Parity[1] {
		t.Fatalf("parity holders %v -> %v, want row 0 moved off node %d and row 1 left alone", sm.Plan.Parity, after.Plan.Parity, from)
	}
	if key := ParityKey(sm.Info.ID, 0); !holds(t, c, to, key) || holds(t, c, from, key) {
		t.Fatalf("parity row 0 not moved in the stores: on new holder %v, on old holder %v", holds(t, c, to, key), holds(t, c, from, key))
	}
	monitorClean(t, c)
	r := a.Report()
	if len(r.Ongoing) != 0 {
		t.Fatalf("auditor still reports %+v", r.Ongoing)
	}
	if !slices.ContainsFunc(r.Transient, func(v audit.Violation) bool {
		return v.Invariant == audit.InvRackSpread && v.Stripe == sm.Info.ID && v.Transient()
	}) {
		t.Fatalf("resolved parity breach not recorded as a transient: %+v", r.Transient)
	}
	if n := verifyParities(t, c, contents); n != c.Config().N-c.Config().K {
		t.Fatalf("verified %d parity rows after the move", n)
	}
	// Lose data member 0: the k lowest survivors are members 1..k-1 and parity
	// row 0, so the decode reads the moved row.
	lost := sm.Info.Blocks[0]
	c.NameNode().MarkDead(soleHolder(t, c, lost))
	got, err := c.DegradedRead(to, lost)
	if err != nil || !bytes.Equal(got, contents[lost]) {
		t.Fatalf("degraded read through the moved parity row differs (err %v)", err)
	}
}

// TestMemberMoveJournalShapes pins what a member move publishes, per position
// kind and per caller, to the sequences the journal's consumers (the layout
// engine under the auditor and the exposure ledger) were written against.
func TestMemberMoveJournalShapes(t *testing.T) {
	type shape struct {
		Type      events.Type
		Subsystem string
		Block     topology.BlockID
		Stripe    topology.StripeID
		NodeEnd   string // "old", "new" or "" for the None sentinel
		PeerEnd   string
		Bytes     bool // the block size, or zero
		Detail    string
	}
	const noBlock = events.NoneBlock
	cases := []struct {
		name     string
		override func(*topology.Topology) planOverride
		// move runs the caller under test on the stripe and returns the
		// member's data block (noBlock for parity row 0) and its old holder.
		move func(t *testing.T, c *Cluster, sm *StripeMeta) (topology.BlockID, topology.NodeID)
		want func(b topology.BlockID, s topology.StripeID) []shape
	}{
		{
			name: "repair/data",
			move: func(t *testing.T, c *Cluster, sm *StripeMeta) (topology.BlockID, topology.NodeID) {
				b := sm.Info.Blocks[1]
				old := soleHolder(t, c, b)
				c.NameNode().MarkDead(old)
				if _, err := c.RepairBlock(b); err != nil {
					t.Fatal(err)
				}
				return b, old
			},
			want: func(b topology.BlockID, s topology.StripeID) []shape {
				return []shape{
					{events.RepairStarted, "raidnode", b, s, "new", "", false, ""},
					{events.RepairFinished, "raidnode", b, s, "new", "", true, ""},
					{events.ReplicaDeleted, "raidnode", b, s, "old", "", false, ""},
				}
			},
		},
		{
			name: "repair/parity",
			move: func(t *testing.T, c *Cluster, sm *StripeMeta) (topology.BlockID, topology.NodeID) {
				old := sm.Plan.Parity[0]
				c.NameNode().MarkDead(old)
				stats, err := c.RecoverNode(context.Background(), old)
				if err != nil || stats.ParityRepaired != 1 || stats.BlocksRepaired != 0 {
					t.Fatalf("RecoverNode = %+v, %v; want one parity row", stats, err)
				}
				return noBlock, old
			},
			want: func(_ topology.BlockID, s topology.StripeID) []shape {
				return []shape{
					{events.RepairStarted, "raidnode", noBlock, s, "new", "", false, "parity"},
					{events.RepairFinished, "raidnode", noBlock, s, "new", "", true, "parity"},
					{events.ReplicaRelocated, "raidnode", noBlock, s, "old", "new", true, "parity"},
				}
			},
		},
		{
			name:     "blockmover/data",
			override: crowdData,
			move: func(t *testing.T, c *Cluster, sm *StripeMeta) (topology.BlockID, topology.NodeID) {
				_, b, old := firstInCoreRack(t, c, sm)
				if _, _, err := c.RaidNode().BlockMover(); err != nil {
					t.Fatal(err)
				}
				return b, old
			},
			want: func(b topology.BlockID, s topology.StripeID) []shape {
				return []shape{{events.ReplicaRelocated, "blockmover", b, s, "old", "new", true, ""}}
			},
		},
		{
			name:     "blockmover/parity",
			override: crowdParity,
			move: func(t *testing.T, c *Cluster, sm *StripeMeta) (topology.BlockID, topology.NodeID) {
				if _, _, err := c.RaidNode().BlockMover(); err != nil {
					t.Fatal(err)
				}
				return noBlock, sm.Plan.Parity[0]
			},
			want: func(_ topology.BlockID, s topology.StripeID) []shape {
				return []shape{{events.ReplicaRelocated, "blockmover", noBlock, s, "old", "new", true, "parity"}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, "ear")
			jrn := events.NewJournal(1 << 12)
			c.SetJournal(jrn)
			var override planOverride
			if tc.override != nil {
				override = tc.override(c.Topology())
			}
			sm, _ := stageStripe(t, c, 89, override)
			mark := jrn.Seq()
			block, old := tc.move(t, c, sm)
			after := stripeOf(t, c, sm.Info.ID)
			moved := after.Plan.Parity[0]
			if block != noBlock {
				moved = soleHolder(t, c, block)
			}
			if moved == old {
				t.Fatalf("member still on node %d", old)
			}
			end := func(n topology.NodeID) string {
				switch n {
				case old:
					return "old"
				case moved:
					return "new"
				case events.NoneNode:
					return ""
				}
				return "other"
			}
			var got []shape
			evs, _, _ := jrn.Since(mark, 0, events.Filter{})
			for _, e := range evs {
				switch e.Type {
				case events.RepairStarted, events.RepairFinished, events.ReplicaDeleted, events.ReplicaRelocated:
					if e.Bytes != 0 && e.Bytes != int64(c.Config().BlockSizeBytes) {
						t.Errorf("%s carries %d bytes, want 0 or one block", e.Type, e.Bytes)
					}
					got = append(got, shape{e.Type, e.Subsystem, e.Block, e.Stripe, end(e.Node), end(e.Peer), e.Bytes != 0, e.Detail})
				}
			}
			if want := tc.want(block, sm.Info.ID); !slices.Equal(got, want) {
				t.Fatalf("journal sequence\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestBlockMoverCancelLeavesNothing cancels a BlockMover pass while its
// relocation is mid-block. The move runs on the chain and inherits its cancel
// contract: streams closed, pooled buffers returned, no store and no
// metadata changed, no goroutine left.
func TestBlockMoverCancelLeavesNothing(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 64 << 10
	cfg.DiskBandwidthBytesPerSec = 64 << 20
	c := newCluster(t, cfg)
	sm, contents := stageStripe(t, c, 97, crowdData(c.Topology()))
	_, victim, from := firstInCoreRack(t, c, sm)
	setRates(t, c, 512<<10, 512<<10) // 125 ms per block: the deadline lands mid-move
	canceledRun(t, c, context.DeadlineExceeded, "BlockMoverCtx", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer cancel()
		moved, _, err := c.RaidNode().BlockMoverCtx(ctx)
		if moved != 0 {
			t.Errorf("canceled pass reports %d moves", moved)
		}
		return err
	})
	if got := soleHolder(t, c, victim); got != from {
		t.Errorf("canceled move changed the recorded holder %d -> %d", from, got)
	}
	setRates(t, c, 64<<20, 64<<20)
	verifyBlockContents(t, c, contents)
}
