package hdfs

import (
	"math/rand"
	"testing"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/placement"
	"ear/internal/topology"
)

// attachAuditor wires a journal and auditor to the cluster, mirroring how
// earfsd and earexp -audit instrument it.
func attachAuditor(c *Cluster) (*events.Journal, *audit.Auditor) {
	j := events.NewJournal(0)
	c.SetJournal(j)
	cfg := c.Config()
	a := audit.New(c.Topology(), audit.Config{
		Replicas:      cfg.Replicas,
		C:             cfg.C,
		CheckCoreRack: cfg.Policy == "ear",
	})
	a.Attach(j)
	return j, a
}

// TestAuditorCleanEARLifecycle runs the full pipeline — write, encode,
// relocation pass — on an EAR cluster and requires a spotless report: no
// ongoing violation, no transient one. This is the paper's reliability
// claim stated as a test.
func TestAuditorCleanEARLifecycle(t *testing.T) {
	c := newTestCluster(t, "ear")
	j, a := attachAuditor(c)
	rng := rand.New(rand.NewSource(47))
	writeBlocks(t, c, 3*c.Config().K, rng)
	c.NameNode().FlushOpenStripes()
	stats, err := c.RaidNode().EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RaidNode().BlockMover(); err != nil {
		t.Fatal(err)
	}
	r := a.Report()
	if !r.Clean {
		t.Fatalf("EAR lifecycle not clean: ongoing=%+v transient=%+v", r.Ongoing, r.Transient)
	}
	if stats.Stripes == 0 || r.Encoded != stats.Stripes {
		t.Errorf("auditor saw %d encoded stripes, RaidNode reported %d", r.Encoded, stats.Stripes)
	}
	if r.Events != j.Seq() {
		t.Errorf("auditor consumed %d events, journal published %d", r.Events, j.Seq())
	}
	// The journal carried the whole story: every lifecycle event type shows
	// up at least once.
	for _, typ := range []events.Type{
		events.BlockAllocated, events.ReplicaWritten, events.BlockCommitted,
		events.StripeGrouped, events.StripeEncodeStarted, events.ReplicaDeleted,
		events.StripeEncoded, events.StripeVerified, events.TransferFinished,
	} {
		if evs, _, _ := j.Since(0, 1, events.Filter{Type: typ}); len(evs) == 0 {
			t.Errorf("no %s event journaled across the lifecycle", typ)
		}
	}
}

// misplaceFirstStripe returns a plan override that rewrites one stripe's
// post-encoding plan to retain two data blocks in the same rack — a
// deliberate rack-spread violation (> c=1 blocks of the stripe in one
// rack). Each block keeps its first listed replica, which under EAR is the
// core-rack copy, so both retained replicas share the core rack.
func misplaceFirstStripe(staged *topology.StripeID) func(*placement.StripeInfo, *placement.PostEncodingPlan) {
	return func(info *placement.StripeInfo, plan *placement.PostEncodingPlan) {
		if *staged >= 0 || len(info.Blocks) < 2 {
			return
		}
		plan.Keep[0] = info.Placements[0].Nodes[0]
		plan.Keep[1] = info.Placements[1].Nodes[0]
		*staged = info.ID
	}
}

// TestAuditorDetectsMisplacedStripe stages a stripe whose retained layout
// packs two blocks into one rack and checks both watchdogs catch it: the
// PlacementMonitor flags the stripe, and the auditor opens a rack-spread
// violation naming it.
func TestAuditorDetectsMisplacedStripe(t *testing.T) {
	c := newTestCluster(t, "ear")
	_, a := attachAuditor(c)
	staged := topology.StripeID(-1)
	c.NameNode().SetPlanOverrideForTest(misplaceFirstStripe(&staged))
	rng := rand.New(rand.NewSource(53))
	writeBlocks(t, c, 2*c.Config().K, rng)
	encodeAll(t, c)
	if staged < 0 {
		t.Fatal("plan override never ran")
	}

	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil {
		t.Fatal(err)
	}
	foundMon := false
	for _, id := range bad {
		if id == staged {
			foundMon = true
		}
	}
	if !foundMon {
		t.Errorf("PlacementMonitor flagged %v, want stripe %d", bad, staged)
	}

	r := a.Report()
	found := false
	for _, v := range r.Ongoing {
		if v.Invariant == audit.InvRackSpread && v.Stripe == staged {
			found = true
			if v.OpenedSeq == 0 || v.LastSeq < v.OpenedSeq {
				t.Errorf("violation window malformed: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("auditor missed the staged misplacement; ongoing=%+v", r.Ongoing)
	}
}

// TestAuditorTransientViolationResolvedByBlockMover stages the same
// misplacement and then lets the BlockMover fix it: the violation must
// resolve (no ongoing entry), survive as a transient with the event window
// of the relocation that closed it, and the report must still say not
// clean — a transient breach happened and is not forgotten.
func TestAuditorTransientViolationResolvedByBlockMover(t *testing.T) {
	c := newTestCluster(t, "ear")
	j, a := attachAuditor(c)
	staged := topology.StripeID(-1)
	c.NameNode().SetPlanOverrideForTest(misplaceFirstStripe(&staged))
	rng := rand.New(rand.NewSource(59))
	writeBlocks(t, c, 2*c.Config().K, rng)
	encodeAll(t, c)
	moved, _, err := c.RaidNode().BlockMover()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("BlockMover moved nothing despite the staged misplacement")
	}

	r := a.Report()
	for _, v := range r.Ongoing {
		if v.Invariant == audit.InvRackSpread {
			t.Fatalf("rack-spread violation still ongoing after BlockMover: %+v", v)
		}
	}
	var got *audit.Violation
	for i, v := range r.Transient {
		if v.Invariant == audit.InvRackSpread && v.Stripe == staged {
			got = &r.Transient[i]
		}
	}
	if got == nil {
		t.Fatalf("resolved violation not recorded as transient; transient=%+v", r.Transient)
	}
	if !got.Transient() || got.ResolvedSeq <= got.OpenedSeq {
		t.Errorf("transient window malformed: %+v", got)
	}
	if r.Clean {
		t.Error("report claims clean despite a transient violation")
	}
	// The resolving event is the relocation the BlockMover journaled.
	evs, _, _ := j.Since(got.ResolvedSeq-1, 1, events.Filter{})
	if len(evs) != 1 || evs[0].Type != events.ReplicaRelocated {
		t.Errorf("resolving event = %+v, want the ReplicaRelocated that fixed the stripe", evs)
	}
}
