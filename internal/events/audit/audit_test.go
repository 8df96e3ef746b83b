package audit

import (
	"testing"

	"ear/internal/events"
	"ear/internal/topology"
)

// fixture: 4 racks x 2 nodes. RackOf(n) = n/2.
func testAuditor(t *testing.T, cfg Config) *Auditor {
	t.Helper()
	top, err := topology.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return New(top, cfg)
}

// feed publishes the events through a journal so they arrive stamped, the
// way production events do.
func feed(a *Auditor, evs ...events.Event) *events.Journal {
	j := events.NewJournal(0)
	a.Attach(j)
	for _, e := range evs {
		j.Publish(e)
	}
	return j
}

func ev(t events.Type, mut func(*events.Event)) events.Event {
	e := events.New(t, "test")
	if mut != nil {
		mut(&e)
	}
	return e
}

// commit emits the allocate+commit pair placing block id on nodes.
func commit(id topology.BlockID, nodes ...topology.NodeID) []events.Event {
	return []events.Event{
		ev(events.BlockAllocated, func(e *events.Event) { e.Block = id; e.Nodes = nodes }),
		ev(events.BlockCommitted, func(e *events.Event) { e.Block = id; e.Nodes = nodes }),
	}
}

func group(s topology.StripeID, core topology.RackID, blocks ...topology.BlockID) events.Event {
	return ev(events.StripeGrouped, func(e *events.Event) {
		e.Stripe = s
		e.Rack = core
		e.Blocks = blocks
	})
}

func TestCleanLifecycleStaysClean(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, C: 1, CheckCoreRack: true})
	var evs []events.Event
	// Two blocks, each with a replica in core rack 0 (nodes 0-1) and one
	// elsewhere.
	evs = append(evs, commit(1, 0, 2)...)
	evs = append(evs, commit(2, 1, 4)...)
	evs = append(evs, group(10, 0, 1, 2))
	// Encode: deletes down to one replica per block inside the encode
	// bracket, parities land in two more racks.
	evs = append(evs,
		ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = 10 }),
		ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 0 }),
		ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 2; e.Node = 1 }),
		ev(events.StripeEncoded, func(e *events.Event) {
			e.Stripe = 10
			e.Nodes = []topology.NodeID{6}
		}),
	)
	feed(a, evs...)
	r := a.Report()
	if !r.Clean {
		t.Fatalf("clean lifecycle flagged: %+v", append(r.Ongoing, r.Transient...))
	}
	if r.Blocks != 2 || r.Stripes != 1 || r.Encoded != 1 {
		t.Errorf("model folded %d blocks / %d stripes / %d encoded, want 2/1/1", r.Blocks, r.Stripes, r.Encoded)
	}
}

func TestReplicaCountViolationAndResolution(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2})
	j := feed(a)
	for _, e := range commit(1, 0, 2) {
		j.Publish(e)
	}
	// Losing a replica outside any encode bracket breaches r >= 2.
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 2 }))
	r := a.Report()
	if len(r.Ongoing) != 1 || r.Ongoing[0].Invariant != InvReplicaCount {
		t.Fatalf("ongoing = %+v, want one replica-count violation", r.Ongoing)
	}
	opened := r.Ongoing[0].OpenedSeq

	// Repair restores it: the violation resolves and becomes transient.
	j.Publish(ev(events.RepairFinished, func(e *events.Event) { e.Block = 1; e.Node = 3 }))
	r = a.Report()
	if len(r.Ongoing) != 0 {
		t.Fatalf("violation still ongoing after repair: %+v", r.Ongoing)
	}
	if len(r.Transient) != 1 || !r.Transient[0].Transient() {
		t.Fatalf("transient = %+v, want the resolved violation", r.Transient)
	}
	v := r.Transient[0]
	if v.OpenedSeq != opened || v.ResolvedSeq <= v.OpenedSeq {
		t.Errorf("violation window [%d..%d] malformed (opened at %d)", v.OpenedSeq, v.ResolvedSeq, opened)
	}
	if r.Clean {
		t.Error("report claims clean despite a transient violation")
	}
}

func TestReplicaCountSuspendedDuringEncode(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2})
	j := feed(a)
	for _, e := range commit(1, 0, 2) {
		j.Publish(e)
	}
	j.Publish(group(10, events.NoneRack, 1))
	j.Publish(ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = 10 }))
	// Encode legitimately deletes down to one replica.
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 2 }))
	j.Publish(ev(events.StripeEncoded, func(e *events.Event) { e.Stripe = 10 }))
	if r := a.Report(); !r.Clean {
		t.Fatalf("encode-bracket deletes flagged: %+v", append(r.Ongoing, r.Transient...))
	}
}

func TestCoreRackCopyViolation(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, CheckCoreRack: true})
	j := feed(a)
	// Core rack 0 is nodes {0,1}; block 1's replicas live in racks 1 and 2.
	for _, e := range commit(1, 2, 4) {
		j.Publish(e)
	}
	j.Publish(group(10, 0, 1))
	r := a.Report()
	if len(r.Ongoing) != 1 || r.Ongoing[0].Invariant != InvCoreRackCopy {
		t.Fatalf("ongoing = %+v, want one core-rack-copy violation", r.Ongoing)
	}
	// Relocating a replica into the core rack resolves it.
	j.Publish(ev(events.ReplicaRelocated, func(e *events.Event) {
		e.Block = 1
		e.Node = 4
		e.Peer = 1
	}))
	r = a.Report()
	if len(r.Ongoing) != 0 || len(r.Transient) != 1 {
		t.Fatalf("after relocation: ongoing=%+v transient=%+v", r.Ongoing, r.Transient)
	}
}

func TestCoreRackCheckDisabledForRR(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, CheckCoreRack: false})
	j := feed(a)
	for _, e := range commit(1, 2, 4) {
		j.Publish(e)
	}
	j.Publish(group(10, 0, 1))
	if r := a.Report(); !r.Clean {
		t.Fatalf("core-rack check ran with CheckCoreRack=false: %+v", r.Ongoing)
	}
}

// encodeStripe folds a one-block stripe through its encode bracket with the
// retained replica on keep and parity on parityNode.
func encodeStripe(j *events.Journal, s topology.StripeID, b topology.BlockID, drop, parityNode topology.NodeID) {
	j.Publish(ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = s }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = b; e.Node = drop }))
	j.Publish(ev(events.StripeEncoded, func(e *events.Event) {
		e.Stripe = s
		e.Nodes = []topology.NodeID{parityNode}
	}))
}

func TestRackSpreadViolationResolvedByRelocation(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, C: 1})
	j := feed(a)
	// Blocks 1 and 2 both retain a replica in rack 1 (nodes 2,3) post-encode.
	for _, e := range commit(1, 2, 0) {
		j.Publish(e)
	}
	for _, e := range commit(2, 3, 1) {
		j.Publish(e)
	}
	j.Publish(group(10, events.NoneRack, 1, 2))
	j.Publish(ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = 10 }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 0 }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 2; e.Node = 1 }))
	j.Publish(ev(events.StripeEncoded, func(e *events.Event) {
		e.Stripe = 10
		e.Nodes = []topology.NodeID{4}
	}))
	r := a.Report()
	if len(r.Ongoing) != 1 || r.Ongoing[0].Invariant != InvRackSpread {
		t.Fatalf("ongoing = %+v, want one rack-spread violation", r.Ongoing)
	}
	// The BlockMover relocates block 2 out of the crowded rack.
	j.Publish(ev(events.ReplicaRelocated, func(e *events.Event) {
		e.Block = 2
		e.Node = 3
		e.Peer = 6
	}))
	r = a.Report()
	if len(r.Ongoing) != 0 || len(r.Transient) != 1 {
		t.Fatalf("after relocation: ongoing=%+v transient=%+v", r.Ongoing, r.Transient)
	}
}

func TestRackSpreadCountsParity(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, C: 1})
	j := feed(a)
	for _, e := range commit(1, 0, 2) {
		j.Publish(e)
	}
	j.Publish(group(10, events.NoneRack, 1))
	// The retained replica lands on node 2 (rack 1); parity on node 3 — the
	// same rack, so data + parity breach c=1 together.
	encodeStripe(j, 10, 1, 0, 3)
	r := a.Report()
	if len(r.Ongoing) != 1 || r.Ongoing[0].Invariant != InvRackSpread {
		t.Fatalf("ongoing = %+v, want rack-spread counting parity", r.Ongoing)
	}
	// A parity relocation (Detail="parity") resolves it.
	j.Publish(ev(events.ReplicaRelocated, func(e *events.Event) {
		e.Stripe = 10
		e.Node = 3
		e.Peer = 6
		e.Detail = "parity"
	}))
	if r := a.Report(); len(r.Ongoing) != 0 {
		t.Fatalf("parity relocation did not resolve: %+v", r.Ongoing)
	}
}

// TestRackSpreadIgnoresDeadHolders: a member repaired into the rack of its
// dead holder is announced (RepairFinished) before the dead copy is retired
// (ReplicaDeleted). The unreachable copy must not count toward the rack, or
// every such repair reads as a transient violation.
func TestRackSpreadIgnoresDeadHolders(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2, C: 1})
	j := feed(a)
	for _, e := range commit(1, 2, 0) {
		j.Publish(e)
	}
	j.Publish(group(10, events.NoneRack, 1))
	encodeStripe(j, 10, 1, 0, 6) // block 1 stays on node 2 (rack 1), parity in rack 3
	j.Publish(ev(events.NodeDead, func(e *events.Event) { e.Node = 2 }))
	j.Publish(ev(events.RepairFinished, func(e *events.Event) { e.Block = 1; e.Stripe = 10; e.Node = 3 }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Stripe = 10; e.Node = 2 }))
	if r := a.Report(); r.Total() != 0 {
		t.Fatalf("repair into the dead holder's rack flagged: %+v", r)
	}
	// A revived node's copy counts again.
	j.Publish(ev(events.NodeAlive, func(e *events.Event) { e.Node = 2 }))
	j.Publish(ev(events.NodeDead, func(e *events.Event) { e.Node = 3 }))
	j.Publish(ev(events.RepairFinished, func(e *events.Event) { e.Block = 1; e.Stripe = 10; e.Node = 2 }))
	j.Publish(ev(events.NodeAlive, func(e *events.Event) { e.Node = 3 }))
	j.Publish(ev(events.StripeVerified, func(e *events.Event) { e.Stripe = 10 }))
	if r := a.Report(); len(r.Ongoing) != 1 || r.Ongoing[0].Invariant != InvRackSpread {
		t.Fatalf("two live copies in one rack not flagged: %+v", r)
	}
}

func TestPartialDeleteViolation(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2})
	j := feed(a)
	for _, e := range commit(1, 0, 2) {
		j.Publish(e)
	}
	j.Publish(group(10, events.NoneRack, 1))
	// Encode deletes BOTH replicas: the stripe is left partially deleted.
	j.Publish(ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = 10 }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 0 }))
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 2 }))
	j.Publish(ev(events.StripeEncoded, func(e *events.Event) { e.Stripe = 10 }))
	r := a.Report()
	found := false
	for _, v := range r.Ongoing {
		if v.Invariant == InvPartialDelete && v.Block == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ongoing = %+v, want a partial-delete violation for block 1", r.Ongoing)
	}
}

func TestAbortedBlockIgnored(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2})
	feed(a,
		ev(events.BlockAllocated, func(e *events.Event) {
			e.Block = 1
			e.Nodes = []topology.NodeID{0, 2}
		}),
		ev(events.BlockAborted, func(e *events.Event) { e.Block = 1 }),
	)
	if r := a.Report(); !r.Clean {
		t.Fatalf("aborted block flagged: %+v", append(r.Ongoing, r.Transient...))
	}
}

func TestViolationWindowExtends(t *testing.T) {
	a := testAuditor(t, Config{Replicas: 2})
	j := feed(a)
	for _, e := range commit(1, 0, 2) {
		j.Publish(e)
	}
	j.Publish(ev(events.ReplicaDeleted, func(e *events.Event) { e.Block = 1; e.Node = 2 }))
	opened := a.Report().Ongoing[0].LastSeq
	// Unrelated traffic extends the open window's LastSeq.
	j.Publish(ev(events.TransferFinished, func(e *events.Event) { e.Bytes = 4096 }))
	v := a.Report().Ongoing[0]
	if v.LastSeq <= opened {
		t.Errorf("LastSeq = %d did not advance past %d while violation held", v.LastSeq, opened)
	}
}
