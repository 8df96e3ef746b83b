package planes

import (
	"encoding/json"
	"reflect"
	"testing"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

func testCluster(t *testing.T, policy string) *hdfs.Cluster {
	t.Helper()
	c, err := hdfs.NewCluster(hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: policy,
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestAttachTwiceSharesPlanes: a second Attach to one cluster returns the
// first one's set, keeps the planes it already has, adds only the missing
// ones, and so leaves one auditor and one tracker on the journal.
func TestAttachTwiceSharesPlanes(t *testing.T) {
	c := testCluster(t, "ear")
	c.SetTelemetry(telemetry.NewRegistry())
	first := Attach(c, Audit)
	if first.Journal == nil || c.Journal() != first.Journal {
		t.Fatal("Attach did not install its journal on the cluster")
	}
	if first.Auditor == nil || first.Tracker != nil || first.Health != nil || first.Sampler != nil || first.SLO != nil {
		t.Fatalf("Attach(Audit) attached the wrong planes: %+v", first)
	}
	aud := first.Auditor

	second := Attach(c, Audit|Progress|Health|Timeline|SLO)
	t.Cleanup(second.Stop)
	if second != first {
		t.Fatal("second Attach returned a different set")
	}
	if second.Auditor != aud {
		t.Fatal("second Attach stacked a second auditor")
	}
	if second.Tracker == nil || second.Health == nil || second.Sampler == nil || second.SLO == nil {
		t.Fatalf("second Attach left planes out: %+v", second)
	}
	trk := second.Tracker
	if third := Attach(c, Progress); third != first || third.Tracker != trk {
		t.Fatal("third Attach stacked a second tracker")
	}

	if _, err := c.WriteBlock(0, make([]byte, c.Config().BlockSizeBytes)); err != nil {
		t.Fatal(err)
	}
	seq := first.Journal.Seq()
	if seq == 0 {
		t.Fatal("a write published nothing")
	}
	if a, p := first.Auditor.Report(), second.Tracker.Report(); a.Events != seq || p.Events != seq {
		t.Fatalf("auditor folded %d events, tracker %d, journal published %d", a.Events, p.Events, seq)
	}
	if a, b := first.Report(Audit), second.Report(Audit); !reflect.DeepEqual(a, b) {
		t.Fatalf("the two handles report differently:\n%+v\n%+v", a, b)
	}
	second.Stop()
	second.Stop() // idempotent
}

// TestConfigDerivedFromCluster: label, policy and thresholds come from the
// cluster's own hdfs.Config, and every labelled report keeps the shape the
// earexp dumps have: {cluster, report} for the auditor and the tracker,
// the health and tenant fields inline.
func TestConfigDerivedFromCluster(t *testing.T) {
	c := testCluster(t, "rr")
	s := Attach(c, Audit|Progress|Health)
	t.Cleanup(s.Stop)
	if s.Label != "rr (3,2)" || s.Policy != "rr" {
		t.Fatalf("label %q policy %q", s.Label, s.Policy)
	}
	if got := s.Tracker.Report().Policy; got != "rr" {
		t.Fatalf("tracker policy %q", got)
	}
	for plane, want := range map[Which][]string{
		Audit:    {"cluster", "report"},
		Progress: {"cluster", "report"},
		Health:   {"cluster", "degraded", "nodes"},
		Tenants:  {"cluster", "cross_rack_bytes", "intra_rack_bytes", "tenants"},
	} {
		blob, err := json.Marshal(s.Report(plane))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("plane %d: keys of %s, want %v", plane, blob, want)
		}
		for _, k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("plane %d: key %q missing from %s", plane, k, blob)
			}
		}
	}
}

// TestObserveStripeScopedEventAllocatesNothing: a stripe-scoped event that
// changes no placement (the PlacementMonitor's StripeVerified) re-checks every
// member of an encoded (14,12) stripe and the stripe-level invariants, under
// the journal lock, for both views. That used to build a formatted key per
// check; it now costs no allocation.
func TestObserveStripeScopedEventAllocatesNothing(t *testing.T) {
	top, err := topology.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(top, audit.Config{Replicas: 1, C: 4, CheckCoreRack: true})
	trk := progress.New(progress.Config{Replicas: 1, Policy: "ear"})
	j := events.NewJournal(0)
	aud.Attach(j)
	trk.Attach(j)

	const k, stripe = 12, topology.StripeID(7)
	members := make([]topology.BlockID, k)
	for i := range members {
		members[i] = topology.BlockID(i)
		holder := topology.NodeID(i)
		for _, typ := range []events.Type{events.BlockAllocated, events.BlockCommitted} {
			ev := events.New(typ, "namenode")
			ev.Block, ev.Bytes, ev.Nodes = members[i], 1<<20, []topology.NodeID{holder}
			j.Publish(ev)
		}
	}
	grouped := events.New(events.StripeGrouped, "namenode")
	grouped.Stripe, grouped.Blocks = stripe, members
	j.Publish(grouped)
	j.Publish(stripeEvent(events.StripeEncodeStarted, stripe))
	encoded := stripeEvent(events.StripeEncoded, stripe)
	encoded.Nodes = []topology.NodeID{12, 13}
	j.Publish(encoded)
	if r := aud.Report(); !r.Clean || r.Encoded != 1 {
		t.Fatalf("fixture not a clean encoded stripe: %+v", r)
	}

	verified := stripeEvent(events.StripeVerified, stripe)
	verified.Seq = j.Seq() + 1
	for name, observe := range map[string]func(events.Event){"auditor": aud.Observe, "tracker": trk.Observe} {
		if n := testing.AllocsPerRun(100, func() { observe(verified) }); n != 0 {
			t.Errorf("%s: %v allocations per StripeVerified, want 0", name, n)
		}
	}
}

// TestBundleCarriesEveryPlane: one bundle holds the report of every
// attached plane, the tenant table and the journal's last events.
func TestBundleCarriesEveryPlane(t *testing.T) {
	c := testCluster(t, "ear")
	c.SetTelemetry(telemetry.NewRegistry())
	s := Attach(c, Audit|Progress|Health|Timeline|SLO)
	t.Cleanup(s.Stop)
	for i := 0; i < 2; i++ {
		if _, err := c.WriteBlock(0, make([]byte, c.Config().BlockSizeBytes)); err != nil {
			t.Fatal(err)
		}
	}
	b := s.Bundle()
	if b.Cluster != "ear (3,2)" || b.Audit == nil || b.Progress == nil || b.Health == nil ||
		b.Timeline == nil || len(b.SLO) == 0 {
		t.Fatalf("bundle misses a plane: %+v", b)
	}
	if !b.Audit.Clean || b.Progress.Events != b.Seq {
		t.Errorf("audit clean=%v, tracker folded %d of %d events", b.Audit.Clean, b.Progress.Events, b.Seq)
	}
	if n := len(b.Events); b.Seq == 0 || b.Seq > BundleEvents || uint64(n) != b.Seq || b.Events[0].Seq != 1 || b.Events[n-1].Seq != b.Seq {
		t.Errorf("want all %d events of two writes, got %d", b.Seq, n)
	}
	if len(b.Tenants.Tenants) == 0 {
		t.Error("bundle has no tenant table")
	}
	if blob, err := json.Marshal(b); err != nil {
		t.Fatal(err)
	} else if !json.Valid(blob) {
		t.Fatal("bundle is not JSON")
	}

	bare := Attach(testCluster(t, "rr"), 0).Bundle()
	if bare.Audit != nil || bare.Health != nil || bare.Timeline != nil || bare.SLO != nil || bare.Metrics != nil {
		t.Errorf("a set with no planes bundles plane reports: %+v", bare)
	}
}

// TestAttachRebuildsFromRecoveredState: a durable cluster restarted from a
// snapshot alone (no log tail to replay) still hands its folds the recovered
// layout, and a fold added by a later Attach starts from it too without the
// earlier folds counting it twice. Once traffic has been published, a fold
// added later starts from there: no fold is reset and nothing is backfilled.
func TestAttachRebuildsFromRecoveredState(t *testing.T) {
	dir := t.TempDir()
	cfg := hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: "ear",
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1, MetaDir: dir, MetaSync: "always",
	}
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NameNode().Recovered() {
		t.Fatal("a fresh metadata directory counts as recovered")
	}
	for i := 0; i < 4; i++ {
		if _, err := c.WriteBlock(0, make([]byte, cfg.BlockSizeBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.NameNode().SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, err = hdfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nn := c.NameNode()
	if !nn.Recovered() || nn.RecoveredOps() != 0 || nn.BlockCount() != 4 {
		t.Fatalf("want a snapshot-only restart of 4 blocks, replayed %d ops, %d blocks", nn.RecoveredOps(), nn.BlockCount())
	}
	s := Attach(c, Audit)
	first := s.Auditor.Report()
	if first.Blocks != 4 || first.Encoded == 0 || !first.Clean {
		t.Fatalf("auditor did not rebuild the recovered layout: %+v", first)
	}
	Attach(c, Progress)
	if got := s.Auditor.Report(); got.Blocks != first.Blocks || got.Events != first.Events {
		t.Errorf("auditor after the second Attach: %d blocks from %d events, want %d from %d",
			got.Blocks, got.Events, first.Blocks, first.Events)
	}
	if p := s.Tracker.Report(); p.EncodedStripes != first.Encoded || p.Events != first.Events || p.Recovering {
		t.Errorf("tracker did not rebuild alone: %+v", p)
	}

	if _, err := c.WriteBlock(0, make([]byte, cfg.BlockSizeBytes)); err != nil {
		t.Fatal(err)
	}
	seq, folded := s.Journal.Seq(), s.Auditor.Report()
	Attach(c, Health)
	t.Cleanup(s.Stop)
	if got := s.Journal.Seq(); got != seq {
		t.Errorf("an Attach after a write published %d events", got-seq)
	}
	if got := s.Auditor.Report(); got.Blocks != 5 || got.Events != folded.Events {
		t.Errorf("auditor after an Attach that followed a write: %d blocks from %d events, want 5 from %d",
			got.Blocks, got.Events, folded.Events)
	}
}

func stripeEvent(t events.Type, id topology.StripeID) events.Event {
	ev := events.New(t, "raidnode")
	ev.Stripe = id
	return ev
}
