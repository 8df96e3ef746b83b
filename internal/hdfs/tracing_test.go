package hdfs

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"ear/internal/events"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// tracedCluster builds a cluster with tracer and journal installed.
func tracedCluster(t *testing.T, policy string) (*Cluster, *telemetry.Tracer, *events.Journal) {
	t.Helper()
	c := newTestCluster(t, policy)
	tr := telemetry.NewTracer()
	c.SetTracer(tr)
	jnl := events.NewJournal(8192)
	c.SetJournal(jnl)
	return c, tr, jnl
}

// spansByName groups snapshots by span name.
func spansByName(spans []telemetry.SpanSnapshot) map[string][]telemetry.SpanSnapshot {
	out := make(map[string][]telemetry.SpanSnapshot)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestWriteBlockSingleTraceEndToEnd is the tentpole acceptance test: one
// earfs write must produce exactly one trace spanning the client operation,
// the NameNode allocation, and every DataNode pipeline hop, with the same
// trace ID stamped on the corresponding journal events.
func TestWriteBlockSingleTraceEndToEnd(t *testing.T) {
	c, tr, jnl := tracedCluster(t, "ear")
	data := make([]byte, c.Config().BlockSizeBytes)
	rand.New(rand.NewSource(7)).Read(data)
	id, err := c.WriteBlock(3, data)
	if err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}

	spans := tr.Spans()
	byName := spansByName(spans)
	root := byName["client.write-block"]
	if len(root) != 1 {
		t.Fatalf("client.write-block spans = %d, want 1", len(root))
	}
	trace := root[0].Trace
	if trace == 0 {
		t.Fatal("write span carries no trace ID")
	}
	if got := root[0].Args[telemetry.ComponentArg]; got != "client" {
		t.Errorf("write span component = %q, want client", got)
	}

	alloc := byName["namenode.allocate"]
	if len(alloc) != 1 {
		t.Fatalf("namenode.allocate spans = %d, want 1", len(alloc))
	}
	if alloc[0].Trace != trace {
		t.Errorf("allocate span trace = %x, want %x", alloc[0].Trace, trace)
	}
	if alloc[0].Parent != root[0].ID {
		t.Errorf("allocate span parent = %d, want %d", alloc[0].Parent, root[0].ID)
	}

	hops := byName["datanode.pipeline-hop"]
	if want := c.Config().Replicas; len(hops) != want {
		t.Fatalf("pipeline-hop spans = %d, want %d", len(hops), want)
	}
	for _, h := range hops {
		if h.Trace != trace {
			t.Errorf("hop span trace = %x, want %x", h.Trace, trace)
		}
		if got := h.Args[telemetry.ComponentArg]; got != "datanode" {
			t.Errorf("hop span component = %q, want datanode", got)
		}
	}

	// Every span of this write shares ONE trace, and that trace crosses at
	// least the client/namenode/datanode component boundary.
	for _, s := range spans {
		if s.Trace != trace {
			t.Errorf("span %q trace = %x, want %x (single-trace write)", s.Name, s.Trace, trace)
		}
	}
	if got := telemetry.MultiComponentTraces(spans); got != 1 {
		t.Errorf("MultiComponentTraces = %d, want 1", got)
	}

	// The journal's view of the same write carries the same trace ID.
	traced, _, _ := jnl.Since(0, 0, events.Filter{Trace: trace})
	want := map[events.Type]bool{
		events.BlockAllocated:   false,
		events.ReplicaWritten:   false,
		events.BlockCommitted:   false,
		events.TransferStarted:  false,
		events.TransferFinished: false,
	}
	for _, e := range traced {
		if _, ok := want[e.Type]; ok {
			want[e.Type] = true
		}
	}
	for typ, seen := range want {
		if !seen {
			t.Errorf("no %s event stamped with trace %x", typ, trace)
		}
	}
	var replicas int
	for _, e := range traced {
		if e.Type == events.ReplicaWritten && e.Block == id {
			replicas++
		}
	}
	if replicas != c.Config().Replicas {
		t.Errorf("traced ReplicaWritten events = %d, want %d", replicas, c.Config().Replicas)
	}

	// The Chrome export carries the trace ID in args for viewer filtering.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	hex := telemetry.FormatTraceID(trace)
	found := false
	for _, ev := range evs {
		if args, ok := ev["args"].(map[string]any); ok && args["trace"] == hex {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("chrome export carries no event with trace arg %s", hex)
	}
}

// TestSeparateWritesGetSeparateTraces: trace identity must not leak across
// independent operations.
func TestSeparateWritesGetSeparateTraces(t *testing.T) {
	c, tr, _ := tracedCluster(t, "rr")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		data := make([]byte, c.Config().BlockSizeBytes)
		rng.Read(data)
		if _, err := c.WriteBlock(topology.NodeID(i), data); err != nil {
			t.Fatalf("WriteBlock %d: %v", i, err)
		}
	}
	roots := spansByName(tr.Spans())["client.write-block"]
	if len(roots) != 3 {
		t.Fatalf("write spans = %d, want 3", len(roots))
	}
	seen := map[uint64]bool{}
	for _, r := range roots {
		if seen[r.Trace] {
			t.Errorf("trace %x reused across writes", r.Trace)
		}
		seen[r.Trace] = true
	}
	if got := telemetry.MultiComponentTraces(tr.Spans()); got != 3 {
		t.Errorf("MultiComponentTraces = %d, want 3", got)
	}
}

// TestEncodeTraceStampsJournal: the encode job's trace reaches the stripe
// lifecycle events and the repair path stamps its own.
func TestEncodeAndRepairTraceStampJournal(t *testing.T) {
	c, tr, jnl := tracedCluster(t, "ear")
	rng := rand.New(rand.NewSource(13))
	ids, _ := writeBlocks(t, c, c.Config().K*2, rng)
	encodeAll(t, c)

	jobs := spansByName(tr.Spans())["encode-job"]
	if len(jobs) != 1 {
		t.Fatalf("encode-job spans = %d, want 1", len(jobs))
	}
	trace := jobs[0].Trace
	if trace == 0 {
		t.Fatal("encode job has no trace")
	}
	started, _, _ := jnl.Since(0, 0, events.Filter{Type: events.StripeEncodeStarted, Trace: trace})
	if len(started) == 0 {
		t.Error("no StripeEncodeStarted event carries the encode job's trace")
	}
	deleted, _, _ := jnl.Since(0, 0, events.Filter{Type: events.ReplicaDeleted, Trace: trace})
	if len(deleted) == 0 {
		t.Error("no ReplicaDeleted event carries the encode job's trace")
	}

	// Repair: fail a replica holder, reconstruct, and expect the repair
	// trace on the Repair* events.
	victim := ids[0]
	live, err := c.NameNode().LiveReplicas(victim)
	if err != nil || len(live) == 0 {
		t.Fatalf("LiveReplicas(%d): %v %v", victim, live, err)
	}
	c.NameNode().MarkDead(live[0])
	if _, err := c.RepairBlockCtx(context.Background(), victim); err != nil {
		t.Fatalf("RepairBlock: %v", err)
	}
	repairs := spansByName(tr.Spans())["raidnode.repair-block"]
	if len(repairs) != 1 {
		t.Fatalf("repair spans = %d, want 1", len(repairs))
	}
	rt := repairs[0].Trace
	fin, _, _ := jnl.Since(0, 0, events.Filter{Type: events.RepairFinished, Trace: rt})
	if len(fin) != 1 {
		t.Errorf("RepairFinished events with repair trace = %d, want 1", len(fin))
	}
}

// TestUntracedClusterStampsNoTrace: with no tracer installed the data path
// still works and journal events simply carry trace 0.
func TestUntracedClusterPublishesZeroTrace(t *testing.T) {
	c := newTestCluster(t, "rr")
	jnl := events.NewJournal(1024)
	c.SetJournal(jnl)
	data := make([]byte, c.Config().BlockSizeBytes)
	if _, err := c.WriteBlock(0, data); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	for _, e := range jnl.Snapshot() {
		if e.Trace != 0 {
			t.Fatalf("untraced cluster stamped trace %x on %s", e.Trace, e.Type)
		}
	}
}
