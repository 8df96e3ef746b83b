package main

import (
	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
)

// planes are the repo's own observability planes, attached from outside on
// a traced round: metric registry, span tracer, event journal, invariant
// auditor and transition-progress tracker. What they cost is
// observability.trace_overhead_pct.
type planes struct {
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	journal *events.Journal
	auditor *audit.Auditor
	tracker *progress.Tracker
}

// planeReport is what the planes saw by the end of a round.
type planeReport struct {
	Audit         audit.Report
	Progress      progress.Report
	JournalEvents uint64
	Spans         int
	SpansDropped  int64
	// HistMeanS maps a registry histogram to its mean in seconds.
	HistMeanS map[string]float64
}

// Registry histograms copied into the per-layer section.
var copiedHistograms = []string{
	"namenode_alloc_seconds",
	"raidnode_stripe_encode_seconds",
	"hdfs_pipeline_fill_seconds",
	"metalog_fsync_seconds",
}

func attachPlanes(c *hdfs.Cluster) *planes {
	cfg := c.Config()
	p := &planes{
		reg:     telemetry.NewRegistry(),
		tracer:  telemetry.NewTracer(),
		journal: events.NewJournal(0),
		auditor: audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true}),
		tracker: progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy}),
	}
	c.SetTelemetry(p.reg)
	c.SetTracer(p.tracer)
	// The subscribers outlive neither the journal nor the cluster, so their
	// cancel functions are not kept.
	p.auditor.Attach(p.journal)
	p.tracker.Attach(p.journal)
	c.SetJournal(p.journal)
	return p
}

func (p *planes) report() *planeReport {
	r := &planeReport{
		JournalEvents: p.journal.Seq(),
		HistMeanS:     histogramMeans(p.reg),
	}
	if p.auditor != nil {
		r.Audit = p.auditor.Report()
		r.Progress = p.tracker.Report()
	}
	if p.tracer != nil {
		r.Spans = len(p.tracer.Spans())
		r.SpansDropped = p.tracer.Dropped()
	}
	return r
}

// failedChecks holds a traced data round to the paper's reliability claim:
// the auditor saw no invariant violation, not even a transient one (a node
// death opens exposure windows in the tracker, not auditor violations), and
// no block is left below its target redundancy.
func (r *planeReport) failedChecks() checks {
	var k checks
	if !r.Audit.Clean {
		k.failf("auditor reports %d violation(s)", r.Audit.Total())
	}
	if r.Progress.BlocksAtRisk > 0 {
		k.failf("progress tracker ends with %d block(s) at risk", r.Progress.BlocksAtRisk)
	}
	return k
}

// histogramMeans reads the copied histograms out of the registry.
func histogramMeans(reg *telemetry.Registry) map[string]float64 {
	want := make(map[string]bool, len(copiedHistograms))
	for _, n := range copiedHistograms {
		want[n] = true
	}
	out := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		if !want[fam.Name] {
			continue
		}
		var count uint64
		var sum float64
		for _, s := range fam.Series {
			count += s.Count
			sum += s.Sum
		}
		if count > 0 {
			out[fam.Name] = sum / float64(count)
		}
	}
	return out
}
