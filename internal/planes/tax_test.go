package planes

import (
	"context"
	"testing"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/telemetry/slo"
	"ear/internal/topology"
)

// taxCluster is the lifecycle benchmark's geometry — (14,12) on 4x4, four
// blocks of a stripe per rack, r = 2 — with 64 KiB blocks on an unshaped
// fabric, journaled and instrumented.
func taxCluster(b *testing.B) (*hdfs.Cluster, *events.Journal) {
	b.Helper()
	c, err := hdfs.NewCluster(hdfs.Config{
		Racks: 4, NodesPerRack: 4, Policy: "ear", Replicas: 2,
		K: 12, N: 14, C: 4, BlockSizeBytes: 64 << 10,
		BandwidthBytesPerSec: 1 << 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	j := events.NewJournal(0)
	c.SetJournal(j)
	c.SetTelemetry(telemetry.NewRegistry())
	return c, j
}

// lifecycleStream runs one lifecycle round — 4 stripes written, sealed and
// encoded, the busiest node killed and recovered — and returns its journal.
func lifecycleStream(b *testing.B) (*hdfs.Cluster, []events.Event) {
	b.Helper()
	c, j := taxCluster(b)
	data := make([]byte, c.Config().BlockSizeBytes)
	for i := 0; i < 4*c.Config().K; i++ {
		if _, err := c.WriteBlock(topology.NodeID(i%c.Topology().Nodes()), data); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		b.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		b.Fatal(err)
	}
	c.NameNode().MarkDead(5)
	if _, err := c.RecoverNode(context.Background(), 5); err != nil {
		b.Fatal(err)
	}
	return c, j.Snapshot()
}

// BenchmarkPlaneTax prices each plane's own work, one plane at a time, in
// the unit its cost scales with. A fold (auditor, tracker, health monitor)
// runs under the journal lock on every event, so it is priced per event: an
// op replays one lifecycle round's journal into a fresh plane, reported as
// ns/event. A periodic plane (health probes, fabric sampler, SLO tracker)
// costs one step a period whatever the traffic, so an op is one step:
// ns/op, which over the plane's period is its share of one core. The
// fabric is unshaped so no step waits on a link.
//
//	go test -run '^$' -bench PlaneTax -count 5 ./internal/planes
func BenchmarkPlaneTax(b *testing.B) {
	c, stream := lifecycleStream(b)
	cfg := c.Config()
	for _, f := range []struct {
		name string
		new  func() fold
	}{
		{"fold=audit", func() fold {
			return audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
		}},
		{"fold=progress", func() fold { return progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy}) }},
		{"fold=health", func() fold { return hdfs.NewHealthMonitor(c) }},
	} {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := f.new()
				for _, e := range stream {
					p.Observe(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/event")
			b.ReportMetric(float64(len(stream)), "events/round")
		})
	}

	ctx := context.Background()
	h := hdfs.NewHealthMonitor(c)
	smp := fabric.NewSampler(c.Fabric(), fabric.DefaultSampleInterval)
	tr := slo.NewTracker(c.Telemetry(), SLOInterval)
	for _, obj := range slo.DefaultObjectives(sloWindow) {
		if err := tr.Add(obj); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []struct {
		name string
		step func()
	}{
		{"step=health", func() { h.Tick(ctx) }},
		{"step=timeline", smp.Sample},
		{"step=slo", tr.Sample},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.step()
			}
		})
	}
}
