// Package planes is the one attachment point for the planes that derive
// state from a cluster as it runs: the invariant auditor, the transition
// progress tracker and the health monitor (folds of the event journal), the
// fabric utilization sampler, the SLO tracker and the per-tenant accounting
// table.
//
// Every plane is passive. A fold observes the events it is handed and can
// start over (Observe, Reset); a periodic plane steps when it is told to
// (Tick, Sample); each reports on demand. The Set owns everything with a
// lifetime, the same way for every plane: the journal subscriptions, one
// loop per periodic plane, the rebuild from a durable cluster's recovered
// state and the stop. Attach derives every plane's configuration from the
// cluster's own hdfs.Config and keeps the set with the cluster's journal,
// so a second Attach finds the planes instead of stacking duplicates. The
// set keeps no reference to the cluster. Bundle gathers every report in one
// document.
package planes

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/telemetry/slo"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// Which selects planes, OR-ed together.
type Which uint

// The planes. Tenants needs no attachment (the cluster always keeps the
// table); it only selects a report.
const (
	Audit Which = 1 << iota
	Progress
	Health
	Timeline
	Tenants
	SLO
)

// SLOInterval is the SLO plane's sampling period.
const SLOInterval = 2 * time.Second

// sloWindow is the SLO plane's objectives' window.
const sloWindow = time.Minute

// BundleEvents is how many of the journal's last events a bundle carries.
const BundleEvents = 1000

// fold is a plane fed by the journal: it observes every event and can start
// over, which is how it rebuilds from the recovered-state backfill.
type fold interface {
	Observe(events.Event)
	Reset()
}

// Set is one cluster's planes. The plane fields are nil until an Attach asks
// for them; attach at set-up time, before traffic flows and before anything
// reads the Set concurrently.
type Set struct {
	// Label names the cluster in reports ("ear (9,6)"); Policy is its
	// placement policy.
	Label, Policy string
	// Attached is when the first Attach created the set.
	Attached time.Time
	Journal  *events.Journal
	Auditor  *audit.Auditor
	Tracker  *progress.Tracker
	Health   *hdfs.HealthMonitor
	Sampler  *fabric.Sampler
	SLO      *slo.Tracker
	Tenants  *tenant.Table

	mu    sync.Mutex // serializes Attach and Stop
	folds []fold
	// quiet is the journal's Seq while it holds nothing the folds could
	// miss: the Seq when the set was created, then the Seq after each
	// rebuild. Once anything else is published the folds have history a
	// rebuild would wipe, so none runs.
	quiet uint64
	ctx   context.Context // the loops' context; Stop cancels it
	stop  context.CancelFunc
	loops sync.WaitGroup
}

// Attach makes sure the selected planes exist on c and returns the cluster's
// set: the same one on every call, so a caller that finds an auditor or a
// tracker already attached (say by earexp's cluster hook) reads that one.
// It reuses the cluster's journal or installs a fresh one; events published
// before a plane attached are not replayed to it, except on a durable
// cluster that recovered state: there, as long as nothing but the backfill
// has been published since the set was created, every fold starts over
// from the recovered-state backfill whenever Attach adds one. The SLO
// plane samples the cluster's registry, so SetTelemetry must come first.
func Attach(c *hdfs.Cluster, which Which) *Set {
	j := c.Journal()
	if j == nil {
		j = events.NewJournal(0)
		c.SetJournal(j)
	}
	cfg := c.Config()
	s := j.Planes(&Set{
		Label:    fmt.Sprintf("%s (%d,%d)", cfg.Policy, cfg.N, cfg.K),
		Policy:   cfg.Policy,
		Attached: time.Now(),
		Journal:  j,
		Tenants:  c.Tenants(),
		quiet:    j.Seq(),
	}).(*Set)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		s.ctx, s.stop = context.WithCancel(context.Background())
	}
	folds := len(s.folds)
	if which&Audit != 0 && s.Auditor == nil {
		// Stripes grouped without a core rack (RR) skip core-rack-copy by
		// themselves; the policy test only spares them the walk.
		s.Auditor = audit.New(c.Topology(), audit.Config{
			Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: cfg.Policy == "ear",
		})
		s.observe(s.Auditor)
	}
	if which&Progress != 0 && s.Tracker == nil {
		s.Tracker = progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
		s.Tracker.SetTelemetry(c.Telemetry())
		s.observe(s.Tracker)
	}
	if which&Health != 0 && s.Health == nil {
		s.Health = hdfs.NewHealthMonitor(c)
		s.observe(s.Health)
		s.every(hdfs.HealthInterval, s.Health.Tick)
	}
	if which&Timeline != 0 && s.Sampler == nil {
		s.Sampler = fabric.NewSampler(c.Fabric(), fabric.DefaultSampleInterval)
		s.every(fabric.DefaultSampleInterval, func(context.Context) { s.Sampler.Sample() })
	}
	if which&SLO != 0 && s.SLO == nil {
		s.SLO = slo.NewTracker(c.Telemetry(), SLOInterval)
		for _, obj := range slo.DefaultObjectives(sloWindow) {
			if err := s.SLO.Add(obj); err != nil {
				panic(err) // the defaults are valid; slo's tests hold them
			}
		}
		s.every(SLOInterval, func(context.Context) { s.SLO.Sample() })
	}
	if len(s.folds) > folds && c.NameNode().Recovered() && j.Seq() == s.quiet {
		s.rebuild(c.NameNode())
	}
	return s
}

// observe subscribes a fold to the journal (caller holds s.mu). The
// subscription goes with the journal.
func (s *Set) observe(f fold) {
	s.Journal.Subscribe(f.Observe)
	s.folds = append(s.folds, f)
}

// every runs step on a goroutine of its own every period until Stop (caller
// holds s.mu). A plane attached after Stop is never stepped.
func (s *Set) every(period time.Duration, step func(context.Context)) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				step(s.ctx)
			case <-s.ctx.Done():
				return
			}
		}
	}()
}

// rebuild starts every fold over from the NameNode's recovered state
// (caller holds s.mu): the journal ring a restarted process begins with is
// empty, so the backfill is the only history the folds can have. Every fold
// sees it exactly once, however many Attach calls it took to add them.
func (s *Set) rebuild(nn *hdfs.NameNode) {
	for _, f := range s.folds {
		f.Reset()
	}
	nn.PublishRecoveredState(s.Journal)
	s.quiet = s.Journal.Seq()
}

// Stop ends the loops and waits for them, then samples the fabric one last
// time for the partial interval; every report stays readable, and the folds
// keep observing (their subscriptions go with the journal). Stop is final
// and idempotent.
func (s *Set) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return
	}
	s.stop()
	s.loops.Wait()
	if s.Sampler != nil {
		s.Sampler.Sample()
	}
}

// HealthReport is the health plane's report: per-node scores plus the nodes
// currently degraded.
type HealthReport struct {
	Nodes    []hdfs.NodeHealth `json:"nodes"`
	Degraded []topology.NodeID `json:"degraded"`
}

// TenantReport is the accounting plane's report: the per-tenant table plus
// the fabric totals it must add up to.
type TenantReport struct {
	Tenants        []tenant.TenantStats `json:"tenants"`
	CrossRackBytes int64                `json:"cross_rack_bytes"`
	IntraRackBytes int64                `json:"intra_rack_bytes"`
}

// HealthReport reads the health monitor.
func (s *Set) HealthReport() HealthReport {
	r := HealthReport{Nodes: s.Health.Report(), Degraded: s.Health.Degraded()}
	if r.Degraded == nil {
		r.Degraded = []topology.NodeID{} // "degraded": [] rather than null
	}
	return r
}

// TenantReport reads the tenant table.
func (s *Set) TenantReport() TenantReport {
	cross, intra := s.Tenants.FabricTotals()
	return TenantReport{Tenants: s.Tenants.Snapshot(), CrossRackBytes: cross, IntraRackBytes: intra}
}

// Labelled is one cluster's entry in a multi-cluster dump: the auditor's or
// the tracker's report under "report", the health and tenant reports inline.
type Labelled struct {
	Cluster string `json:"cluster"`
	Report  any    `json:"report,omitempty"`
	*HealthReport
	*TenantReport
}

// Report returns the labelled report of one attached plane.
func (s *Set) Report(plane Which) Labelled {
	l := Labelled{Cluster: s.Label}
	switch plane {
	case Audit:
		l.Report = s.Auditor.Report()
	case Progress:
		l.Report = s.Tracker.Report()
	case Health:
		r := s.HealthReport()
		l.HealthReport = &r
	case Tenants:
		r := s.TenantReport()
		l.TenantReport = &r
	}
	return l
}

// Bundle is one cluster's state in one document: the report of every
// attached plane, the tenant table and the journal's last events. It is what
// earfsd serves at /debug/bundle and what earexp -bundle writes when a run
// fails.
type Bundle struct {
	Cluster  string           `json:"cluster"`
	Taken    time.Time        `json:"taken"`
	Audit    *audit.Report    `json:"audit,omitempty"`
	Progress *progress.Report `json:"progress,omitempty"`
	Health   *HealthReport    `json:"health,omitempty"`
	Timeline *fabric.Timeline `json:"timeline,omitempty"`
	SLO      []slo.Status     `json:"slo,omitempty"`
	Tenants  TenantReport     `json:"tenants"`
	// Metrics is filled by the caller that holds the cluster's registry
	// (earfsd, from the registry /metrics serves); the set keeps none.
	Metrics []telemetry.FamilySnapshot `json:"metrics,omitempty"`
	// Seq is the journal's newest sequence number; Events are up to the
	// last BundleEvents events, oldest first.
	Seq    uint64         `json:"seq"`
	Events []events.Event `json:"events"`
}

// Bundle reads every attached plane and the journal's last BundleEvents
// events.
func (s *Set) Bundle() Bundle {
	b := Bundle{Cluster: s.Label, Taken: time.Now(), Tenants: s.TenantReport(), Seq: s.Journal.Seq()}
	if s.Auditor != nil {
		r := s.Auditor.Report()
		b.Audit = &r
	}
	if s.Tracker != nil {
		r := s.Tracker.Report()
		b.Progress = &r
	}
	if s.Health != nil {
		r := s.HealthReport()
		b.Health = &r
	}
	if s.Sampler != nil {
		tl := s.Sampler.Timeline()
		b.Timeline = &tl
	}
	if s.SLO != nil {
		b.SLO = s.SLO.Report()
	}
	var cursor uint64
	if b.Seq > BundleEvents {
		cursor = b.Seq - BundleEvents
	}
	b.Events, _, _ = s.Journal.Since(cursor, BundleEvents, events.Filter{})
	return b
}
