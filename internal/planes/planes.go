// Package planes is the one attachment point for the planes that derive
// state from a cluster as it runs: the invariant auditor, the transition
// progress tracker and the health monitor (all three fed by the event
// journal), the fabric utilization sampler and the per-tenant accounting
// table. Attach derives every plane's configuration from the cluster's own
// hdfs.Config, keeps the planes with the cluster's journal so that a second
// Attach finds them instead of stacking duplicates, and owns their
// start/stop and the cluster-labelled reports the daemons serve and dump.
package planes

import (
	"fmt"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/progress"
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
)

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
	Tenants  *tenant.Table

	mu sync.Mutex // serializes Attach
}

// Attach makes sure the selected planes exist on c and returns the cluster's
// set: the same one on every call, so a caller that finds an auditor or a
// tracker already attached (say by earexp's cluster hook) reads that one.
// It reuses the cluster's journal or installs a fresh one; events published
// before a plane attached are not replayed to it.
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
	}).(*Set)

	s.mu.Lock()
	defer s.mu.Unlock()
	if which&Audit != 0 && s.Auditor == nil {
		// Stripes grouped without a core rack (RR) skip core-rack-copy by
		// themselves; the policy test only spares them the walk.
		s.Auditor = audit.New(c.Topology(), audit.Config{
			Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: cfg.Policy == "ear",
		})
		s.Auditor.Attach(j)
	}
	if which&Progress != 0 && s.Tracker == nil {
		s.Tracker = progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
		s.Tracker.Attach(j)
	}
	if which&Health != 0 && s.Health == nil {
		s.Health = hdfs.NewHealthMonitor(c)
		s.Health.Start()
	}
	if which&Timeline != 0 && s.Sampler == nil {
		s.Sampler = fabric.NewSampler(c.Fabric(), 0)
		s.Sampler.Start()
	}
	return s
}

// Stop ends the background loops (health probes, fabric sampling); their
// last state stays readable. The journal subscribers need no stop: they go
// with the journal.
func (s *Set) Stop() {
	if s.Health != nil {
		s.Health.Stop()
	}
	if s.Sampler != nil {
		s.Sampler.Stop()
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
