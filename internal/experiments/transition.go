package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/progress"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// TransitionOptions configures the transition-observability experiment.
type TransitionOptions struct {
	TestbedOptions
	// Tenants is how many distinct tenants the write workload is spread
	// across, round-robin (default 3).
	Tenants int
}

func (o TransitionOptions) withDefaults() TransitionOptions {
	o.TestbedOptions = o.TestbedOptions.withDefaults()
	if o.Tenants == 0 {
		o.Tenants = 3
	}
	return o
}

// PolicyTransition is one policy's view of the transition: the progress
// tracker's final report, the auditor's verdict, and the per-tenant
// accounting cross-checked against the fabric's own byte counters.
type PolicyTransition struct {
	Policy   string               `json:"policy"`
	Progress progress.Report      `json:"progress"`
	Audit    audit.Report         `json:"audit"`
	Tenants  []tenant.TenantStats `json:"tenants"`

	// FabricCrossBytes/FabricIntraBytes are the fabric's own payload
	// counters for the run; TenantByteDiscrepancy is the relative error of
	// the per-tenant fabric attribution against them (0 = exact).
	FabricCrossBytes      int64   `json:"fabric_cross_bytes"`
	FabricIntraBytes      int64   `json:"fabric_intra_bytes"`
	TenantByteDiscrepancy float64 `json:"tenant_byte_discrepancy"`
}

// TransitionResult carries both policies' transition reports plus the
// summary table.
type TransitionResult struct {
	Summary *Table
	Runs    []PolicyTransition
}

// runTransitionPolicy drives one policy through a full
// replication-to-erasure-coding transition with the progress tracker,
// auditor and tenant accounting attached, and returns the combined report.
func runTransitionPolicy(opts TransitionOptions, policy string) (PolicyTransition, error) {
	res := PolicyTransition{Policy: policy}
	cfg := opts.clusterConfig(policy, 10, 8)
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		return res, err
	}
	defer c.Close()
	opts.apply(c)

	// The planes a TestbedOptions.ClusterHook attached (earexp -audit
	// and friends) are reused, not doubled.
	pl := planes.Attach(c, planes.Audit|planes.Progress)

	// Populate with tenant-tagged writes, round-robin across the tenant
	// set, until the requested stripes seal. Unthrottled like populate();
	// the tenant table charges bytes, not time.
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		return res, err
	}
	if err := c.Fabric().SetDiskRates(64 << 30); err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(opts.Seed + 88))
	payload := make([]byte, cfg.BlockSizeBytes)
	maxBlocks := opts.Stripes * cfg.K * 10
	written := 0
	for c.NameNode().PendingStripeCount() < opts.Stripes {
		if written >= maxBlocks {
			return res, fmt.Errorf("%w: %d blocks written without sealing %d stripes",
				ErrBadOptions, written, opts.Stripes)
		}
		rng.Read(payload)
		ctx := tenant.NewContext(context.Background(), fmt.Sprintf("tenant-%d", written%opts.Tenants))
		client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
		if _, err := c.WriteBlockCtx(ctx, client, payload); err != nil {
			return res, err
		}
		written++
	}
	if err := c.Fabric().SetAllRates(cfg.BandwidthBytesPerSec); err != nil {
		return res, err
	}
	if d := cfg.DiskBandwidthBytesPerSec; d > 0 {
		if err := c.Fabric().SetDiskRates(d); err != nil {
			return res, err
		}
	}

	mid := pl.Tracker.Report()
	if mid.FractionEncoded != 0 {
		return res, fmt.Errorf("progress tracker reports %.2f encoded before the transition started",
			mid.FractionEncoded)
	}
	if _, err := Chain.encodeAll(c); err != nil {
		return res, err
	}
	if err := settlePlacement(c); err != nil {
		return res, err
	}

	res.Progress = pl.Tracker.Report()
	res.Audit = pl.Auditor.Report()
	res.Tenants = c.Tenants().Snapshot()
	snap := c.Fabric().Snapshot()
	res.FabricCrossBytes = snap.CrossRackBytes
	res.FabricIntraBytes = snap.IntraRackBytes
	var attributed int64
	for _, ts := range res.Tenants {
		attributed += ts.CrossRackBytes + ts.IntraRackBytes
	}
	if total := res.FabricCrossBytes + res.FabricIntraBytes; total > 0 {
		res.TenantByteDiscrepancy = float64(attributed-total) / float64(total)
		if res.TenantByteDiscrepancy < 0 {
			res.TenantByteDiscrepancy = -res.TenantByteDiscrepancy
		}
	}
	return res, nil
}

// RunTransition drives a full replication-to-erasure-coding transition
// under both policies with the whole observability plane attached: the
// progress tracker must reach 100% encoded with no residual at-risk
// blocks, its exposure windows must agree with the invariant auditor, and
// the per-tenant byte attribution must account for the fabric's totals.
func RunTransition(opts TransitionOptions) (*TransitionResult, error) {
	opts = opts.withDefaults()
	res := &TransitionResult{}
	t := &Table{
		ID:      "transition",
		Caption: "Transition progress, durability exposure and per-tenant accounting",
		Headers: []string{"policy", "stripes", "encoded", "exposure windows", "exposure (s)", "at risk now", "tenants", "byte discrepancy"},
		Notes: []string{
			fmt.Sprintf("%d tenants round-robin over the write workload; discrepancy is per-tenant fabric attribution vs fabric totals",
				opts.Tenants),
		},
	}
	for _, policy := range []string{"rr", "ear"} {
		run, err := runTransitionPolicy(opts, policy)
		if err != nil {
			return nil, fmt.Errorf("transition %s: %w", policy, err)
		}
		p := run.Progress
		if p.FractionEncoded != 1 {
			return nil, fmt.Errorf("transition %s: finished at %.3f encoded, want 1.0", policy, p.FractionEncoded)
		}
		if p.BlocksAtRisk != 0 {
			return nil, fmt.Errorf("transition %s: %d blocks still at risk after transition", policy, p.BlocksAtRisk)
		}
		if run.TenantByteDiscrepancy > 0.01 {
			return nil, fmt.Errorf("transition %s: tenant byte attribution off by %.2f%%",
				policy, 100*run.TenantByteDiscrepancy)
		}
		t.AddRow(policy,
			fmt.Sprintf("%d", p.TotalStripes),
			fmt.Sprintf("%d", p.EncodedStripes),
			fmt.Sprintf("%d", len(p.ExposureWindows)),
			f3(p.TotalExposureSeconds),
			fmt.Sprintf("%d", p.BlocksAtRisk),
			fmt.Sprintf("%d", len(run.Tenants)),
			fmt.Sprintf("%.4f%%", 100*run.TenantByteDiscrepancy))
		res.Runs = append(res.Runs, run)
	}
	res.Summary = t
	return res, nil
}
