package experiments

import (
	"reflect"
	"testing"

	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/progress"
)

// TestRunTransition is the end-to-end check of the progress & accounting
// plane: a testbed run must drive the tracker from 0 to 100% encoded with
// no residual at-risk blocks, its durability-exposure windows must agree
// with the invariant auditor's transient-violation windows, and per-tenant
// byte attribution must reproduce the fabric's own totals within 1%.
func TestRunTransition(t *testing.T) {
	res, err := RunTransition(TransitionOptions{TestbedOptions: fastTestbed(), Tenants: 3})
	if err != nil {
		t.Fatalf("RunTransition: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want rr and ear", len(res.Runs))
	}
	for _, run := range res.Runs {
		p := run.Progress
		if p.FractionEncoded != 1 || p.EncodedStripes != p.TotalStripes || p.TotalStripes == 0 {
			t.Errorf("%s: progress %d/%d (%.3f), want complete", run.Policy,
				p.EncodedStripes, p.TotalStripes, p.FractionEncoded)
		}
		if p.BacklogStripes != 0 || p.BacklogBytes != 0 {
			t.Errorf("%s: residual backlog %d stripes / %d bytes", run.Policy,
				p.BacklogStripes, p.BacklogBytes)
		}
		if p.BlocksAtRisk != 0 {
			t.Errorf("%s: %d blocks still at risk", run.Policy, p.BlocksAtRisk)
		}
		if len(p.Curve) == 0 || p.Curve[len(p.Curve)-1].Fraction != 1 {
			t.Errorf("%s: progress curve missing or incomplete", run.Policy)
		}

		// Every exposure window resolved, and the set matches the auditor's
		// replica-count / partial-delete verdict window for window.
		type win struct {
			inv              string
			opened, resolved uint64
		}
		got := map[win]bool{}
		for _, w := range p.ExposureWindows {
			if !w.Resolved() {
				t.Errorf("%s: unresolved exposure window %+v", run.Policy, w)
			}
			got[win{w.Invariant, w.OpenedSeq, w.ResolvedSeq}] = true
		}
		want := map[win]bool{}
		for _, v := range append(run.Audit.Transient, run.Audit.Ongoing...) {
			if v.Invariant != audit.InvReplicaCount && v.Invariant != audit.InvPartialDelete {
				continue
			}
			want[win{string(v.Invariant), v.OpenedSeq, v.ResolvedSeq}] = true
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d exposure windows vs %d auditor windows", run.Policy, len(got), len(want))
		}
		for w := range want {
			if !got[w] {
				t.Errorf("%s: auditor window %+v missing from progress report", run.Policy, w)
			}
		}

		// The auditor must have no standing violations — transients during
		// the transition are expected (they are the exposure windows), but
		// every one of them must have resolved.
		if len(run.Audit.Ongoing) != 0 {
			t.Errorf("%s: %d ongoing violations after transition: %+v",
				run.Policy, len(run.Audit.Ongoing), run.Audit.Ongoing)
		}

		// Per-tenant accounting: all three tenants present, byte
		// attribution within 1% of fabric totals (exact by construction).
		if run.TenantByteDiscrepancy > 0.01 {
			t.Errorf("%s: tenant byte discrepancy %.4f > 1%%", run.Policy, run.TenantByteDiscrepancy)
		}
		named := map[string]bool{}
		var fabricAttr int64
		for _, ts := range run.Tenants {
			named[ts.Tenant] = true
			fabricAttr += ts.CrossRackBytes + ts.IntraRackBytes
		}
		for _, want := range []string{"tenant-0", "tenant-1", "tenant-2"} {
			if !named[want] {
				t.Errorf("%s: tenant %s missing from snapshot (have %v)", run.Policy, want, named)
			}
		}
		if total := run.FabricCrossBytes + run.FabricIntraBytes; fabricAttr != total {
			t.Logf("%s: attributed %d vs fabric %d (within tolerance %.4f)",
				run.Policy, fabricAttr, total, run.TenantByteDiscrepancy)
		}
	}
	if len(res.Summary.Rows) != 2 {
		t.Fatalf("summary rows = %d", len(res.Summary.Rows))
	}
}

// TestTransitionProgressReportShape spot-checks the mid-run invariant the
// experiment relies on: a fresh tracker reports zero progress.
func TestTransitionProgressReportShape(t *testing.T) {
	p := progress.New(progress.Config{Replicas: 2, Policy: "ear"})
	rep := p.Report()
	if rep.FractionEncoded != 0 || rep.TotalStripes != 0 || rep.ETASeconds != 0 {
		t.Fatalf("fresh tracker not empty: %+v", rep)
	}
}

// TestExperimentReusesHookPlanes is earexp's double attach: the cluster
// hook attaches an auditor, then RunNodeFail asks for an auditor and a
// tracker. The experiment must read the hook's auditor and add its tracker to
// the hook's set, one of each on the journal, so both handles report the same.
func TestExperimentReusesHookPlanes(t *testing.T) {
	var hooked *planes.Set
	var hookedAuditor *audit.Auditor
	opts := fastTestbed()
	opts.ClusterHook = func(c *hdfs.Cluster) {
		hooked = planes.Attach(c, planes.Audit)
		hookedAuditor = hooked.Auditor
	}
	res, err := RunNodeFail(opts)
	if err != nil {
		t.Fatalf("RunNodeFail: %v", err)
	}
	if hooked == nil || hooked.Auditor != hookedAuditor {
		t.Fatal("the experiment replaced the hook's auditor")
	}
	if hooked.Tracker == nil {
		t.Fatal("the experiment's tracker did not join the hook's set")
	}
	if got := hooked.Auditor.Report(); !reflect.DeepEqual(got, res.Audit) {
		t.Errorf("audit reports differ:\nhook       %+v\nexperiment %+v", got, res.Audit)
	}
	got := hooked.Tracker.Report()
	if got.Events != res.Progress.Events || got.Events != hooked.Journal.Seq() {
		t.Errorf("tracker saw %d events by the hook's handle, %d by the experiment's, journal has %d",
			got.Events, res.Progress.Events, hooked.Journal.Seq())
	}
	if len(got.ExposureWindows) == 0 || len(got.ExposureWindows) != len(res.Progress.ExposureWindows) {
		t.Fatalf("exposure windows: hook %d, experiment %d, want equal and > 0 (a node died)",
			len(got.ExposureWindows), len(res.Progress.ExposureWindows))
	}
	for i, w := range got.ExposureWindows {
		if e := res.Progress.ExposureWindows[i]; w.OpenedSeq != e.OpenedSeq || w.ResolvedSeq != e.ResolvedSeq || w.Block != e.Block {
			t.Errorf("window %d: hook %+v, experiment %+v", i, w, e)
		}
	}
}
