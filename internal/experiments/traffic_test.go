package experiments

import (
	"strings"
	"testing"
)

// TestRunTrafficConsistency runs the write/encode/delete/repair breakdown
// for both policies on the gather arm and pins the cross-checks: the journal-derived byte
// totals agree with the fabric counters within 1%, every phase appears, the
// encode and repair phases move bytes, and an EAR run's delete phase is the
// paper's headline — zero transfers, because no post-encoding relocation is
// ever needed.
func TestRunTrafficConsistency(t *testing.T) {
	opts := fastTestbed()
	for _, policy := range []string{"rr", "ear"} {
		res, err := RunTraffic(opts, policy, 6, 4, Gather)
		if err != nil {
			t.Fatalf("RunTraffic %s: %v", policy, err)
		}
		if res.MaxDiscrepancy > 0.01 {
			t.Errorf("%s: journal vs fabric discrepancy %.4f exceeds 1%%", policy, res.MaxDiscrepancy)
		}
		if len(res.Phases) != 4 {
			t.Fatalf("%s: phases = %d, want write/encode/delete/repair", policy, len(res.Phases))
		}
		byName := map[string]PhaseTraffic{}
		for _, p := range res.Phases {
			byName[p.Phase] = p
		}
		for _, name := range []string{"write", "encode", "delete", "repair"} {
			if _, ok := byName[name]; !ok {
				t.Fatalf("%s: missing %s phase: %+v", policy, name, res.Phases)
			}
		}
		if w := byName["write"]; w.Transfers == 0 || w.CrossRackBytes+w.IntraRackBytes == 0 {
			t.Errorf("%s: write phase moved nothing: %+v", policy, w)
		}
		if e := byName["encode"]; e.CrossRackBytes+e.IntraRackBytes == 0 {
			t.Errorf("%s: encode phase moved nothing: %+v", policy, e)
		}
		if d := byName["delete"]; policy == "ear" && (d.Transfers != 0 || d.CrossRackBytes != 0 || d.IntraRackBytes != 0) {
			t.Errorf("ear: delete phase relocated blocks, want none: %+v", d)
		}
		if r := byName["repair"]; r.Transfers == 0 || r.CrossRackBytes+r.IntraRackBytes == 0 {
			t.Errorf("%s: repair phase moved nothing: %+v", policy, r)
		}
		if res.Summary == nil {
			t.Errorf("%s: no summary table", policy)
		}
	}
}

// TestRunTrafficPipelined pins the chained-transfer accounting of the
// pipelined encode path: every partial-sum hop runs over a real fabric
// stream that journals itself against the links it traverses, so the
// journal-derived byte totals still agree with the fabric counters within
// 1% when the encode phase is a chain of per-hop streams instead of a
// star of gather downloads.
func TestRunTrafficPipelined(t *testing.T) {
	opts := fastTestbed()
	for _, policy := range []string{"rr", "ear"} {
		res, err := RunTraffic(opts, policy, 6, 4, Chain)
		if err != nil {
			t.Fatalf("RunTraffic %s pipelined: %v", policy, err)
		}
		if res.MaxDiscrepancy > 0.01 {
			t.Errorf("%s pipelined: journal vs fabric discrepancy %.4f exceeds 1%%", policy, res.MaxDiscrepancy)
		}
		byName := map[string]PhaseTraffic{}
		for _, p := range res.Phases {
			byName[p.Phase] = p
		}
		if e := byName["encode"]; e.Transfers == 0 || e.CrossRackBytes+e.IntraRackBytes == 0 {
			t.Errorf("%s pipelined: encode phase moved nothing: %+v", policy, e)
		}
		if r := byName["repair"]; r.Transfers == 0 || r.CrossRackBytes+r.IntraRackBytes == 0 {
			t.Errorf("%s: repair phase moved nothing: %+v", policy, r)
		}
		if res.Summary == nil || !strings.Contains(res.Summary.Caption, "pipelined") {
			t.Errorf("%s: summary caption does not name the pipelined encode", policy)
		}
	}
}
