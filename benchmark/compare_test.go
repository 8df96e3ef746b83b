package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runLines builds a -out file: one run per value, each holding one workload
// with the given end-to-end metrics.
func runLines(t *testing.T, workload string, attempted, failed int, metrics map[string][]float64) string {
	t.Helper()
	var buf bytes.Buffer
	runs := 0
	for _, xs := range metrics {
		runs = max(runs, len(xs))
	}
	for i := 0; i < runs; i++ {
		res := &result{Workload: workload, OpsAttempted: attempted, OpsFailed: failed, EndToEnd: metricSet{}}
		for name, xs := range metrics {
			res.EndToEnd[name] = value{Value: xs[i], Unit: specByName(name).Unit}
		}
		line, err := json.Marshal(runRecord{Seed: int64(i), Results: []*result{res}})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.String()
}

func mustSet(t *testing.T, lines string) *runSet {
	t.Helper()
	rs, err := readRunSet(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func verdicts(rows []row) map[string]string {
	out := make(map[string]string)
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	flat := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}

	a := mustSet(t, runLines(t, wlShaped, 1000, 0, map[string][]float64{
		"lifecycle_s":                steady, // lower is better, bound 5%
		"encode_mbps":                steady, // higher is better, bound 10%
		"read_mbps":                  steady,
		"write_p50_ms":               noisy,
		"stored_bytes_per_user_byte": flat,
	}))
	b := mustSet(t, runLines(t, wlShaped, 1000, 0, map[string][]float64{
		"lifecycle_s":                scale(steady, 1.08), // 8% slower
		"encode_mbps":                scale(steady, 0.85), // 15% less throughput
		"read_mbps":                  scale(steady, 1.20), // better
		"write_p50_ms":               scale(noisy, 1.02),  // inside its own spread
		"stored_bytes_per_user_byte": scale(flat, 1.01),   // inside its 2% bound
	}))
	got := verdicts(compareSets(a, b))
	want := map[string]string{
		wlShaped + "/lifecycle_s":                verdictRegressed,
		wlShaped + "/encode_mbps":                verdictRegressed,
		wlShaped + "/read_mbps":                  verdictOK,
		wlShaped + "/write_p50_ms":               verdictUnresolved,
		wlShaped + "/stored_bytes_per_user_byte": verdictOK,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows = %v, want exactly %v", got, want)
	}

	var out bytes.Buffer
	if code := printComparison(a, b, "a", "b", &out); code != 1 {
		t.Errorf("exit code %d with regressed rows, want 1\n%s", code, out.String())
	}
	for _, needle := range []string{"b/a", "1.0800", "+8.00%", "5%", "regressed", "unresolved"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("comparison output lacks %q:\n%s", needle, out.String())
		}
	}
	out.Reset()
	if code := printComparison(a, a, "a", "a", &out); code != 0 {
		t.Errorf("exit code %d comparing a set with itself, want 0\n%s", code, out.String())
	}
}

func TestCompareJudge(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		worse, sa, sb, bound float64
		want                 string
	}{
		{"inside bound", 0.03, 0.01, 0.01, 0.05, verdictOK},
		{"better", -0.30, 0.01, 0.01, 0.05, verdictOK},
		{"past bound", 0.06, 0.01, 0.01, 0.05, verdictRegressed},
		{"past bound but inside the noise", 0.06, 0.01, 0.09, 0.05, verdictUnresolved},
		{"noisy and unchanged is not ok", 0.00, 0.08, 0.01, 0.05, verdictUnresolved},
		{"past bound and past the noise", 0.20, 0.08, 0.08, 0.05, verdictRegressed},
		{"not gated", 0.50, 0.01, 0.01, 0, verdictReported},
	} {
		if got := judge(tc.worse, tc.sa, tc.sb, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFailureRatio(t *testing.T) {
	m := map[string][]float64{"meta_ops_per_s": {300000, 301000, 299000}}
	a := mustSet(t, runLines(t, wlMetadata, 1000, 0, m))
	b := mustSet(t, runLines(t, wlMetadata, 1000, 2, m))
	var out bytes.Buffer
	if code := printComparison(a, b, "a", "b", &out); code != 1 {
		t.Errorf("exit code %d when b fails more ops, want 1\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(b, a, "b", "a", &out); code != 0 {
		t.Errorf("exit code %d when b fails fewer ops, want 0\n%s", code, out.String())
	}
}

func TestCompareSkipsTracedRunsAndUsesWithinRunSpread(t *testing.T) {
	traced, err := json.Marshal(runRecord{Trace: true, Results: []*result{{
		Workload: wlMetadata, OpsAttempted: 10, EndToEnd: metricSet{"meta_ops_per_s": {Value: 1, Unit: "1/s"}}}}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := json.Marshal(runRecord{Results: []*result{{
		Workload: wlMetadata, OpsAttempted: 10,
		EndToEnd: metricSet{"meta_ops_per_s": {Value: 100, Unit: "1/s", N: 7, Q1: 80, Q3: 120}}}}})
	if err != nil {
		t.Fatal(err)
	}
	rs := mustSet(t, string(traced)+"\n"+string(single)+"\n")
	if got := rs.values[wlMetadata]["meta_ops_per_s"]; len(got) != 1 || got[0] != 100 {
		t.Fatalf("values = %v, want the untraced run only", got)
	}
	// One run: the spread comes from its own rounds' quartiles, 40% here.
	if got := rs.spreadOf(wlMetadata, "meta_ops_per_s"); !near(got, 0.4) {
		t.Errorf("within-run spread = %v, want 0.4", got)
	}
	rows := compareSets(rs, rs)
	if len(rows) != 1 || rows[0].Verdict != verdictUnresolved {
		t.Errorf("rows = %+v, want one unresolved row", rows)
	}
}
