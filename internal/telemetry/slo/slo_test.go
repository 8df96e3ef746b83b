package slo

import (
	"math"
	"testing"
	"time"

	"ear/internal/telemetry"
)

// stepTracker builds a one-objective tracker over the given histogram
// bounds, primed with one empty sample.
func stepTracker(t *testing.T, obj Objective, bounds []float64) (*Tracker, *telemetry.Metric) {
	t.Helper()
	reg := telemetry.NewRegistry()
	h := reg.Histogram(obj.Metric, "test latency", bounds).With()
	tr := NewTracker(reg, 100*time.Millisecond)
	if err := tr.Add(obj); err != nil {
		t.Fatalf("Add: %v", err)
	}
	tr.Sample() // prime: establishes the cumulative baseline
	return tr, h
}

func TestObjectiveValidation(t *testing.T) {
	tr := NewTracker(telemetry.NewRegistry(), time.Second)
	bad := []Objective{
		{Name: "no-metric", Quantile: 0.99, Threshold: 1, Window: time.Minute},
		{Name: "q0", Metric: "m", Quantile: 0, Threshold: 1, Window: time.Minute},
		{Name: "q1", Metric: "m", Quantile: 1, Threshold: 1, Window: time.Minute},
		{Name: "thr", Metric: "m", Quantile: 0.9, Threshold: 0, Window: time.Minute},
		{Name: "win", Metric: "m", Quantile: 0.9, Threshold: 1, Window: 0},
	}
	for _, obj := range bad {
		if err := tr.Add(obj); err == nil {
			t.Errorf("Add(%s): expected error", obj.Name)
		}
	}
	if err := tr.Add(Objective{Name: "ok", Metric: "m", Quantile: 0.99,
		Threshold: 0.1, Window: time.Minute}); err != nil {
		t.Errorf("Add(ok): %v", err)
	}
}

func TestEmptyWindowReport(t *testing.T) {
	obj := Objective{Name: "op", Metric: "op_seconds", Quantile: 0.99,
		Threshold: 0.5, Window: time.Second}
	tr, _ := stepTracker(t, obj, []float64{0.1, 1})
	st := tr.Report()[0]
	if st.Ops != 0 || st.Slow != 0 || st.BurnRate != 0 {
		t.Errorf("empty window: ops=%v slow=%v burn=%v, want zeros", st.Ops, st.Slow, st.BurnRate)
	}
	if !st.Met || st.BudgetRemaining != 1 {
		t.Errorf("empty window: met=%v budget=%v, want met with full budget", st.Met, st.BudgetRemaining)
	}
	if st.Filled {
		t.Error("window reported filled after one sample of ten")
	}
}

func TestBurnRateAndBudget(t *testing.T) {
	// q=0.9 allows 10% slow. Observe 100 ops, 20 of them slow: slow ratio
	// 0.2, burn rate 2.0, budget -1.
	obj := Objective{Name: "op", Metric: "op_seconds", Quantile: 0.9,
		Threshold: 1.0, Window: time.Second}
	tr, h := stepTracker(t, obj, []float64{1.0, 10.0})
	for i := 0; i < 80; i++ {
		h.Observe(0.5) // fast: at or below threshold
	}
	for i := 0; i < 20; i++ {
		h.Observe(5.0) // slow
	}
	tr.Sample()
	st := tr.Report()[0]
	if st.Ops != 100 {
		t.Fatalf("ops = %v, want 100", st.Ops)
	}
	if math.Abs(st.Slow-20) > 1e-9 {
		t.Errorf("slow = %v, want 20", st.Slow)
	}
	if math.Abs(st.BurnRate-2.0) > 1e-9 {
		t.Errorf("burn rate = %v, want 2.0", st.BurnRate)
	}
	if math.Abs(st.BudgetRemaining+1.0) > 1e-9 {
		t.Errorf("budget remaining = %v, want -1.0", st.BudgetRemaining)
	}
	if st.Met {
		t.Error("objective reported met at burn rate 2.0")
	}
}

func TestThresholdInterpolationWithinBucket(t *testing.T) {
	// All 100 ops land in the (1, 2] bucket; threshold 1.5 sits halfway, so
	// interpolation says half the bucket is fast.
	obj := Objective{Name: "op", Metric: "op_seconds", Quantile: 0.5,
		Threshold: 1.5, Window: time.Second}
	tr, h := stepTracker(t, obj, []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.7)
	}
	tr.Sample()
	st := tr.Report()[0]
	if math.Abs(st.Slow-50) > 1e-9 {
		t.Errorf("interpolated slow = %v, want 50", st.Slow)
	}
	// Quantile estimate: median of mass uniformly spread over (1, 2] is 1.5.
	if math.Abs(st.QuantileEstimate-1.5) > 1e-9 {
		t.Errorf("quantile estimate = %v, want 1.5", st.QuantileEstimate)
	}
}

func TestOverflowBucketCountsSlow(t *testing.T) {
	// Ops beyond the highest finite bound have unknown latency and must
	// count as slow even when the threshold exceeds that bound.
	obj := Objective{Name: "op", Metric: "op_seconds", Quantile: 0.5,
		Threshold: 100, Window: time.Second}
	tr, h := stepTracker(t, obj, []float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(500) // overflow bucket
	}
	tr.Sample()
	st := tr.Report()[0]
	if st.Slow != 10 {
		t.Errorf("overflow slow = %v, want 10", st.Slow)
	}
}

func TestWindowSlidesOldSamplesOut(t *testing.T) {
	// Window = 3 intervals. A burst in interval 1 must leave the window
	// after three further samples.
	obj := Objective{Name: "op", Metric: "op_seconds", Quantile: 0.9,
		Threshold: 1.0, Window: 300 * time.Millisecond}
	tr, h := stepTracker(t, obj, []float64{1, 10})
	for i := 0; i < 30; i++ {
		h.Observe(5.0) // burst of slow ops
	}
	tr.Sample()
	if st := tr.Report()[0]; st.Ops != 30 || !st.Met == false && st.BurnRate <= 1 {
		if st.Ops != 30 {
			t.Fatalf("ops after burst = %v, want 30", st.Ops)
		}
	}
	tr.Sample()
	tr.Sample()
	if st := tr.Report()[0]; st.Ops != 30 {
		t.Errorf("burst still inside 3-slot window: ops = %v, want 30", st.Ops)
	}
	tr.Sample() // burst slot overwritten
	st := tr.Report()[0]
	if st.Ops != 0 {
		t.Errorf("burst should have slid out: ops = %v, want 0", st.Ops)
	}
	if !st.Met {
		t.Error("objective not met over an empty window")
	}
	if !st.Filled {
		t.Error("window not reported filled after slots+1 samples")
	}
}

func TestMissingFamilyThenAppearing(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracker(reg, 100*time.Millisecond)
	if err := tr.Add(Objective{Name: "op", Metric: "late_seconds",
		Quantile: 0.9, Threshold: 1, Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	tr.Sample() // family does not exist yet
	if st := tr.Report()[0]; st.Ops != 0 {
		t.Fatalf("missing family: ops = %v, want 0", st.Ops)
	}
	h := reg.Histogram("late_seconds", "", []float64{1, 10}).With()
	h.Observe(0.5)
	tr.Sample() // first sight primes the baseline (the pre-registration op is history)
	h.Observe(0.5)
	h.Observe(0.5)
	tr.Sample()
	if st := tr.Report()[0]; st.Ops != 2 {
		t.Errorf("ops after family appeared = %v, want 2 (post-prime only)", st.Ops)
	}
}

func TestLabelSelectorSumsMatchingSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	fam := reg.Histogram("rpc_seconds", "", []float64{1, 10}, "op")
	fast := fam.With("read")
	slow := fam.With("write")
	tr := NewTracker(reg, 100*time.Millisecond)
	if err := tr.Add(Objective{Name: "reads", Metric: "rpc_seconds",
		Labels:   map[string]string{"op": "read"},
		Quantile: 0.9, Threshold: 1, Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(Objective{Name: "all", Metric: "rpc_seconds",
		Quantile: 0.9, Threshold: 1, Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	tr.Sample()
	for i := 0; i < 4; i++ {
		fast.Observe(0.5)
	}
	for i := 0; i < 6; i++ {
		slow.Observe(5)
	}
	tr.Sample()
	rep := tr.Report()
	if rep[0].Ops != 4 {
		t.Errorf("label-selected ops = %v, want 4", rep[0].Ops)
	}
	if rep[0].Slow != 0 {
		t.Errorf("label-selected slow = %v, want 0", rep[0].Slow)
	}
	if rep[1].Ops != 10 || rep[1].Slow != 6 {
		t.Errorf("unselected ops/slow = %v/%v, want 10/6", rep[1].Ops, rep[1].Slow)
	}
}

func TestDefaultObjectivesCoverCoreOps(t *testing.T) {
	objs := DefaultObjectives(time.Minute)
	want := map[string]string{
		"AllocateBlock": "namenode_alloc_seconds",
		"WriteBlock":    "hdfs_client_write_seconds",
		"ReadBlock":     "hdfs_client_read_seconds",
		"EncodeStripe":  "raidnode_stripe_encode_seconds",
		"RepairBlock":   "hdfs_repair_seconds",
	}
	if len(objs) != len(want) {
		t.Fatalf("DefaultObjectives: %d objectives, want %d", len(objs), len(want))
	}
	reg := telemetry.NewRegistry()
	tr := NewTracker(reg, 100*time.Millisecond)
	for _, obj := range objs {
		metric, ok := want[obj.Name]
		if !ok {
			t.Errorf("unexpected objective %q", obj.Name)
			continue
		}
		if obj.Metric != metric {
			t.Errorf("%s metric = %q, want %q", obj.Name, obj.Metric, metric)
		}
		if obj.Window != time.Minute {
			t.Errorf("%s window = %v, want 1m", obj.Name, obj.Window)
		}
		if err := tr.Add(obj); err != nil {
			t.Errorf("Add(%s): %v", obj.Name, err)
		}
	}
}
