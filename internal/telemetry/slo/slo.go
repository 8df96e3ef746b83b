// Package slo turns the telemetry registry's latency histograms into
// service-level objectives: rolling-window error budgets and burn rates per
// operation.
//
// An Objective says "quantile q of <metric> over the last <window> must stay
// at or below <threshold>". The allowed slow fraction is therefore 1-q: a
// 99th-percentile objective tolerates 1% of operations over the threshold
// before the window's error budget is spent. A Tracker samples the
// cumulative histograms at a fixed interval, keeps one window's worth of
// per-interval deltas in a ring, and reports for each objective the windowed
// operation count, the (bucket-interpolated) slow count, the estimated
// quantile, and the burn rate — the slow fraction divided by the allowed
// fraction, so 1.0 means "spending budget exactly as fast as the objective
// allows" and anything sustained above 1.0 means the objective will be
// violated.
//
// The Tracker reads only public registry snapshots, so it works against any
// histogram family regardless of which subsystem owns it, and sampling cost
// is independent of operation rate. The Tracker is passive: each Sample
// steps the window by one interval, internal/planes calls it every interval
// and tests step it deterministically.
package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ear/internal/telemetry"
)

// Objective is one latency SLO over a histogram family.
type Objective struct {
	// Name labels the objective in reports ("WriteBlock").
	Name string `json:"name"`
	// Metric is the histogram family the objective reads
	// ("hdfs_client_write_seconds").
	Metric string `json:"metric"`
	// Labels optionally narrows the family to series whose labels include
	// every listed pair; matching series are summed. Empty matches all.
	Labels map[string]string `json:"labels,omitempty"`
	// Quantile is the target quantile q in (0, 1), e.g. 0.99. The allowed
	// slow fraction is 1-q.
	Quantile float64 `json:"quantile"`
	// Threshold is the latency bound, in the histogram's unit (seconds for
	// every *_seconds family).
	Threshold float64 `json:"threshold"`
	// Window is the rolling accounting window.
	Window time.Duration `json:"window"`
}

// Status is one objective's windowed accounting.
type Status struct {
	Objective
	// Ops is the number of operations observed in the window.
	Ops float64 `json:"ops"`
	// Slow is the estimated number of windowed operations over the
	// threshold (linear interpolation within the bucket containing it;
	// overflow-bucket operations always count as slow).
	Slow float64 `json:"slow"`
	// SlowRatio is Slow/Ops (0 for an empty window).
	SlowRatio float64 `json:"slow_ratio"`
	// QuantileEstimate is the interpolated q-quantile of the windowed
	// distribution (0 for an empty window).
	QuantileEstimate float64 `json:"quantile_estimate"`
	// BurnRate is SlowRatio/(1-q): the rate at which the error budget is
	// being spent, in budgets-per-window. Sustained > 1 violates the SLO.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is 1 - BurnRate: the fraction of the window's error
	// budget left, negative once the budget is blown.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Met reports whether the objective currently holds (BurnRate <= 1).
	Met bool `json:"met"`
	// Filled reports whether a full window of samples has accumulated;
	// until then the figures cover a shorter period.
	Filled bool `json:"filled"`
}

// slot is one sampling interval's histogram delta.
type slot struct {
	ops     float64
	buckets []float64 // cumulative per bound, same shape as the snapshot
}

// tracked is one objective plus its sampling state.
type tracked struct {
	obj    Objective
	slots  int
	ring   []slot
	next   int
	filled int

	primed  bool
	lastOps float64
	lastCum []float64
	bounds  []float64
}

// Tracker samples a registry and maintains rolling windows for a set of
// objectives. All methods are safe for concurrent use.
type Tracker struct {
	reg      *telemetry.Registry
	interval time.Duration

	mu   sync.Mutex
	objs []*tracked
}

// NewTracker creates a tracker of reg sampled every interval (minimum 10ms;
// values below are raised to it).
func NewTracker(reg *telemetry.Registry, interval time.Duration) *Tracker {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	return &Tracker{reg: reg, interval: interval}
}

// Add registers an objective. The window is divided into
// round(Window/interval) ring slots (minimum 1).
func (t *Tracker) Add(obj Objective) error {
	if obj.Metric == "" {
		return fmt.Errorf("slo: objective %q has no metric", obj.Name)
	}
	if obj.Quantile <= 0 || obj.Quantile >= 1 {
		return fmt.Errorf("slo: objective %q quantile %v outside (0,1)", obj.Name, obj.Quantile)
	}
	if obj.Threshold <= 0 {
		return fmt.Errorf("slo: objective %q threshold %v must be positive", obj.Name, obj.Threshold)
	}
	if obj.Window <= 0 {
		return fmt.Errorf("slo: objective %q window %v must be positive", obj.Name, obj.Window)
	}
	slots := int(math.Round(float64(obj.Window) / float64(t.interval)))
	if slots < 1 {
		slots = 1
	}
	t.mu.Lock()
	t.objs = append(t.objs, &tracked{obj: obj, slots: slots, ring: make([]slot, slots)})
	t.mu.Unlock()
	return nil
}

// Sample takes one sampling step: it reads the registry once and pushes each
// objective's histogram delta into its ring.
func (t *Tracker) Sample() {
	snap := t.reg.Snapshot()
	byName := make(map[string]*telemetry.FamilySnapshot, len(snap))
	for i := range snap {
		byName[snap[i].Name] = &snap[i]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.objs {
		tr.sample(byName[tr.obj.Metric])
	}
}

// sample folds one snapshot of the objective's family into the ring.
func (tr *tracked) sample(fam *telemetry.FamilySnapshot) {
	ops, cum, bounds, ok := sumSeries(fam, tr.obj.Labels)
	if !ok {
		// Family absent or not a histogram: push an empty slot so time
		// still passes for the window, and re-prime when it appears.
		tr.primed = false
		tr.push(slot{})
		return
	}
	if !tr.primed || len(cum) != len(tr.lastCum) {
		// First sight (or shape change, e.g. re-registration): establish
		// the baseline; deltas start accumulating from the next sample.
		tr.primed = true
		tr.lastOps, tr.lastCum, tr.bounds = ops, cum, bounds
		tr.push(slot{})
		return
	}
	d := slot{ops: ops - tr.lastOps, buckets: make([]float64, len(cum))}
	for i := range cum {
		d.buckets[i] = cum[i] - tr.lastCum[i]
	}
	if d.ops < 0 {
		// Counter reset (registry swapped): drop the interval, re-prime.
		d = slot{}
	}
	tr.lastOps, tr.lastCum, tr.bounds = ops, cum, bounds
	tr.push(d)
}

func (tr *tracked) push(s slot) {
	tr.ring[tr.next] = s
	tr.next = (tr.next + 1) % tr.slots
	if tr.filled < tr.slots {
		tr.filled++
	}
}

// sumSeries sums the matching histogram series of a family: total count and
// cumulative bucket counts (as floats, ready for interpolation).
func sumSeries(fam *telemetry.FamilySnapshot, want map[string]string) (ops float64, cum []float64, bounds []float64, ok bool) {
	if fam == nil || fam.Kind != "histogram" {
		return 0, nil, nil, false
	}
	for _, s := range fam.Series {
		if len(s.Buckets) == 0 {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if cum == nil {
			cum = make([]float64, len(s.Buckets))
			bounds = s.Bounds
		} else if len(s.Buckets) != len(cum) {
			continue // shape mismatch across series; skip
		}
		ops += float64(s.Count)
		for i, b := range s.Buckets {
			cum[i] += float64(b)
		}
	}
	return ops, cum, bounds, cum != nil
}

// Report returns the windowed status of every objective, in Add order.
func (t *Tracker) Report() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Status, 0, len(t.objs))
	for _, tr := range t.objs {
		out = append(out, tr.status())
	}
	return out
}

func (tr *tracked) status() Status {
	st := Status{Objective: tr.obj, Filled: tr.filled == tr.slots, Met: true}
	var win []float64
	for _, s := range tr.ring {
		st.Ops += s.ops
		if s.buckets == nil {
			continue
		}
		if win == nil {
			win = make([]float64, len(s.buckets))
		}
		if len(s.buckets) == len(win) {
			for i, b := range s.buckets {
				win[i] += b
			}
		}
	}
	if st.Ops <= 0 || win == nil {
		st.Ops = 0
		st.BudgetRemaining = 1
		return st
	}
	fast := countAtOrBelow(tr.bounds, win, tr.obj.Threshold)
	st.Slow = st.Ops - fast
	if st.Slow < 0 {
		st.Slow = 0
	}
	st.SlowRatio = st.Slow / st.Ops
	st.QuantileEstimate = quantile(tr.bounds, win, st.Ops, tr.obj.Quantile)
	st.BurnRate = st.SlowRatio / (1 - tr.obj.Quantile)
	st.BudgetRemaining = 1 - st.BurnRate
	st.Met = st.BurnRate <= 1
	return st
}

// countAtOrBelow estimates how many of the windowed operations finished at
// or below thr, interpolating linearly within the bucket containing it.
// Operations in the overflow (+Inf) bucket count as above any finite
// threshold: their latency is unknown, so the estimate stays conservative.
func countAtOrBelow(bounds, cum []float64, thr float64) float64 {
	prev, lo := 0.0, 0.0
	for i, b := range bounds {
		c := cum[i]
		if thr <= b {
			frac := 1.0
			if b > lo {
				frac = (thr - lo) / (b - lo)
			}
			return prev + (c-prev)*frac
		}
		prev, lo = c, b
	}
	return prev
}

// quantile estimates the q-quantile of the windowed distribution with the
// registry's interpolation (telemetry.BucketQuantile); an empty window's is 0.
func quantile(bounds, cum []float64, total, q float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	return telemetry.BucketQuantile(bounds, cum, total, q)
}

// DefaultObjectives returns the testbed's core-operation objectives over the
// given window: p99 bounds on block allocation, write, read, stripe encode,
// and repair. Thresholds suit the shaped-fabric testbed (64 MiB blocks over
// gigabit-class links); real deployments would tune them.
func DefaultObjectives(window time.Duration) []Objective {
	return []Objective{
		{Name: "AllocateBlock", Metric: "namenode_alloc_seconds",
			Quantile: 0.99, Threshold: 0.005, Window: window},
		{Name: "WriteBlock", Metric: "hdfs_client_write_seconds",
			Quantile: 0.99, Threshold: 8, Window: window},
		{Name: "ReadBlock", Metric: "hdfs_client_read_seconds",
			Quantile: 0.99, Threshold: 4, Window: window},
		{Name: "EncodeStripe", Metric: "raidnode_stripe_encode_seconds",
			Quantile: 0.95, Threshold: 30, Window: window},
		{Name: "RepairBlock", Metric: "hdfs_repair_seconds",
			Quantile: 0.95, Threshold: 20, Window: window},
	}
}
