// Package progress watches the replication→erasure-coding transition
// through the cluster event journal and answers the two questions an
// operator of that transition actually asks: how far along is the encode
// backlog (and when will it finish), and how much data is currently below
// its target redundancy (and for how long has it been exposed).
//
// A Tracker subscribes to an events.Journal (the same attachment contract
// as the audit.Auditor: synchronous, O(1)-ish per event, never calls back
// into the journal) and runs its own instance of the layout engine
// (internal/events/layout: the event-sourced model of blocks, stripes and
// the dead set, plus the window ledger), from which it derives:
//
//   - the encode backlog: stripes and bytes grouped but not yet encoded,
//   - a throughput-windowed ETA: encoded bytes/s over a trailing sample
//     window, projected over the remaining backlog,
//   - a progress curve (fraction encoded over time) for comparing policies
//     (EAR vs RR) run-to-run,
//   - a durability-exposure metric: blocks currently below target
//     redundancy, with the wall-clock window of every exposure — surfaced
//     as the hdfs_blocks_at_risk gauge and the hdfs_exposure_seconds
//     histogram.
//
// The exposure ledger is the engine restricted to the two durability
// invariants, replica-count and partial-delete — the predicates, suspension
// rules, event scoping and ledger the auditor runs, not a copy of them —
// with one difference, layout.Rules.LiveOnly: the ledger counts only
// replicas on nodes not marked dead, the auditor counts recorded placement.
// So while no node is dead every exposure window is an auditor violation
// window with the same opening and resolving sequence numbers (the
// integration tests assert that), and a node death opens exposure windows
// here that the auditor, rightly, never sees.
//
// Restarts are survived for free: planes.Attach resets the tracker and has
// the durable metadata plane republish the recovered layout
// (PublishRecoveredState) into the new process's journal before traffic
// flows, so the tracker rebuilds its model from the backfill. Throughput
// samples and curve points are suppressed between MetaRecoveryStarted and
// MetaRecovered so the replayed encodes do not masquerade as instantaneous
// throughput.
package progress

import (
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/events/layout"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// Config shapes the tracker.
type Config struct {
	// Replicas is the pre-encode replication factor r (the target
	// redundancy a committed, not-yet-encoded block must keep).
	Replicas int
	// Policy labels reports and metrics ("ear", "rr"); purely descriptive.
	Policy string
}

// Invariant names for risk windows: the engine's.
const (
	RiskReplicaCount  = string(layout.ReplicaCount)
	RiskPartialDelete = string(layout.PartialDelete)
)

// RiskWindow is one durability exposure: the interval during which a block
// (or an encoded stripe's member) sat below its target redundancy.
type RiskWindow struct {
	Invariant string            `json:"invariant"`
	Stripe    topology.StripeID `json:"stripe"`
	Block     topology.BlockID  `json:"block"`
	OpenedSeq uint64            `json:"opened_seq"`
	// ResolvedSeq is 0 while the exposure is ongoing.
	ResolvedSeq  uint64    `json:"resolved_seq,omitempty"`
	OpenedWall   time.Time `json:"opened_wall"`
	ResolvedWall time.Time `json:"resolved_wall,omitempty"`
	// Seconds is the exposure duration (ongoing windows report the time
	// exposed so far, measured at report time).
	Seconds float64 `json:"seconds"`
}

// Resolved reports whether the exposure has closed.
func (w RiskWindow) Resolved() bool { return w.ResolvedSeq != 0 }

// CurvePoint is one sample of the progress curve.
type CurvePoint struct {
	// Seconds since the tracker started observing.
	Seconds float64 `json:"t"`
	// EncodedStripes / TotalStripes at the sample, and the fraction.
	EncodedStripes int     `json:"encoded"`
	TotalStripes   int     `json:"total"`
	Fraction       float64 `json:"fraction"`
	EncodedBytes   int64   `json:"encoded_bytes"`
}

// Report is the tracker's summary: the operator view behind earfsd
// /progress and earexp -progress.
type Report struct {
	Policy string `json:"policy"`
	Events uint64 `json:"events"`

	// Stripe lifecycle counts.
	TotalStripes    int `json:"total_stripes"`
	PendingStripes  int `json:"pending_stripes"`
	EncodingStripes int `json:"encoding_stripes"`
	EncodedStripes  int `json:"encoded_stripes"`

	// Backlog and completion.
	BacklogStripes  int     `json:"backlog_stripes"`
	BacklogBytes    int64   `json:"backlog_bytes"`
	TotalBytes      int64   `json:"total_bytes"`
	EncodedBytes    int64   `json:"encoded_bytes"`
	FractionEncoded float64 `json:"fraction_encoded"`

	// Throughput and projection. RateBytesPerSec is the trailing-window
	// encode rate; ETASeconds projects it over the backlog (0 when the
	// backlog is empty, +Inf encoded as -1 when no throughput has been
	// observed yet).
	RateBytesPerSec float64 `json:"rate_bytes_per_sec"`
	ETASeconds      float64 `json:"eta_seconds"`

	// Durability exposure.
	BlocksAtRisk    int          `json:"blocks_at_risk"`
	ExposureWindows []RiskWindow `json:"exposure_windows,omitempty"`
	// TotalExposureSeconds sums every closed window plus the age of open
	// ones.
	TotalExposureSeconds float64 `json:"total_exposure_seconds"`

	Curve []CurvePoint `json:"curve,omitempty"`

	// Recovering is true between MetaRecoveryStarted and MetaRecovered.
	Recovering bool `json:"recovering,omitempty"`
}

// throughput sampling geometry: rate over the trailing rateWindow of
// samples recorded at each StripeEncoded.
const (
	maxSamples     = 64
	rateWindowSecs = 30.0
	maxCurvePoints = 2048
)

// sample is one (time, cumulative encoded bytes) observation.
type sample struct {
	t     time.Time
	bytes int64
}

// Tracker consumes the event stream and maintains transition progress and
// durability-exposure state. All methods are safe for concurrent use;
// Attach subscribes it to a journal.
type Tracker struct {
	cfg Config

	mu     sync.Mutex
	start  time.Time
	events uint64

	// eng is the layout model and the exposure ledger: the two durability
	// invariants over live replicas.
	eng *layout.Engine

	samples []sample // ring, newest last
	curve   []CurvePoint
	stride  int // curve decimation stride

	recovering bool

	now func() time.Time // injectable for tests

	// Telemetry handles, nil until SetTelemetry.
	mAtRisk   *telemetry.Metric
	mExposure *telemetry.Metric
	mBacklogS *telemetry.Metric
	mBacklogB *telemetry.Metric
	mFraction *telemetry.Metric
}

// New builds a tracker.
func New(cfg Config) *Tracker {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Policy == "" {
		cfg.Policy = "unknown"
	}
	t := &Tracker{
		cfg:    cfg,
		eng:    layout.New(layout.Rules{Replicas: cfg.Replicas, LiveOnly: true}),
		stride: 1,
		now:    time.Now,
	}
	t.eng.OnResolve = func(w *layout.Window) {
		if t.mExposure != nil {
			t.mExposure.Observe(w.ResolvedWall.Sub(w.OpenedWall).Seconds())
		}
	}
	t.start = t.now()
	return t
}

// exposureBuckets bound the hdfs_exposure_seconds histogram: exposure in a
// shaped testbed run is milliseconds-to-seconds; in a real transition it
// can be minutes.
var exposureBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 300, 1800}

// SetTelemetry registers the tracker's metric families on reg and keeps
// the handles: hdfs_blocks_at_risk, hdfs_exposure_seconds,
// hdfs_encode_backlog_stripes, hdfs_encode_backlog_bytes,
// hdfs_encoded_fraction — all labeled by placement policy.
func (t *Tracker) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mAtRisk = reg.Gauge("hdfs_blocks_at_risk",
		"Blocks currently below their target redundancy.", "policy").With(t.cfg.Policy)
	t.mExposure = reg.Histogram("hdfs_exposure_seconds",
		"Duration blocks spent below target redundancy (observed when the exposure closes).",
		exposureBuckets, "policy").With(t.cfg.Policy)
	t.mBacklogS = reg.Gauge("hdfs_encode_backlog_stripes",
		"Stripes grouped but not yet encoded.", "policy").With(t.cfg.Policy)
	t.mBacklogB = reg.Gauge("hdfs_encode_backlog_bytes",
		"Bytes grouped but not yet encoded.", "policy").With(t.cfg.Policy)
	t.mFraction = reg.Gauge("hdfs_encoded_fraction",
		"Fraction of grouped stripes already encoded.", "policy").With(t.cfg.Policy)
}

// Attach subscribes the tracker to the journal, returning the cancel
// function. Attach before traffic flows (and before the recovered-state
// backfill): events already rotated out of the ring are not replayed.
func (t *Tracker) Attach(j *events.Journal) (cancel func()) {
	return j.Subscribe(t.Observe)
}

// Observe folds one event into the model. It is the subscriber the journal
// calls under its lock; tests may also feed events directly.
func (t *Tracker) Observe(e events.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	if e.Wall.IsZero() {
		e.Wall = t.now()
	}
	switch e.Type {
	case events.MetaRecoveryStarted:
		t.recovering = true
	case events.MetaRecovered:
		t.recovering = false
	}
	before := t.eng.Totals().Encoded
	t.eng.Observe(e)
	tot := t.eng.Totals()
	if tot.Encoded > before && !t.recovering {
		t.recordEncodeLocked(e.Wall, tot)
	}
	t.updateGaugesLocked(tot)
}

// Reset forgets everything folded so far and restarts the clock, so a
// replayed stream (the recovered-state backfill) rebuilds the model from
// scratch. The telemetry handles stay.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = 0
	t.eng.Reset()
	t.samples, t.curve, t.stride = nil, nil, 1
	t.recovering = false
	t.start = t.now()
}

// recordEncodeLocked adds a throughput sample and a curve point for one
// newly encoded stripe.
func (t *Tracker) recordEncodeLocked(wall time.Time, tot layout.Totals) {
	t.samples = append(t.samples, sample{t: wall, bytes: tot.EncodedBytes})
	if len(t.samples) > maxSamples {
		t.samples = t.samples[len(t.samples)-maxSamples:]
	}
	if tot.Encoded%t.stride != 0 && tot.Encoded != tot.Grouped {
		return
	}
	if len(t.curve) >= maxCurvePoints {
		kept := t.curve[:0]
		for i := 0; i < len(t.curve); i += 2 {
			kept = append(kept, t.curve[i])
		}
		t.curve = kept
		t.stride *= 2
	}
	t.curve = append(t.curve, CurvePoint{
		Seconds:        wall.Sub(t.start).Seconds(),
		EncodedStripes: tot.Encoded,
		TotalStripes:   tot.Grouped,
		Fraction:       fraction(tot),
		EncodedBytes:   tot.EncodedBytes,
	})
}

// fraction is the share of grouped stripes already encoded.
func fraction(tot layout.Totals) float64 {
	if tot.Grouped == 0 {
		return 0
	}
	return float64(tot.Encoded) / float64(tot.Grouped)
}

// updateGaugesLocked refreshes the registered gauges.
func (t *Tracker) updateGaugesLocked(tot layout.Totals) {
	if t.mAtRisk == nil {
		return
	}
	t.mAtRisk.Set(float64(t.eng.Open()))
	t.mBacklogS.Set(float64(tot.Grouped - tot.Encoded))
	t.mBacklogB.Set(float64(tot.Bytes - tot.EncodedBytes))
	if tot.Grouped > 0 {
		t.mFraction.Set(fraction(tot))
	}
}

// rateLocked computes the trailing-window encode throughput in bytes/s.
func (t *Tracker) rateLocked(encodedBytes int64) float64 {
	if len(t.samples) < 2 {
		// One (or zero) samples: fall back to lifetime average.
		if encodedBytes > 0 {
			if el := t.now().Sub(t.start).Seconds(); el > 0 {
				return float64(encodedBytes) / el
			}
		}
		return 0
	}
	last := t.samples[len(t.samples)-1]
	first := t.samples[0]
	for _, s := range t.samples {
		if last.t.Sub(s.t).Seconds() <= rateWindowSecs {
			first = s
			break
		}
	}
	dt := last.t.Sub(first.t).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(last.bytes-first.bytes) / dt
}

// Report summarizes the transition so far. Exposure windows are returned
// in opening order; ongoing windows report their age at call time.
func (t *Tracker) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	tot := t.eng.Totals()

	r := Report{
		Policy:          t.cfg.Policy,
		Events:          t.events,
		TotalStripes:    tot.Grouped,
		EncodingStripes: tot.Encoding,
		EncodedStripes:  tot.Encoded,
		PendingStripes:  tot.Grouped - tot.Encoded - tot.Encoding,
		BacklogStripes:  tot.Grouped - tot.Encoded,
		BacklogBytes:    tot.Bytes - tot.EncodedBytes,
		TotalBytes:      tot.Bytes,
		EncodedBytes:    tot.EncodedBytes,
		FractionEncoded: fraction(tot),
		Recovering:      t.recovering,
	}

	r.RateBytesPerSec = t.rateLocked(tot.EncodedBytes)
	switch {
	case r.BacklogBytes <= 0:
		r.ETASeconds = 0
	case r.RateBytesPerSec > 0:
		r.ETASeconds = float64(r.BacklogBytes) / r.RateBytesPerSec
	default:
		r.ETASeconds = -1 // no throughput observed yet: unknown
	}

	r.BlocksAtRisk = t.eng.Open()
	r.ExposureWindows = make([]RiskWindow, len(t.eng.Windows))
	for i, w := range t.eng.Windows {
		end := w.ResolvedWall
		if !w.Transient() {
			end = now
		}
		r.ExposureWindows[i] = RiskWindow{
			Invariant: string(w.Invariant), Stripe: w.Stripe, Block: w.Block,
			OpenedSeq: w.OpenedSeq, ResolvedSeq: w.ResolvedSeq,
			OpenedWall: w.OpenedWall, ResolvedWall: w.ResolvedWall,
			Seconds: end.Sub(w.OpenedWall).Seconds(),
		}
		r.TotalExposureSeconds += r.ExposureWindows[i].Seconds
	}
	r.Curve = append([]CurvePoint(nil), t.curve...)
	return r
}
