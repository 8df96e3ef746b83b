package fabric

import (
	"sync"
	"time"
)

// DefaultSampleInterval is the period internal/planes samples at: fine
// enough to resolve the phases of a scaled-testbed encode run, coarse
// enough that a multi-second experiment stays within a few hundred points
// per link.
const DefaultSampleInterval = 50 * time.Millisecond

// SamplePoint is one utilization sample of one link.
type SamplePoint struct {
	// T is seconds since the sampler started.
	T float64 `json:"t"`
	// MBps is the throughput observed over the sample interval, in MB/s.
	MBps float64 `json:"mbps"`
	// Utilization is MBps relative to the link's configured rate at sample
	// time, in [0, 1] (slightly above 1 transiently, as the token bucket
	// drains backlog).
	Utilization float64 `json:"util"`
}

// LinkTimeline is the sampled series of one link.
type LinkTimeline struct {
	Name   string        `json:"name"`
	Class  LinkClass     `json:"class"`
	Points []SamplePoint `json:"points"`
}

// Timeline is the sampler's output: a per-link throughput time series plus
// the payload-level cross/intra series, the time-resolved counterpart of a
// Snapshot delta.
type Timeline struct {
	IntervalSeconds float64        `json:"interval_seconds"`
	DurationSeconds float64        `json:"duration_seconds"`
	Links           []LinkTimeline `json:"links"`
	// CrossRack and IntraRack are cluster-wide payload throughput series.
	CrossRack []SamplePoint `json:"cross_rack"`
	IntraRack []SamplePoint `json:"intra_rack"`
}

// Sampler differentiates a fabric's link counters into per-link throughput
// time series — the instrument behind the earfsd /timeline endpoint and
// earexp -timeline. It is passive: each Sample records one interval since
// the previous one, and internal/planes calls it every interval.
type Sampler struct {
	f        *Fabric
	interval time.Duration

	mu      sync.Mutex
	started time.Time
	prev    Snapshot
	series  map[string]*LinkTimeline
	order   []string
	cross   []SamplePoint
	intra   []SamplePoint
	elapsed float64
}

// NewSampler creates a sampler for the fabric whose clock and counters start
// now. interval is the period the caller samples at, which Timeline reports.
func NewSampler(f *Fabric, interval time.Duration) *Sampler {
	return &Sampler{
		f: f, interval: interval, series: make(map[string]*LinkTimeline),
		started: time.Now(), prev: f.Snapshot(),
	}
}

// Sample records the interval since the previous sample.
func (s *Sampler) Sample() {
	cur := s.f.Snapshot()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	t := now.Sub(s.started).Seconds()
	dt := t - s.elapsed
	if dt <= 0 {
		return
	}
	d := cur.Sub(s.prev)
	for _, l := range d.Links {
		tl, ok := s.series[l.Name]
		if !ok {
			tl = &LinkTimeline{Name: l.Name, Class: l.Class}
			s.series[l.Name] = tl
			s.order = append(s.order, l.Name)
		}
		mbps := float64(l.MovedBytes) / (1 << 20) / dt
		util := 0.0
		if l.RateBytesPerSec > 0 {
			util = float64(l.MovedBytes) / dt / l.RateBytesPerSec
		}
		tl.Points = append(tl.Points, SamplePoint{T: t, MBps: mbps, Utilization: util})
	}
	s.cross = append(s.cross, SamplePoint{T: t, MBps: float64(d.CrossRackBytes) / (1 << 20) / dt})
	s.intra = append(s.intra, SamplePoint{T: t, MBps: float64(d.IntraRackBytes) / (1 << 20) / dt})
	s.prev = cur
	s.elapsed = t
}

// Timeline returns a copy of everything sampled so far. Safe to call while
// sampling.
func (s *Sampler) Timeline() Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Timeline{
		IntervalSeconds: s.interval.Seconds(),
		DurationSeconds: s.elapsed,
	}
	for _, name := range s.order {
		tl := s.series[name]
		out.Links = append(out.Links, LinkTimeline{
			Name:   tl.Name,
			Class:  tl.Class,
			Points: append([]SamplePoint(nil), tl.Points...),
		})
	}
	out.CrossRack = append([]SamplePoint(nil), s.cross...)
	out.IntraRack = append([]SamplePoint(nil), s.intra...)
	return out
}

// Merge folds another timeline's series into this one, offsetting the other
// timeline's points by offsetSeconds — used when an experiment runs several
// clusters back to back and wants one continuous view.
func (t *Timeline) Merge(other Timeline, offsetSeconds float64) {
	shift := func(pts []SamplePoint) []SamplePoint {
		out := make([]SamplePoint, len(pts))
		for i, p := range pts {
			p.T += offsetSeconds
			out[i] = p
		}
		return out
	}
	byName := make(map[string]int, len(t.Links))
	for i, l := range t.Links {
		byName[l.Name] = i
	}
	for _, l := range other.Links {
		pts := shift(l.Points)
		if i, ok := byName[l.Name]; ok {
			t.Links[i].Points = append(t.Links[i].Points, pts...)
		} else {
			t.Links = append(t.Links, LinkTimeline{Name: l.Name, Class: l.Class, Points: pts})
		}
	}
	t.CrossRack = append(t.CrossRack, shift(other.CrossRack)...)
	t.IntraRack = append(t.IntraRack, shift(other.IntraRack)...)
	if end := offsetSeconds + other.DurationSeconds; end > t.DurationSeconds {
		t.DurationSeconds = end
	}
	if t.IntervalSeconds == 0 {
		t.IntervalSeconds = other.IntervalSeconds
	}
}
