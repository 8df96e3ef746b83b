package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRecord is one finished span: a call from the benchmark into a layer
// of the program, or a phase or round that groups such calls.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Round  int    `json:"round"`  // one id per lifecycle round
	Name   string `json:"name"`
	// Start and End are seconds since the recorder was created.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// SelfS is the duration minus the part child spans cover.
	SelfS float64 `json:"self_s"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// liveSpan is an open span; end closes it.
type liveSpan struct {
	rec   *recorder
	id    int
	round int
}

// start opens a span under parent (nil parent = a new root for the round).
func (r *recorder) start(name string, round int, parent *liveSpan) *liveSpan {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := spanRecord{ID: len(r.spans) + 1, Round: round, Name: name, Start: now, End: -1}
	if parent != nil {
		rec.Parent = parent.id
		rec.Round = parent.round
	}
	r.spans = append(r.spans, rec)
	return &liveSpan{rec: r, id: rec.ID, round: rec.Round}
}

// child opens a span under s.
func (s *liveSpan) child(name string) *liveSpan {
	if s == nil {
		return nil
	}
	return s.rec.start(name, s.round, s)
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.epoch).Seconds()
	s.rec.mu.Lock()
	s.rec.spans[s.id-1].End = now
	s.rec.mu.Unlock()
}

// finished returns every closed span with its self time filled in: the
// span's duration minus the union of its children's intervals, so two
// children running in parallel are not subtracted twice.
func (r *recorder) finished() []spanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]spanRecord(nil), r.spans...)
	r.mu.Unlock()

	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		s.SelfS = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		out = append(out, s)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, edge := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], edge), min(x[1], hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// writeSpans writes the spans as one JSON array, creating the directory.
func writeSpans(path string, spans []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
