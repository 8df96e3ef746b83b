package fabric

import (
	"testing"
	"time"
)

func TestSamplerRecordsTraffic(t *testing.T) {
	f, err := New(mustTop(t, 2, 2), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(f, 5*time.Millisecond)
	payload := make([]byte, 1<<20)
	if _, err := f.Transfer(0, 3, payload); err != nil { // cross-rack
		t.Fatal(err)
	}
	if _, err := f.Transfer(0, 1, payload); err != nil { // intra-rack
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	s.Sample()
	time.Sleep(10 * time.Millisecond)
	s.Sample()

	tl := s.Timeline()
	if tl.DurationSeconds <= 0 {
		t.Fatalf("duration = %g", tl.DurationSeconds)
	}
	if tl.IntervalSeconds != 0.005 {
		t.Errorf("interval = %g, want 0.005", tl.IntervalSeconds)
	}
	if len(tl.Links) == 0 {
		t.Fatal("no link series recorded")
	}
	sum := func(pts []SamplePoint) float64 {
		var mb float64
		for i, p := range pts {
			dt := p.T
			if i > 0 {
				dt = p.T - pts[i-1].T
			}
			mb += p.MBps * dt
		}
		return mb
	}
	// Integrating the throughput series recovers the bytes moved: 1 MiB each
	// way (float sums over tiny intervals; allow 1% slack).
	if got := sum(tl.CrossRack); got < 0.99 || got > 1.01 {
		t.Errorf("integrated cross-rack = %g MB, want 1", got)
	}
	if got := sum(tl.IntraRack); got < 0.99 || got > 1.01 {
		t.Errorf("integrated intra-rack = %g MB, want 1", got)
	}
	for _, l := range tl.Links {
		for _, p := range l.Points {
			if p.T < 0 || p.T > tl.DurationSeconds+0.001 {
				t.Fatalf("link %s point at t=%g outside [0, %g]", l.Name, p.T, tl.DurationSeconds)
			}
		}
	}
}

func TestTimelineMerge(t *testing.T) {
	a := Timeline{
		IntervalSeconds: 0.05,
		DurationSeconds: 1,
		Links: []LinkTimeline{
			{Name: "n0-up", Points: []SamplePoint{{T: 0.5, MBps: 2}}},
		},
		CrossRack: []SamplePoint{{T: 0.5, MBps: 2}},
	}
	b := Timeline{
		IntervalSeconds: 0.05,
		DurationSeconds: 2,
		Links: []LinkTimeline{
			{Name: "n0-up", Points: []SamplePoint{{T: 0.25, MBps: 4}}},
			{Name: "n1-up", Points: []SamplePoint{{T: 1, MBps: 8}}},
		},
		IntraRack: []SamplePoint{{T: 0.25, MBps: 4}},
	}
	a.Merge(b, 3)

	if a.DurationSeconds != 5 {
		t.Errorf("merged duration = %g, want 5 (offset 3 + 2)", a.DurationSeconds)
	}
	if len(a.Links) != 2 {
		t.Fatalf("merged links = %d, want 2", len(a.Links))
	}
	var n0 *LinkTimeline
	for i := range a.Links {
		if a.Links[i].Name == "n0-up" {
			n0 = &a.Links[i]
		}
	}
	if n0 == nil || len(n0.Points) != 2 {
		t.Fatalf("n0-up series not merged: %+v", a.Links)
	}
	if n0.Points[1].T != 3.25 {
		t.Errorf("merged point at t=%g, want 3.25", n0.Points[1].T)
	}
	if len(a.IntraRack) != 1 || a.IntraRack[0].T != 3.25 {
		t.Errorf("intra-rack series not offset: %+v", a.IntraRack)
	}
	if len(a.CrossRack) != 1 || a.CrossRack[0].T != 0.5 {
		t.Errorf("original cross-rack series disturbed: %+v", a.CrossRack)
	}
}
