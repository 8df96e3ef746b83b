package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ear/internal/stats"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "requests", "op").With("read")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	g := reg.Gauge("depth", "queue depth").With()
	g.Set(5)
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}
	// Same labels return the same series.
	if reg.Counter("requests_total", "requests", "op").With("read") != c {
		t.Error("With did not return the existing series")
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter Add did not panic")
		}
	}()
	NewRegistry().Counter("c", "").With().Add(-1)
}

func TestRegisterShapeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "", "a")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("m", "", "a")
}

func TestHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Errorf("sum = %g, want 55.55", h.Sum())
	}
	if mean := h.Mean(); math.Abs(mean-55.55/4) > 1e-9 {
		t.Errorf("mean = %g", mean)
	}
	// Overflow-bucket quantiles clamp to the largest finite bound.
	if q := h.Quantile(1); q != 10 {
		t.Errorf("q100 = %g, want 10", q)
	}
	if q := h.Quantile(0.5); q < 0.1 || q > 1 {
		t.Errorf("q50 = %g, want within (0.1, 1]", q)
	}
}

func TestHistogramQuantileEmptyAndRange(t *testing.T) {
	h := NewRegistry().Histogram("lat", "", nil).With()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
	h.Observe(0.01)
	if !math.IsNaN(h.Quantile(1.5)) || !math.IsNaN(h.Quantile(-0.1)) {
		t.Error("out-of-range q not NaN")
	}
}

// TestQuantileAgreesWithPercentile cross-checks the histogram quantile
// estimate against stats.Percentile on identical samples: the two must
// agree within one bucket width.
func TestQuantileAgreesWithPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width = 0.05
	var bounds []float64
	for b := width; b <= 1.0+1e-9; b += width {
		bounds = append(bounds, b)
	}
	h := NewRegistry().Histogram("lat", "", bounds).With()
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = rng.Float64() // uniform in [0, 1)
		h.Observe(samples[i])
	}
	for _, p := range []float64{5, 25, 50, 75, 90, 99} {
		exact, err := stats.Percentile(samples, p)
		if err != nil {
			t.Fatal(err)
		}
		est := h.Quantile(p / 100)
		if math.Abs(est-exact) > width {
			t.Errorf("p%g: histogram estimate %g vs exact %g differ by more than bucket width %g",
				p, est, exact, width)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bytes_total", "bytes moved", "locality").With("cross").Add(1024)
	reg.Gauge("depth", "queue depth").With().Set(2)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bytes_total counter",
		`bytes_total{locality="cross"} 1024`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "", "k").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "help", "op").With("x").Add(7)
	h := reg.Histogram("h", "", []float64{1, 2}).With()
	h.Observe(0.5)
	h.Observe(1.5)
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d, want 2", len(snap))
	}
	if snap[0].Name != "c" || snap[0].Kind != "counter" || snap[0].Series[0].Value != 7 {
		t.Errorf("counter snapshot = %+v", snap[0])
	}
	if snap[0].Series[0].Labels["op"] != "x" {
		t.Errorf("labels = %v", snap[0].Series[0].Labels)
	}
	hs := snap[1].Series[0]
	if hs.Count != 2 || len(hs.Buckets) != 3 || hs.Buckets[0] != 1 || hs.Buckets[1] != 2 || hs.Buckets[2] != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

// TestConcurrentUse exercises every mutating path under the race detector.
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("ops_total", "", "op").With("w").Inc()
				reg.Gauge("depth", "").With().Add(1)
				reg.Histogram("lat", "", nil).With().Observe(float64(g*i) / 1000)
				if i%10 == 0 {
					reg.Snapshot()
					var b strings.Builder
					_ = reg.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("ops_total", "", "op").With("w").Value(); got != 1600 {
		t.Errorf("counter = %g, want 1600", got)
	}
}

func TestReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("total", "", "op").With("read")
	c.Add(7)
	g := reg.Gauge("depth", "").With()
	g.Set(3)
	h := reg.Histogram("lat", "", []float64{1, 10}).With()
	h.Observe(0.5)
	h.Observe(5)

	reg.Reset()

	if got := c.Value(); got != 0 {
		t.Errorf("counter after Reset = %g, want 0", got)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge after Reset = %g, want 0", got)
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("histogram after Reset: count=%d sum=%g, want 0/0", h.Count(), h.Sum())
	}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			for i, b := range s.Buckets {
				if b != 0 {
					t.Errorf("%s bucket %d = %d after Reset, want 0", fam.Name, i, b)
				}
			}
		}
	}

	// Families and existing handles survive: the old handle publishes into
	// the same series the registry still exposes.
	c.Add(2)
	if got := reg.Counter("total", "", "op").With("read").Value(); got != 2 {
		t.Errorf("counter after Reset+Add = %g, want 2", got)
	}
	if len(reg.Snapshot()) != 3 {
		t.Errorf("families after Reset = %d, want 3", len(reg.Snapshot()))
	}
}

func TestResetConcurrentWithPublishers(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n", "").With()
	h := reg.Histogram("lat", "", nil).With()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(0.01)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		reg.Reset()
	}
	close(stop)
	wg.Wait()
}
