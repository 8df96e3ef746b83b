// Package telemetry is the observability substrate of the reproduction: a
// dependency-free metrics registry (counters, gauges, and histograms, all
// label-supporting and safe for concurrent use) with Prometheus text
// exposition, plus lightweight span tracing exportable as Chrome
// chrome://tracing JSON. The serving layers (fabric, hdfs, mapred, netcfs)
// publish into a Registry so a running earfsd can report the paper's
// headline quantities — cross-rack vs intra-rack bytes, encode throughput,
// placement violations, queueing delay — live from /metrics.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind distinguishes the metric families.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-millisecond block transfers of the scaled testbed up to multi-second
// encoding jobs.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExponentialBuckets returns n bucket upper bounds starting at start, each
// factor times the previous. It panics on invalid arguments (registration
// is programmer-controlled, like prometheus.MustRegister).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid exponential buckets (%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Vec
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Vec)}
}

// Vec is one metric family: a named set of series distinguished by label
// values. Obtain series handles with With.
type Vec struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string
	buckets   []float64 // histogram upper bounds, sorted, no +Inf

	mu     sync.Mutex
	series map[string]*Metric
	order  []string
}

// register returns the family with the given shape, creating it on first
// use. Re-registering an existing name with a different shape panics:
// metric names are programmer-controlled, and a silent mismatch would
// corrupt the exposition.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labelKeys []string) *Vec {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.families[name]; ok {
		if v.kind != kind || len(v.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v with %d labels (was %v with %d)",
				name, kind, len(labelKeys), v.kind, len(v.labelKeys)))
		}
		for i := range labelKeys {
			if v.labelKeys[i] != labelKeys[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with labels %v (was %v)",
					name, labelKeys, v.labelKeys))
			}
		}
		return v
	}
	v := &Vec{
		name:      name,
		help:      help,
		kind:      kind,
		labelKeys: append([]string(nil), labelKeys...),
		series:    make(map[string]*Metric),
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		v.buckets = append([]float64(nil), buckets...)
		sort.Float64s(v.buckets)
	}
	r.families[name] = v
	r.order = append(r.order, name)
	return v
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labelKeys ...string) *Vec {
	return r.register(name, help, KindCounter, nil, labelKeys)
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labelKeys ...string) *Vec {
	return r.register(name, help, KindGauge, nil, labelKeys)
}

// Histogram registers (or returns) a histogram family with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labelKeys ...string) *Vec {
	return r.register(name, help, KindHistogram, buckets, labelKeys)
}

// Reset zeroes every series of every family in place: counters and gauges
// return to 0, histograms forget their observations. Families, label keys,
// and existing series handles survive, so code holding a *Metric keeps
// publishing into the same (now zeroed) series — the registry-wide test
// isolation primitive.
func (r *Registry) Reset() {
	r.mu.Lock()
	families := make([]*Vec, 0, len(r.families))
	for _, v := range r.families {
		families = append(families, v)
	}
	r.mu.Unlock()
	for _, v := range families {
		v.mu.Lock()
		series := make([]*Metric, 0, len(v.series))
		for _, m := range v.series {
			series = append(series, m)
		}
		v.mu.Unlock()
		for _, m := range series {
			m.mu.Lock()
			m.value = 0
			m.count = 0
			m.sum = 0
			for i := range m.bucketCounts {
				m.bucketCounts[i] = 0
			}
			m.mu.Unlock()
		}
	}
}

// seriesKey joins label values unambiguously.
func seriesKey(values []string) string {
	return strings.Join(values, "\x00")
}

// With returns the series for the given label values, creating it on first
// use. The value count must match the family's label keys.
func (v *Vec) With(labelValues ...string) *Metric {
	if len(labelValues) != len(v.labelKeys) {
		panic(fmt.Sprintf("telemetry: %s needs %d label values, got %d",
			v.name, len(v.labelKeys), len(labelValues)))
	}
	key := seriesKey(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.series[key]; ok {
		return m
	}
	m := &Metric{
		kind:        v.kind,
		labelValues: append([]string(nil), labelValues...),
		bounds:      v.buckets,
	}
	if v.kind == KindHistogram {
		m.bucketCounts = make([]uint64, len(v.buckets)+1) // +1: overflow
	}
	v.series[key] = m
	v.order = append(v.order, key)
	return m
}

// Metric is one series of a family. All methods are safe for concurrent
// use.
type Metric struct {
	kind        Kind
	labelValues []string
	bounds      []float64

	mu           sync.Mutex
	value        float64  // counter, gauge
	count        uint64   // histogram observations
	sum          float64  // histogram sum
	bucketCounts []uint64 // per-bucket (non-cumulative), last = overflow
}

// Inc adds one to a counter or gauge.
func (m *Metric) Inc() { m.Add(1) }

// Dec subtracts one from a gauge.
func (m *Metric) Dec() { m.Add(-1) }

// Add adds v. Counters reject negative deltas.
func (m *Metric) Add(v float64) {
	if m.kind == KindHistogram {
		panic("telemetry: Add on histogram; use Observe")
	}
	if m.kind == KindCounter && v < 0 {
		panic(fmt.Sprintf("telemetry: counter decremented by %g", v))
	}
	m.mu.Lock()
	m.value += v
	m.mu.Unlock()
}

// Set stores v in a gauge.
func (m *Metric) Set(v float64) {
	if m.kind != KindGauge {
		panic("telemetry: Set on non-gauge")
	}
	m.mu.Lock()
	m.value = v
	m.mu.Unlock()
}

// Value returns the current counter or gauge value.
func (m *Metric) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.value
}

// Observe folds a sample into a histogram.
func (m *Metric) Observe(v float64) {
	if m.kind != KindHistogram {
		panic("telemetry: Observe on non-histogram")
	}
	m.mu.Lock()
	m.count++
	m.sum += v
	idx := sort.SearchFloat64s(m.bounds, v) // first bound >= v
	m.bucketCounts[idx]++
	m.mu.Unlock()
}

// Count returns the histogram observation count.
func (m *Metric) Count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Sum returns the histogram sample sum.
func (m *Metric) Sum() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum
}

// Mean returns the histogram sample mean (0 when empty).
func (m *Metric) Mean() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of a histogram by
// linear interpolation within the containing bucket, the standard
// Prometheus histogram_quantile estimate. Samples are assumed non-negative:
// the first bucket interpolates from zero. Estimates in the overflow bucket
// clamp to the largest finite bound. Returns NaN for an empty histogram or
// out-of-range q.
func (m *Metric) Quantile(q float64) float64 {
	if m.kind != KindHistogram {
		panic("telemetry: Quantile on non-histogram")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if q < 0 || q > 1 || m.count == 0 {
		return math.NaN()
	}
	rank := q * float64(m.count)
	var cum float64
	for i, c := range m.bucketCounts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i == len(m.bounds) { // overflow bucket
				return m.bounds[len(m.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = m.bounds[i-1]
			}
			hi := m.bounds[i]
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	// All mass below rank (q == 1 with rounding): the last non-empty bucket.
	for i := len(m.bucketCounts) - 1; i >= 0; i-- {
		if m.bucketCounts[i] > 0 {
			if i == len(m.bounds) {
				return m.bounds[len(m.bounds)-1]
			}
			return m.bounds[i]
		}
	}
	return math.NaN()
}

// SeriesSnapshot is the point-in-time state of one series.
type SeriesSnapshot struct {
	Labels map[string]string
	// Value is the counter or gauge value.
	Value float64
	// Count, Sum, and Buckets describe a histogram; Buckets holds the
	// cumulative count per upper bound, ending with the +Inf bucket.
	Count   uint64
	Sum     float64
	Bounds  []float64
	Buckets []uint64
}

// FamilySnapshot is the point-in-time state of one family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   string
	Series []SeriesSnapshot
}

// Snapshot captures every family and series, in registration order.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	families := make([]*Vec, len(order))
	for i, name := range order {
		families[i] = r.families[name]
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(families))
	for _, v := range families {
		fs := FamilySnapshot{Name: v.name, Help: v.help, Kind: v.kind.String()}
		v.mu.Lock()
		keys := append([]string(nil), v.order...)
		series := make([]*Metric, len(keys))
		for i, k := range keys {
			series[i] = v.series[k]
		}
		v.mu.Unlock()
		for _, m := range series {
			m.mu.Lock()
			ss := SeriesSnapshot{
				Labels: make(map[string]string, len(v.labelKeys)),
				Value:  m.value,
				Count:  m.count,
				Sum:    m.sum,
			}
			for i, k := range v.labelKeys {
				ss.Labels[k] = m.labelValues[i]
			}
			if v.kind == KindHistogram {
				ss.Bounds = append([]float64(nil), v.buckets...)
				ss.Buckets = make([]uint64, len(m.bucketCounts))
				var cum uint64
				for i, c := range m.bucketCounts {
					cum += c
					ss.Buckets[i] = cum
				}
			}
			m.mu.Unlock()
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelPairs renders {k="v",...} (empty string for no labels), with extra
// appended last (used for the histogram le label).
func labelPairs(keys []string, values map[string]string, extraKey, extraValue string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(values[k]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// formatBound renders a bucket bound the way Prometheus does.
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, fam.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		keys := labelKeysOf(fam)
		for _, s := range fam.Series {
			if fam.Kind == "histogram" {
				for i, bound := range s.Bounds {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name,
						labelPairs(keys, s.Labels, "le", formatBound(bound)), s.Buckets[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name,
					labelPairs(keys, s.Labels, "le", "+Inf"), s.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", fam.Name,
					labelPairs(keys, s.Labels, "", ""), s.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name,
					labelPairs(keys, s.Labels, "", ""), s.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %g\n", fam.Name,
				labelPairs(keys, s.Labels, "", ""), s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelKeysOf recovers the family's label keys in a stable order from a
// snapshot (sorted; snapshots carry labels as maps).
func labelKeysOf(fam FamilySnapshot) []string {
	if len(fam.Series) == 0 {
		return nil
	}
	keys := make([]string, 0, len(fam.Series[0].Labels))
	for k := range fam.Series[0].Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
