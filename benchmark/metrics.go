package main

// The four workloads. Later issues cite these names.
const (
	wlShaped     = "lifecycle-shaped"
	wlUnshaped   = "lifecycle-unshaped"
	wlForeground = "encode-foreground"
	wlMetadata   = "metadata-wal"
)

var workloadNames = []string{wlShaped, wlUnshaped, wlForeground, wlMetadata}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value: rounds for a median of
	// rounds, ops for a latency percentile.
	N int `json:"n,omitempty"`
	// Q1 and Q3 are the quartiles beside a median.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Pct is the percentile rank a latency value really is, which is below
	// the one its name asks for when the sample cannot support that.
	Pct float64 `json:"pct,omitempty"`
}

// driverWorkloads are the workloads BENCHMARK.json lists, the ones the
// driver gates a change on. They are the two network-bound ones: their
// timings are set by token buckets and held within 1-3 % from run to run,
// while the wall time of the two CPU-bound workloads drifted by 25-35 %
// between sets of runs of one commit on the shared 2-core sandbox, beyond
// any bound the driver accepts. The CPU-bound workloads run under -workload
// and -compare like the others.
var driverWorkloads = []string{wlShaped, wlForeground}

// endToEndSpec describes one end-to-end metric.
type endToEndSpec struct {
	Name   string
	Unit   string
	Higher bool
	// SlotBound > 0 makes the metric a slot: BENCHMARK.json lists it with
	// this bound, because the driver wants one metric vector, never 0, from
	// every run of every workload it lists. A slot is therefore defined
	// and steady on every driver workload.
	SlotBound float64
	// Bounds names the workloads that report the metric, each with the
	// bound -compare applies there (0 = reported, not gated).
	Bounds map[string]float64
}

// bound returns the regress bound of the metric on the workload and whether
// the workload reports the metric at all.
func (s endToEndSpec) bound(workload string) (float64, bool) {
	b, ok := s.Bounds[workload]
	return b, ok
}

// definedOn reports whether the workload reports the metric.
func (s endToEndSpec) definedOn(workload string) bool {
	_, ok := s.Bounds[workload]
	return ok
}

// everywhere gives all four workloads the same bound.
func everywhere(bound float64) map[string]float64 {
	return map[string]float64{wlShaped: bound, wlUnshaped: bound, wlForeground: bound, wlMetadata: bound}
}

var endToEnd = []endToEndSpec{
	{Name: "setup_s", Unit: "s", SlotBound: 0.25, Bounds: everywhere(0.25)},
	{Name: "lifecycle_s", Unit: "s", SlotBound: 0.15,
		Bounds: map[string]float64{wlShaped: 0.05, wlUnshaped: 0.10, wlForeground: 0.10, wlMetadata: 0.10}},
	{Name: "encode_mbps", Unit: "MiB/s", Higher: true, SlotBound: 0.20,
		Bounds: map[string]float64{wlShaped: 0.10, wlUnshaped: 0.10, wlForeground: 0.10}},
	{Name: "encode_cross_rack_bytes_per_stripe", Unit: "B", SlotBound: 0.20,
		Bounds: map[string]float64{wlShaped: 0.10, wlForeground: 0.10}},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", SlotBound: 0.02,
		Bounds: map[string]float64{wlShaped: 0.02, wlUnshaped: 0.02, wlForeground: 0.02}},
	{Name: "peak_rss_mb", Unit: "MiB", Bounds: everywhere(0.10)},
	{Name: "cpu_s_per_gib", Unit: "s/GiB", Bounds: map[string]float64{wlUnshaped: 0.10}},
	{Name: "write_mbps", Unit: "MiB/s", Higher: true,
		Bounds: map[string]float64{wlShaped: 0.05, wlUnshaped: 0.10, wlForeground: 0.25}},
	{Name: "write_p50_ms", Unit: "ms", Bounds: map[string]float64{wlShaped: 0.05, wlForeground: 0.25}},
	{Name: "write_p95_ms", Unit: "ms", Bounds: map[string]float64{wlShaped: 0.10}},
	{Name: "read_mbps", Unit: "MiB/s", Higher: true,
		Bounds: map[string]float64{wlShaped: 0.05, wlForeground: 0.25}},
	{Name: "read_p50_ms", Unit: "ms", Bounds: map[string]float64{wlShaped: 0.05, wlForeground: 0.25}},
	{Name: "degraded_read_p50_ms", Unit: "ms", Bounds: map[string]float64{wlShaped: 0.05, wlUnshaped: 0.10}},
	{Name: "recover_mbps", Unit: "MiB/s", Higher: true,
		Bounds: map[string]float64{wlShaped: 0.10, wlUnshaped: 0.10}},
	{Name: "recover_cross_rack_bytes_per_member", Unit: "B", Bounds: map[string]float64{wlShaped: 0.05}},
	{Name: "meta_ops_per_s", Unit: "1/s", Higher: true, Bounds: map[string]float64{wlMetadata: 0.10}},
	{Name: "meta_recover_s", Unit: "s", Bounds: map[string]float64{wlMetadata: 0.10}},
}

// slotNames lists the metrics every driver workload reports to the driver.
func slotNames() []string {
	var out []string
	for _, s := range endToEnd {
		if s.SlotBound > 0 {
			out = append(out, s.Name)
		}
	}
	return out
}

// perLayerSpec describes one per-layer metric. They carry no bound.
type perLayerSpec struct {
	Name   string
	Unit   string
	Higher bool
}

// perLayer is the full per-layer catalogue in reporting order; every traced
// run emits each name once, 0 where the workload does not touch the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []perLayerSpec {
	var out []perLayerSpec
	add := func(name, unit string, higher bool) {
		out = append(out, perLayerSpec{Name: name, Unit: unit, Higher: higher})
	}
	for _, p := range phaseNames {
		for _, class := range linkClasses {
			add("fabric."+p+".wait_s."+string(class), "s", false)
		}
		add("fabric."+p+".cross_rack_bytes", "B", false)
		add("fabric."+p+".intra_rack_bytes", "B", false)
		add("fabric."+p+".link_bound_s", "s", false)
		add("fabric."+p+".efficiency", "ratio", true)
	}
	add("fabric.send_chunk_us", "us", false)
	add("fabric.open_stream_us", "us", false)

	for _, p := range phaseNames {
		add("hdfs."+p+".ops", "count", true)
		add("hdfs."+p+".failed", "count", false)
		add("hdfs."+p+".unattributed_s", "s", false)
	}
	add("hdfs.read.unshaped_mbps", "MiB/s", true)
	add("hdfs.raidnode.stripes", "count", true)
	add("hdfs.raidnode.cross_rack_downloads", "count", false)
	add("hdfs.raidnode.violations", "count", false)
	add("hdfs.raidnode.pipelined_stripes", "count", true)
	add("hdfs.raidnode.partial_sum_bytes", "B", false)
	add("hdfs.recover.blocks_repaired", "count", true)
	add("hdfs.recover.parity_repaired", "count", true)
	add("hdfs.recover.total_bytes_per_member", "B", false)
	add("hdfs.namenode.alloc_us", "us", false)
	add("hdfs.namenode.commit_us", "us", false)
	add("hdfs.namenode.alloc_wal_us", "us", false)

	add("placement.ear_place_us", "us", false)
	add("placement.rr_place_us", "us", false)
	add("placement.ear_attempts_per_block", "ratio", true)
	add("placement.plan_postencoding_us", "us", false)
	add("placement.plan_pipeline_us", "us", false)
	add("maxflow.stripe_graph_solve_us", "us", false)
	add("maxflow.augment_one_us", "us", false)

	add("metalog.append_us.interval", "us", false)
	add("metalog.append_us.always", "us", false)
	add("metalog.appends_per_fsync", "ratio", true)
	add("metalog.fsyncs", "count", false)
	add("metalog.appended_bytes_per_op", "B", false)
	add("metalog.replay_ops_per_s", "1/s", true)
	add("metalog.snapshot_s", "s", false)
	add("metalog.restart_from_snapshot_s", "s", false)

	add("erasure.encode_into_mbps", "MiB/s", true)
	add("erasure.reconstruct_block_mbps", "MiB/s", true)
	add("erasure.decode_row_us", "us", false)
	add("erasure.pool_hit_ratio", "ratio", true)
	add("gf256.mul_add_slice_mbps.64k", "MiB/s", true)
	add("gf256.mul_add_slice_mbps.256k", "MiB/s", true)
	add("gf256.add_slice_mbps", "MiB/s", true)
	add("gf256.encode.modelled_s", "s", false)
	add("blockstore.put_mbps", "MiB/s", true)
	add("blockstore.get_mbps", "MiB/s", true)
	add("blockstore.get_into_mbps", "MiB/s", true)
	add("mapred.dispatch_us_per_task", "us", false)
	add("mapred.encode.tasks", "count", false)
	add("mapred.encode.node_local_share", "ratio", true)

	add("observability.trace_overhead_pct", "%", false)
	add("observability.journal_events", "count", false)
	add("observability.spans", "count", false)
	add("observability.spans_dropped", "count", false)
	add("telemetry.namenode_alloc_mean_us", "us", false)
	add("telemetry.stripe_encode_mean_ms", "ms", false)
	add("telemetry.pipeline_fill_mean_ms", "ms", false)
	add("telemetry.metalog_fsync_mean_ms", "ms", false)

	add("process.cpu_s", "s", false)
	add("process.alloc_bytes_per_user_byte", "ratio", false)
	add("process.gc_pause_total_ms", "ms", false)

	// The end-to-end metrics that are not slots, mirrored so a traced run
	// hands them to the driver too.
	for _, s := range endToEnd {
		if s.SlotBound == 0 {
			add("e2e."+s.Name, s.Unit, s.Higher)
		}
	}
	return out
}

// metricSet maps a metric name to its reported value.
type metricSet map[string]value

// roundMedian is the median of one number per round, with its quartiles.
func roundMedian(unit string, perRound []float64) value {
	s := summarize(perRound)
	return value{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// specByName returns the end-to-end spec with the name; the zero spec,
// defined nowhere, for an unknown one.
func specByName(name string) endToEndSpec {
	for _, s := range endToEnd {
		if s.Name == name {
			return s
		}
	}
	return endToEndSpec{}
}

// mirrorEndToEnd copies the end-to-end metrics that are not slots into the
// per-layer section under "e2e.".
func mirrorEndToEnd(res *result) {
	for _, s := range endToEnd {
		if v, ok := res.EndToEnd[s.Name]; ok && s.SlotBound == 0 {
			res.PerLayer["e2e."+s.Name] = v
		}
	}
}

// pooledPercentile is the p-th percentile of the rounds' latencies taken
// together, in ms, falling back to the highest percentile the sample
// supports; Pct records the rank really used.
func pooledPercentile(perRound [][]float64, p float64) value {
	var pooled []float64
	for _, lat := range perRound {
		pooled = append(pooled, lat...)
	}
	v, used := percentileAtLeast(pooled, p)
	return value{Value: v, Unit: "ms", N: len(pooled), Pct: used}
}
