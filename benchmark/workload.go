package main

import (
	"fmt"
	"time"

	"ear/internal/hdfs"
	"ear/internal/topology"
)

// sizes holds the final workload sizes. They were scaled from the issue's
// scratch numbers (which ran 25 to 35 s a workload) to fit the driver's
// time cap; README.md has the arithmetic.
type sizes struct {
	Shaped     dataSize `json:"lifecycle_shaped"`
	Unshaped   dataSize `json:"lifecycle_unshaped"`
	Foreground dataSize `json:"encode_foreground"`
	Metadata   metaSize `json:"metadata_wal"`
	// MinRounds is how many measured rounds a workload runs even when the
	// first ones used up the time. Warmup rounds run before them and are
	// discarded: the CPU-bound workloads need one, the network-bound ones
	// cannot afford one and do not change with it.
	MinRounds int            `json:"min_rounds"`
	Warmup    map[string]int `json:"warmup_rounds"`
}

const mib = 1 << 20

// defaultSizes are what BENCHMARK.json's run_seconds was chosen for.
func defaultSizes() sizes {
	return sizes{
		Shaped:     dataSize{Stripes: 12, SetupStripes: 2, LinkBps: 16 * mib, DiskBps: 32 * mib, DegradedReads: 8},
		Unshaped:   dataSize{Stripes: 40, LinkBps: unshapedBps, DiskBps: unshapedBps, DegradedReads: 24},
		Foreground: dataSize{Stripes: 100, SetupStripes: 4, LinkBps: 16 * mib, DiskBps: 32 * mib},
		Metadata:   metaSize{Pairs: 250_000},
		MinRounds:  3,
		Warmup:     map[string]int{wlUnshaped: 1, wlMetadata: 1},
	}
}

// tinySizes finish all four workloads in a few seconds; the smoke test and
// -tiny use them.
func tinySizes() sizes {
	return sizes{
		Shaped:     dataSize{Stripes: 2, LinkBps: 64 * mib, DiskBps: 128 * mib, DegradedReads: 2},
		Unshaped:   dataSize{Stripes: 2, LinkBps: unshapedBps, DiskBps: unshapedBps, DegradedReads: 2},
		Foreground: dataSize{Stripes: 2, LinkBps: 64 * mib, DiskBps: 128 * mib},
		Metadata:   metaSize{Pairs: 2000},
		MinRounds:  1,
	}
}

// options are one run's inputs.
type options struct {
	Seed    int64
	Seconds float64
	// Trace runs every other round with the span recorder and the repo's
	// observability planes attached and fills the per-layer section.
	Trace bool
	Sizes sizes
	// TmpDir is where the metadata workload keeps its log directories.
	TmpDir string
	// afterWrite, when set, runs between a lifecycle round's write and
	// encode phases. Tests use it to damage the cluster and prove that the
	// correctness checks fail the run.
	afterWrite func(c *hdfs.Cluster, written []topology.BlockID)
}

// result is one workload's outcome.
type result struct {
	Workload string `json:"workload"`
	Size     any    `json:"size"`
	// Rounds counts measured rounds; warm-up rounds are not in it.
	Rounds       int       `json:"rounds"`
	OpsAttempted int       `json:"ops_attempted"`
	OpsFailed    int       `json:"ops_failed"`
	Correct      bool      `json:"correct"`
	ChecksFailed []string  `json:"checks_failed,omitempty"`
	EndToEnd     metricSet `json:"end_to_end"`
	PerLayer     metricSet `json:"per_layer,omitempty"`
	// SelfCheck lists workload-separation findings: a workload that
	// stopped isolating its layer is a bug of the benchmark, not of the
	// program, so it is reported and does not clear Correct.
	SelfCheck []string `json:"self_check,omitempty"`
	// WorstLayer names the per-phase fabric wait or unattributed share that
	// took the most time, the place the next optimisation should look.
	WorstLayer string `json:"worst_layer,omitempty"`

	spans []spanRecord
	// model holds the per-phase inputs of the CPU model until the probes
	// have run.
	model map[string]phaseModel
}

// schedule hands out rounds until the time is used: warm-up rounds first,
// then measured ones, alternating untraced and traced when tracing.
type schedule struct {
	seconds  float64
	min      int
	warmup   int
	trace    bool
	start    time.Time
	measured int
	issued   int
}

func newSchedule(o options, workload string) *schedule {
	s := &schedule{
		seconds: o.Seconds,
		min:     o.Sizes.MinRounds,
		warmup:  o.Sizes.Warmup[workload],
		trace:   o.Trace,
		start:   time.Now(),
	}
	if s.trace && s.min < 2 {
		s.min = 2 // one round of each kind, or there is no overhead to report
	}
	return s
}

// next returns the index of the next round, whether it is a warm-up and
// whether to trace it; ok is false when the run is over. A measured round
// starts only if the time left covers the mean round so far.
func (s *schedule) next() (round int, warm, traced, ok bool) {
	round = s.issued
	if round < s.warmup {
		s.issued++
		return round, true, false, true
	}
	if s.measured >= s.min {
		elapsed := time.Since(s.start).Seconds()
		if elapsed+elapsed/float64(s.issued) > s.seconds {
			return 0, false, false, false
		}
	}
	s.issued++
	s.measured++
	return round, false, s.trace && s.measured%2 == 0, true
}

// outcome is what every kind of round contributes to the run's totals.
type outcome interface {
	// ops returns the client ops the round attempted and how many failed.
	ops() (attempted, failed int)
	// failedChecks lists the correctness checks the round failed.
	failedChecks() checks
}

// runRounds runs one round after another until the schedule ends, adds
// each round's ops and failed checks to res (warm-up rounds included: a
// wrong result is wrong whenever it happens), and returns the measured
// rounds split into untraced and traced. Only traced rounds get the span
// recorder.
func runRounds[R outcome](res *result, workload string, o options, rec *recorder,
	one func(round int, rec *recorder, traced bool) (R, error)) (plain, traced []R, err error) {
	sched := newSchedule(o, workload)
	for {
		round, warm, tr, ok := sched.next()
		if !ok {
			res.Rounds = len(plain)
			return plain, traced, nil
		}
		var roundRec *recorder
		if tr {
			roundRec = rec
		}
		r, err := one(round, roundRec, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		attempted, failed := r.ops()
		res.OpsAttempted += attempted
		res.OpsFailed += failed
		for _, c := range r.failedChecks() {
			res.ChecksFailed = append(res.ChecksFailed, fmt.Sprintf("round %d: %s", round, c))
		}
		switch {
		case warm:
		case tr:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	}
}

// runWorkload runs one workload by name.
func runWorkload(name string, o options) (*result, error) {
	var rec *recorder
	if o.Trace {
		rec = newRecorder()
	}
	var (
		res *result
		err error
	)
	switch name {
	case wlShaped:
		res, err = runLifecycleWorkload(name, o.Sizes.Shaped, o, rec)
	case wlUnshaped:
		res, err = runLifecycleWorkload(name, o.Sizes.Unshaped, o, rec)
	case wlForeground:
		res, err = runForegroundWorkload(o.Sizes.Foreground, o, rec)
	case wlMetadata:
		res, err = runMetadataWorkload(o.Sizes.Metadata, o, rec)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Workload = name
	// The high-water mark is the process's, so it is this workload's only
	// when the process ran no other before it, as under the driver.
	res.EndToEnd["peak_rss_mb"] = value{Value: peakRSSMB(), Unit: "MiB"}
	res.Correct = res.OpsFailed == 0 && len(res.ChecksFailed) == 0
	if o.Trace {
		res.spans = rec.finished()
		if err := addProbes(res.PerLayer, o); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", name, err)
		}
		fillModelled(res)
		mirrorEndToEnd(res)
		res.SelfCheck = selfCheck(name, res.PerLayer)
		res.WorstLayer = worstLayer(res.PerLayer)
		for _, spec := range perLayer {
			if _, ok := res.PerLayer[spec.Name]; !ok {
				res.PerLayer[spec.Name] = value{Unit: spec.Unit}
			}
		}
	}
	return res, nil
}

// overheadPct is how much worse the traced rounds' figure is than the
// untraced rounds', as a percentage of the untraced one. For a rate pass
// higher=true.
func overheadPct(untraced, traced []float64, higher bool) float64 {
	u, t := median(untraced), median(traced)
	if len(untraced) == 0 || len(traced) == 0 || u == 0 {
		return 0
	}
	if higher {
		return (u - t) / u * 100
	}
	return (t - u) / u * 100
}
