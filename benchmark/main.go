// Command benchmark is the repo's lifecycle benchmark: four workloads over
// the default hdfs.Config, named end-to-end metrics with regress bounds,
// per-layer metrics, correctness checks, and a traced run. README.md in this
// directory has the tables; BENCHMARK.json at the repo root is the contract
// the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"ear/internal/gf256"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 45

// hostFacts travel with every result so numbers from different machines
// are never compared silently.
type hostFacts struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	KernelTier string `json:"gf256_kernel_tier"`
}

func host() hostFacts {
	return hostFacts{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		KernelTier: gf256.KernelTier(),
	}
}

// runRecord is one invocation: -out appends it as one JSON line, and
// -compare reads files of such lines.
type runRecord struct {
	Host    hostFacts `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Sizes   sizes     `json:"sizes"`
	Clients int       `json:"clients"`
	Results []*result `json:"results"`
}

// driverLine is the last line of standard output, the one the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "drives payload bytes, client nodes, read order and Config.Seed")
	seconds := fs.Float64("seconds", defaultSeconds, "time one workload measures for")
	trace := fs.Int("trace", 0, "1 = run every other round traced and report the per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<n>.json)")
	out := fs.String("out", "", "append this run as one JSON line, the input of -compare")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the metadata workload's logs")
	tiny := fs.Bool("tiny", false, "smoke-test sizes: every workload in about a second")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; -trace is 0 or 1, -seconds is positive")
		return 2
	}

	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: defaultSizes(), TmpDir: *tmp}
	if *tiny {
		o.Sizes = tinySizes()
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	rec := runRecord{Host: host(), Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Sizes: o.Sizes, Clients: clients}
	fmt.Fprintf(stdout, "host: %s %s/%s GOMAXPROCS=%d NumCPU=%d gf256=%s; seed %d, %g s a workload, %d closed-loop clients\n",
		rec.Host.GoVersion, rec.Host.GOOS, rec.Host.GOARCH, rec.Host.GOMAXPROCS, rec.Host.NumCPU,
		rec.Host.KernelTier, o.Seed, o.Seconds, clients)

	line := driverLine{Correct: true, Metrics: map[string]driverValue{}}
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		rec.Results = append(rec.Results, res)
		printResult(stdout, res)
		if o.Trace {
			path := *spans
			if path == "" || len(names) > 1 {
				path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, o.Seed))
			}
			if err := writeSpans(path, res.spans); err != nil {
				fmt.Fprintln(stderr, "benchmark: write spans:", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(res.spans), path)
		}
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.OpsAttempted
		line.Failed += res.OpsFailed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for metric, v := range driverMetrics(res, o.Trace) {
			line.Metrics[prefix+metric] = v
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark: write -out:", err)
			return 1
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !line.Correct {
		return 1
	}
	return 0
}

// driverMetrics picks what the driver's contract wants from a run: every
// end-to-end slot from an untraced run (all of them on a driver workload),
// every per-layer metric from a traced one.
func driverMetrics(res *result, traced bool) map[string]driverValue {
	out := make(map[string]driverValue)
	if traced {
		for _, spec := range perLayer {
			v := res.PerLayer[spec.Name]
			out[spec.Name] = driverValue{Value: v.Value, Unit: spec.Unit}
		}
		return out
	}
	for _, name := range slotNames() {
		if v, ok := res.EndToEnd[name]; ok {
			out[name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return out
}

// printResult prints every metric of the workload by name with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s: %d measured round(s), %d ops attempted, %d failed ==\n",
		res.Workload, res.Rounds, res.OpsAttempted, res.OpsFailed)
	fmt.Fprintln(w, "end-to-end (untraced rounds; median of rounds with quartiles)")
	for _, spec := range endToEnd {
		v, ok := res.EndToEnd[spec.Name]
		if !ok {
			continue
		}
		bound, _ := spec.bound(res.Workload)
		gate := fmt.Sprintf("bound %g%%", bound*100)
		if bound == 0 {
			gate = "reported, not gated"
		}
		detail := fmt.Sprintf("n=%d q1=%.6g q3=%.6g", v.N, v.Q1, v.Q3)
		if v.Pct > 0 {
			detail = fmt.Sprintf("n=%d p%g", v.N, v.Pct)
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s %s; %s\n", spec.Name, v.Value, v.Unit, detail, gate)
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "per-layer (counters from untraced rounds, planes from traced rounds, probes)")
		for _, spec := range perLayer {
			v := res.PerLayer[spec.Name]
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", spec.Name, v.Value, spec.Unit)
		}
		if len(res.SelfCheck) == 0 {
			fmt.Fprintln(w, "workload-separation self-check: ok")
		}
		for _, s := range res.SelfCheck {
			fmt.Fprintln(w, "workload-separation self-check FAILED (a benchmark bug):", s)
		}
		fmt.Fprintln(w, "worst layer:", res.WorstLayer)
	}
	for _, c := range res.ChecksFailed {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	if res.Correct {
		fmt.Fprintln(w, "correctness checks: ok")
	}
}

// appendRecord appends the run to path as one JSON line.
func appendRecord(path string, rec runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
