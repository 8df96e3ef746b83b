package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictReported   = "reported"
)

// runSet is the runs of one -out file, grouped per workload.
type runSet struct {
	hosts map[hostFacts]bool
	// values[workload][metric] has one entry per run.
	values map[string]map[string][]float64
	// withinRun[workload][metric] is the quartile spread inside a run, the
	// fallback when a file holds a single run.
	withinRun map[string]map[string]float64
	attempted map[string]int
	failed    map[string]int
}

// readRunSet parses a file of runRecord lines. Traced runs are skipped:
// end-to-end numbers come from untraced runs.
func readRunSet(r io.Reader) (*runSet, error) {
	rs := &runSet{
		hosts:     map[hostFacts]bool{},
		values:    map[string]map[string][]float64{},
		withinRun: map[string]map[string]float64{},
		attempted: map[string]int{},
		failed:    map[string]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		if rec.Trace {
			continue
		}
		rs.hosts[rec.Host] = true
		for _, res := range rec.Results {
			if rs.values[res.Workload] == nil {
				rs.values[res.Workload] = map[string][]float64{}
				rs.withinRun[res.Workload] = map[string]float64{}
			}
			rs.attempted[res.Workload] += res.OpsAttempted
			rs.failed[res.Workload] += res.OpsFailed
			for name, v := range res.EndToEnd {
				rs.values[res.Workload][name] = append(rs.values[res.Workload][name], v.Value)
				if v.N > 1 && v.Value != 0 {
					rs.withinRun[res.Workload][name] = (v.Q3 - v.Q1) / v.Value
				}
			}
		}
	}
	return rs, sc.Err()
}

// spreadOf is the metric's quartile spread over the set's runs, or inside
// its single run.
func (rs *runSet) spreadOf(workload, metric string) float64 {
	if xs := rs.values[workload][metric]; len(xs) > 1 {
		return spread(xs)
	}
	return rs.withinRun[workload][metric]
}

// row is one compared (workload, metric) pair.
type row struct {
	Workload, Metric, Unit string
	A, B                   float64
	SpreadA, SpreadB       float64
	// Worse is how much worse B is than A as a share of A (negative when B
	// is better), in the metric's own direction.
	Worse   float64
	Bound   float64
	Verdict string
}

// judge applies the bound. A difference past the bound that also exceeds
// both inputs' own spread is a regression; otherwise a spread wider than
// the bound leaves the row unresolved, never "unchanged".
func judge(worse, spreadA, spreadB, bound float64) string {
	noise := max(spreadA, spreadB)
	switch {
	case bound == 0:
		return verdictReported
	case worse > bound && worse > noise:
		return verdictRegressed
	case noise > bound:
		return verdictUnresolved
	default:
		return verdictOK
	}
}

// compareSets builds one row per end-to-end metric defined on each workload
// both sets ran.
func compareSets(a, b *runSet) []row {
	var rows []row
	for _, w := range workloadNames {
		for _, spec := range endToEnd {
			bound, ok := spec.bound(w)
			xa, xb := a.values[w][spec.Name], b.values[w][spec.Name]
			if !ok || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := row{Workload: w, Metric: spec.Name, Unit: spec.Unit, Bound: bound,
				A: median(xa), B: median(xb), SpreadA: a.spreadOf(w, spec.Name), SpreadB: b.spreadOf(w, spec.Name)}
			if r.A != 0 {
				r.Worse = (r.B - r.A) / r.A
				if spec.Higher {
					r.Worse = -r.Worse
				}
			}
			r.Verdict = judge(r.Worse, r.SpreadA, r.SpreadB, bound)
			rows = append(rows, r)
		}
	}
	return rows
}

func loadRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := readRunSet(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareFiles prints the comparison of two -out files and returns the
// process exit code: 1 on a regressed row or a higher failure ratio.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRunSet(pathA)
	if err == nil {
		var b *runSet
		if b, err = loadRunSet(pathB); err == nil {
			return printComparison(a, b, pathA, pathB, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark: compare:", err)
	return 2
}

func printComparison(a, b *runSet, pathA, pathB string, w io.Writer) int {
	fmt.Fprintf(w, "a = %s, b = %s; every ratio is b over a, \"worse\" is in the metric's own direction\n", pathA, pathB)
	for h := range b.hosts {
		if !a.hosts[h] {
			fmt.Fprintf(w, "WARNING: b has runs from a host a has none from: %+v\n", h)
		}
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median)\tb (median)\tb/a\tworse by\tspread a\tspread b\tbound\tverdict")
	for _, r := range compareSets(a, b) {
		ratio := 0.0
		if r.A != 0 {
			ratio = r.B / r.A
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%+.2f%%\t%.2f%%\t%.2f%%\t%g%%\t%s\n",
			r.Workload, r.Metric, r.A, r.Unit, r.B, r.Unit, ratio, r.Worse*100,
			r.SpreadA*100, r.SpreadB*100, r.Bound*100, r.Verdict)
		if r.Verdict == verdictRegressed {
			bad++
		}
	}
	tw.Flush()
	for _, wl := range workloadNames {
		if a.attempted[wl] == 0 || b.attempted[wl] == 0 {
			continue
		}
		fa := float64(a.failed[wl]) / float64(a.attempted[wl])
		fb := float64(b.failed[wl]) / float64(b.attempted[wl])
		fmt.Fprintf(w, "%s: ops failed/attempted a = %d/%d, b = %d/%d\n",
			wl, a.failed[wl], a.attempted[wl], b.failed[wl], b.attempted[wl])
		if fb > fa {
			fmt.Fprintf(w, "%s: b fails a larger share of its ops than a\n", wl)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}
