package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"ear/internal/hdfs"
	"ear/internal/topology"
)

// benchmarkJSON mirrors the repo-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the code's
// metric catalogue from drifting apart, and checks the driver's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(driverWorkloads, ",") {
		t.Errorf("workloads = %v, want %v", names, driverWorkloads)
	}
	for _, w := range driverWorkloads {
		for _, slot := range slotNames() {
			if !specByName(slot).definedOn(w) {
				t.Errorf("slot %s is not defined on driver workload %s", slot, w)
			}
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q breaks the driver's naming rules", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}

	slots := slotNames()
	if len(b.EndToEnd) != len(slots) {
		t.Fatalf("end_to_end has %d metrics, the catalogue has %d slots %v", len(b.EndToEnd), len(slots), slots)
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		spec := specByName(slots[i])
		check(m.Name, m.Unit)
		if m.Name != spec.Name || m.Unit != spec.Unit || m.Better != better(spec.Higher) || m.Bound != spec.SlotBound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, spec)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", len(perLayer))
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the catalogue has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		spec := perLayer[i]
		check(m.Name, m.Unit)
		if m.Name != spec.Name || m.Unit != spec.Unit || m.Better != better(spec.Higher) {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, spec)
		}
	}
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{Seed: 7, Seconds: 0.01, Trace: trace, Sizes: tinySizes(), TmpDir: t.TempDir()}
}

// TestSmokeEveryWorkload runs all four workloads at tiny size and checks
// that each run is correct, reports every end-to-end metric the catalogue
// defines on it and every per-layer metric, and - on the workloads
// BENCHMARK.json lists - hands the driver exactly the listed metrics, each
// once with its unit. One traced run a workload serves both metric sets: its
// untraced rounds carry the end-to-end numbers.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
	}
	for _, name := range workloadNames {
		res, err := runWorkload(name, tinyOptions(t, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.OpsAttempted < 1 || res.OpsFailed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v",
				name, res.Correct, res.OpsAttempted, res.OpsFailed, res.ChecksFailed)
		}
		// The shaped self-check needs the full size: at tiny size under the
		// race detector the run is CPU-bound whatever the link rate.
		if name != wlShaped && len(res.SelfCheck) != 0 {
			t.Errorf("%s: workload-separation self-check: %v", name, res.SelfCheck)
		}
		if len(res.spans) == 0 {
			t.Errorf("%s: traced run recorded no span", name)
		}
		for _, traced := range []bool{false, true} {
			if !traced && !listed[name] {
				continue // the driver never asks this workload for the slots
			}
			got := driverMetrics(res, traced)
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
					if got[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", name, m.Name, got[m.Name].Value)
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d listed", name, traced, len(got), len(want))
			}
			for metric, unit := range want {
				if v, ok := got[metric]; !ok || v.Unit != unit {
					t.Errorf("%s traced=%v: metric %s reported as %+v (present=%v), want unit %s",
						name, traced, metric, v, ok, unit)
				}
			}
		}
		// Every end-to-end metric the catalogue defines on this workload is
		// in the full report too.
		for _, spec := range endToEnd {
			if spec.definedOn(name) {
				if v, ok := res.EndToEnd[spec.Name]; !ok || v.Unit != spec.Unit {
					t.Errorf("%s: report lacks %s in %s (got %+v)", name, spec.Name, spec.Unit, v)
				}
			}
		}
	}
}

// TestCorruptionFailsTheRun damages both replicas of one written block with
// Store.Corrupt before encoding: a run whose checks are live cannot come
// out correct.
func TestCorruptionFailsTheRun(t *testing.T) {
	o := tinyOptions(t, false)
	corrupted := 0
	o.afterWrite = func(c *hdfs.Cluster, written []topology.BlockID) {
		meta, err := c.NameNode().Block(written[0])
		if err != nil {
			t.Errorf("look up block: %v", err)
			return
		}
		for _, n := range meta.Nodes {
			dn, err := c.DataNodeOf(n)
			if err == nil {
				err = dn.Store.Corrupt(hdfs.DataKey(meta.ID))
			}
			if err != nil {
				t.Errorf("corrupt replica on node %d: %v", n, err)
				return
			}
			corrupted++
		}
	}
	res, err := runWorkload(wlUnshaped, o)
	if corrupted == 0 {
		t.Fatal("the hook corrupted nothing")
	}
	if err == nil && res.Correct {
		t.Fatalf("run with a corrupted block came out correct: failed=%d checks=%v", res.OpsFailed, res.ChecksFailed)
	}
	if err == nil && res.OpsFailed == 0 {
		t.Errorf("no op counted as failed: checks=%v", res.ChecksFailed)
	}
}

// TestAlteredBytesAreAFailedOp proves the byte comparison itself is live: a
// read that returns without error but with one flipped bit must count as
// failed and contribute no latency.
func TestAlteredBytesAreAFailedOp(t *testing.T) {
	payload := newPayloadBuf(2)
	payload.fill(3)
	d := &dataset{payload: payload, ids: make([]topology.BlockID, 2), written: []bool{true, true}}
	altered := func(topology.NodeID, topology.BlockID) ([]byte, error) {
		out := append([]byte(nil), payload[0]...)
		out[len(out)/2] ^= 1
		return out, nil
	}
	intact := func(topology.NodeID, topology.BlockID) ([]byte, error) { return payload[1], nil }
	failing := func(topology.NodeID, topology.BlockID) ([]byte, error) { return nil, errors.New("boom") }
	var st phaseStats
	d.readOne(nil, "read", 0, 0, &st, altered)
	d.readOne(nil, "read", 0, 1, &st, intact)
	d.readOne(nil, "read", 0, 1, &st, failing)
	if st.Ops != 3 || st.Failed != 2 || len(st.LatMs) != 1 || st.Bytes != blockBytes {
		t.Errorf("ops=%d failed=%d latencies=%d bytes=%d, want 3, 2, 1, %d", st.Ops, st.Failed, len(st.LatMs), st.Bytes, blockBytes)
	}
}

// TestRunPrintsTheDriverLine drives the command-line entry point the way
// the driver does and parses its last line.
func TestRunPrintsTheDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", wlForeground, "--seed", "3", "--seconds", "0.01", "--trace", "0", "-tiny", "-tmp", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("last line = %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(slotNames()) {
		t.Errorf("metrics = %v, want exactly %v", line.Metrics, slotNames())
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
