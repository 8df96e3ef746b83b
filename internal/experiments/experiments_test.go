package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"ear/internal/hdfs"
	"ear/internal/stats"
)

// fastTestbed returns a small configuration so testbed runs finish quickly.
func fastTestbed() TestbedOptions {
	return TestbedOptions{
		Stripes:              4,
		BlockSizeBytes:       64 << 10,
		BandwidthBytesPerSec: 16 << 20,
		Seed:                 1,
	}
}

func parseRow(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Caption: "cap", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "scaled")
	out := tb.String()
	for _, want := range []string{"x", "cap", "a", "1", "note: scaled"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig3(t *testing.T) {
	tb, err := RunFig3(Fig3Options{MonteCarloStripes: 100, Seed: 3})
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 rack counts", len(tb.Rows))
	}
	// Column 1 is k=6 analytic: decreasing in R.
	prev := 2.0
	for _, row := range tb.Rows {
		v := parseRow(t, row[1])
		if v > prev+1e-9 {
			t.Fatalf("k=6 violation probability not decreasing: %v", tb.Rows)
		}
		prev = v
	}
	// Monte-Carlo column near analytic for the densest case (R=14, k=6).
	an, mc := parseRow(t, tb.Rows[0][1]), parseRow(t, tb.Rows[0][2])
	if diff := an - mc; diff < -0.15 || diff > 0.15 {
		t.Errorf("analytic %.3f vs monte-carlo %.3f", an, mc)
	}
}

func TestRunTheorem1(t *testing.T) {
	tb, err := RunTheorem1(Theorem1Options{Stripes: 60, Seed: 4})
	if err != nil {
		t.Fatalf("RunTheorem1: %v", err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d, want k=10", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		measured, bound := parseRow(t, row[1]), parseRow(t, row[2])
		if measured > bound*1.6 {
			t.Errorf("block %s: measured %.3f above bound %.3f", row[0], measured, bound)
		}
	}
}

func TestRunC1(t *testing.T) {
	tb, err := RunC1(LoadBalanceOptions{Blocks: 2000, Runs: 3, Seed: 5})
	if err != nil {
		t.Fatalf("RunC1: %v", err)
	}
	if len(tb.Rows) != 20 {
		t.Fatalf("rows = %d, want 20 racks", len(tb.Rows))
	}
	var total float64
	for _, row := range tb.Rows {
		rr, ear := parseRow(t, row[1]), parseRow(t, row[2])
		total += rr
		if rr < 4 || rr > 6 || ear < 4 || ear > 6 {
			t.Errorf("rank %s shares (%.2f%%, %.2f%%) outside [4,6]", row[0], rr, ear)
		}
	}
	if total < 99 || total > 101 {
		t.Errorf("RR shares sum to %.2f%%, want ~100", total)
	}
}

func TestRunC2(t *testing.T) {
	tb, err := RunC2(LoadBalanceOptions{FileSizes: []int{100, 2000}, Runs: 3, Seed: 6})
	if err != nil {
		t.Fatalf("RunC2: %v", err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// H shrinks with file size; policies within 1.5 points of each other.
	small := parseRow(t, tb.Rows[0][1])
	large := parseRow(t, tb.Rows[1][1])
	if large >= small {
		t.Errorf("H should shrink with file size: %.2f -> %.2f", small, large)
	}
	for _, row := range tb.Rows {
		rr, ear := parseRow(t, row[1]), parseRow(t, row[2])
		if rr-ear > 1.5 || ear-rr > 1.5 {
			t.Errorf("file %s: RR H %.2f vs EAR H %.2f diverge", row[0], rr, ear)
		}
	}
}

func TestRunB1(t *testing.T) {
	res, err := RunB1(B1Options{Stripes: 24, WriteRate: 0.5, LeadTime: 60, Seed: 7})
	if err != nil {
		t.Fatalf("RunB1: %v", err)
	}
	if len(res.Progress.Rows) != 4 {
		t.Fatalf("progress rows = %d", len(res.Progress.Rows))
	}
	if len(res.TableI.Rows) != 3 {
		t.Fatalf("tableI rows = %d", len(res.TableI.Rows))
	}
	// EAR encodes the full batch faster than RR.
	rrDone := parseRow(t, res.Progress.Rows[3][1])
	earDone := parseRow(t, res.Progress.Rows[3][2])
	if earDone >= rrDone {
		t.Errorf("EAR total encode time %.1f >= RR %.1f", earDone, rrDone)
	}
	if res.Series["rr"].Len() != 24 || res.Series["ear"].Len() != 24 {
		t.Errorf("series lengths %d/%d, want 24", res.Series["rr"].Len(), res.Series["ear"].Len())
	}
}

func TestRunB2VaryK(t *testing.T) {
	res, err := RunB2(B2Options{Factor: B2VaryK, Runs: 2, Values: []float64{6, 10}, Scale: 4, Seed: 8})
	if err != nil {
		t.Fatalf("RunB2: %v", err)
	}
	if len(res.Encode.Rows) != 2 || len(res.Write.Rows) != 2 {
		t.Fatalf("rows: encode %d write %d", len(res.Encode.Rows), len(res.Write.Rows))
	}
	for _, row := range res.Encode.Rows {
		med := parseRow(t, row[3])
		if med <= 1.0 {
			t.Errorf("k=%s: median EAR/RR encode ratio %.3f, want > 1", row[0], med)
		}
	}
}

func TestRunB2AllFactorsValidate(t *testing.T) {
	// Each factor runs end to end at minimal scale with one value.
	for _, f := range []B2Factor{B2VaryM, B2VaryBandwidth, B2VaryWriteRate, B2VaryRackFT, B2VaryReplicas} {
		f := f
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			var vals []float64
			switch f {
			case B2VaryM:
				vals = []float64{4}
			case B2VaryBandwidth:
				vals = []float64{1}
			case B2VaryWriteRate:
				vals = []float64{1}
			case B2VaryRackFT:
				vals = []float64{2}
			case B2VaryReplicas:
				vals = []float64{3}
			}
			res, err := RunB2(B2Options{Factor: f, Runs: 1, Values: vals, Scale: 4, Seed: 9})
			if err != nil {
				t.Fatalf("RunB2(%s): %v", f, err)
			}
			med := parseRow(t, res.Encode.Rows[0][3])
			if med <= 0.9 {
				t.Errorf("%s: encode ratio %.3f unexpectedly low", f, med)
			}
		})
	}
	if _, err := RunB2(B2Options{Factor: "bogus"}); err == nil {
		t.Error("bogus factor: expected error")
	}
}

func TestRunA3(t *testing.T) {
	opts := A3Options{TestbedOptions: fastTestbed(), Jobs: 6, MeanInterarrival: 50 * time.Millisecond}
	res, err := RunA3(opts)
	if err != nil {
		t.Fatalf("RunA3: %v", err)
	}
	if len(res.Completions["rr"]) != 6 || len(res.Completions["ear"]) != 6 {
		t.Fatal("missing completions")
	}
	if len(res.Summary.Rows) != 4 {
		t.Fatalf("summary rows = %d", len(res.Summary.Rows))
	}
	// Similar performance expected: total runtimes within 3x of each other.
	rrLast := res.Completions["rr"][5].Seconds()
	earLast := res.Completions["ear"][5].Seconds()
	if rrLast > 3*earLast || earLast > 3*rrLast {
		t.Errorf("MapReduce runtimes diverge: rr %.2fs vs ear %.2fs", rrLast, earLast)
	}
}

// TestFig9EmptyWindow: EAR's encode is over before the writer's next write,
// so its "during" window holds nothing. The row says n/a and claims no
// improvement, where a zero mean used to print a gain of billions of percent.
func TestFig9EmptyWindow(t *testing.T) {
	series := func(points ...stats.Point) *stats.Series { return &stats.Series{Points: points} }
	rr := a2Run{
		series:   series(stats.Point{T: 0.5, V: 0.06}, stats.Point{T: 2.5, V: 0.3}, stats.Point{T: 3.5, V: 0.3}),
		enc:      hdfs.EncodeStats{Duration: 1750 * time.Millisecond},
		encStart: 2,
	}
	ear := a2Run{
		series:   series(stats.Point{T: 0.5, V: 0.06}, stats.Point{T: 2.5, V: 0.07}),
		enc:      hdfs.EncodeStats{Duration: 380 * time.Millisecond},
		encStart: 2.6,
	}
	rows := fig9(rr, ear).Rows
	want := [][]string{
		{"write resp before encode (s)", "0.060", "0.065", "-7.7%"},
		{"write resp during encode (s)", "0.300", "n/a"},
		{"encoding time (s)", "1.750", "0.380", "+360.5%"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
	for i := range want {
		if strings.Join(rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
}

func TestRunRecovery(t *testing.T) {
	tb, err := RunRecovery(RecoveryOptions{Stripes: 3, Seed: 10})
	if err != nil {
		t.Fatalf("RunRecovery: %v", err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 values of c", len(tb.Rows))
	}
	// Cross-rack recovery traffic must shrink as c grows, and rack fault
	// tolerance must fall with it (the Section III-D trade-off).
	prevCross := 1e18
	prevFT := 1 << 30
	for _, row := range tb.Rows {
		ft := int(parseRow(t, row[2]))
		cross := parseRow(t, row[3])
		if cross > prevCross {
			t.Errorf("cross-rack recovery traffic not decreasing: %v", tb.Rows)
		}
		if ft > prevFT {
			t.Errorf("fault tolerance not decreasing with c: %v", tb.Rows)
		}
		prevCross, prevFT = cross, ft
	}
	// With c=1, recovery fetches roughly k-1 blocks cross-rack.
	if blocks := parseRow(t, tb.Rows[0][4]); blocks < 7 {
		t.Errorf("c=1 cross-rack block fetches = %.2f, want ~k-1 = 9", blocks)
	}
}
