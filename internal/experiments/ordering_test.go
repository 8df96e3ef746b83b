//go:build !race || goexperiment.synctest

package experiments

import (
	"testing"
	"time"
)

// The paper's testbed experiments whose verdict is an ordering of measured
// times, EAR ahead of RR. The margins are tens of milliseconds of shaped
// time, which the race detector's slowdown of every wake-up swallows on the
// wall clock and a bubble's fake clock (bubble_test.go) never sees: the one
// build left out is the one where these tests could assert nothing.

func TestRunA1(t *testing.T) {
	tb, err := RunA1(fastTestbed())
	if err != nil {
		t.Fatalf("RunA1: %v", err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		rr, ear := parseRow(t, row[1]), parseRow(t, row[2])
		if ear <= rr {
			t.Errorf("(n,k)=%s: EAR %.2f <= RR %.2f MB/s", row[0], ear, rr)
		}
		if earCross := parseRow(t, row[5]); earCross != 0 {
			t.Errorf("(n,k)=%s: EAR cross-rack downloads %v", row[0], earCross)
		}
	}
}

func TestRunA1UDP(t *testing.T) {
	opts := fastTestbed()
	opts.Stripes = 3
	tb, err := RunA1UDP(opts)
	if err != nil {
		t.Fatalf("RunA1UDP: %v", err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Gains should not collapse as traffic increases (paper: they grow).
	first := parseRow(t, tb.Rows[0][3])
	last := parseRow(t, tb.Rows[len(tb.Rows)-1][3])
	if first <= 0 {
		t.Errorf("unloaded gain %.1f%%, want positive", first)
	}
	if last <= 0 {
		t.Errorf("loaded gain %.1f%%, want positive", last)
	}
}

func TestRunA2(t *testing.T) {
	opts := A2Options{TestbedOptions: fastTestbed(), WriteRate: 10, LeadTime: 500 * time.Millisecond}
	res, err := RunA2(opts)
	if err != nil {
		t.Fatalf("RunA2: %v", err)
	}
	if len(res.Summary.Rows) != 3 {
		t.Fatalf("summary rows = %d", len(res.Summary.Rows))
	}
	if res.RRSeries.Len() == 0 || res.EARSeries.Len() == 0 {
		t.Fatal("empty write response series")
	}
	// Encoding time: EAR faster, by tens of milliseconds at this scale.
	rrEnc := parseRow(t, res.Summary.Rows[2][1])
	earEnc := parseRow(t, res.Summary.Rows[2][2])
	if earEnc >= rrEnc {
		t.Errorf("EAR encode %.2fs >= RR %.2fs", earEnc, rrEnc)
	}
}
