package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"ear/internal/planes"
)

// TestQuickTablesGolden holds the tables that run no cluster (analysis,
// Monte Carlo, simulation) to testdata/quick-seed1.txt, the same sections of
// `earexp -exp all -quick -seed 1`: each experiment alone prints its section
// of the full run byte for byte.
func TestQuickTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(strings.Fields("-exp fig3,theorem1,b1,b2,c1,c2 -quick -seed 1"), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/quick-seed1.txt:\n%s", got.String())
	}
}

// TestUnknownValuesNameTheValid: a bad -exp, -vary or -crash-phase fails
// before anything runs, and the error lists what would have been accepted.
func TestUnknownValuesNameTheValid(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []string
	}{
		{"-exp fig3,bogus", []string{`"bogus"`, "all", "fig3", "theorem1", "b2", "encodewindow", "crash"}},
		{"-exp b2 -vary bogus", []string{`"bogus"`, "k", "bw", "writerate", "rackft", "replicas"}},
		{"-exp crash -crash-phase bogus", []string{`"bogus"`, "run", "recover"}},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil {
			t.Errorf("%s: no error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", tc.args, out.String())
		}
	}
}

// TestBundleOnFailure: -bundle writes nothing when the run passes and, when
// it fails, every cluster's bundle: here nodefail's own auditor and tracker
// with the journal behind them, after the trace check failed.
func TestBundleOnFailure(t *testing.T) {
	path := t.TempDir() + "/bundle.json"
	if err := run(strings.Fields("-exp nodefail -stripes 2 -bundle "+path), io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a passing run wrote %s (stat: %v)", path, err)
	}
	err := run(strings.Fields("-exp nodefail -stripes 2 -require-trace 1000000 -bundle "+path), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "trace check") {
		t.Fatalf("want the trace check to fail the run, got %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []planes.Bundle
	if err := json.Unmarshal(blob, &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("nodefail builds one cluster, bundle holds %d", len(bundles))
	}
	b := bundles[0]
	if b.Audit == nil || b.Progress == nil || len(b.Events) == 0 || b.Events[len(b.Events)-1].Seq != b.Seq {
		t.Errorf("bundle lacks nodefail's planes or its journal: %+v", b)
	}
}
