package slo_test

import (
	"reflect"
	"testing"
	"time"

	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/telemetry"
)

// TestStartStopLoop: the tracker is passive and the planes.Set that attaches
// it as the SLO plane runs its loop. Attached, it samples the cluster's
// registry on its own every planes.SLOInterval, so writes show up in the
// WriteBlock objective's window; once Stop has returned it never samples
// again, and a second Stop is a no-op.
func TestStartStopLoop(t *testing.T) {
	c, err := hdfs.NewCluster(hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: "ear",
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.SetTelemetry(telemetry.NewRegistry())
	s := planes.Attach(c, planes.SLO)
	t.Cleanup(s.Stop)
	write := func() {
		t.Helper()
		if _, err := c.WriteBlock(0, make([]byte, c.Config().BlockSizeBytes)); err != nil {
			t.Fatal(err)
		}
	}
	writes := func() float64 {
		for _, st := range s.SLO.Report() {
			if st.Name == "WriteBlock" {
				return st.Ops
			}
		}
		t.Fatal("the SLO plane has no WriteBlock objective")
		return 0
	}

	deadline := time.Now().Add(4 * planes.SLOInterval)
	for writes() == 0 {
		// Keep writing: the first sample only primes the baseline, so
		// writes must land between two later samples to show as a delta.
		write()
		if time.Now().After(deadline) {
			t.Fatal("the set's loop never sampled a write")
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.Stop()
	stopped := s.SLO.Report()
	write()
	time.Sleep(planes.SLOInterval + planes.SLOInterval/2)
	if got := s.SLO.Report(); !reflect.DeepEqual(got, stopped) {
		t.Error("the SLO tracker sampled after Stop")
	}
	s.Stop() // idempotent
}
