package hdfs_test

import (
	"reflect"
	"testing"
	"time"

	"ear/internal/hdfs"
	"ear/internal/planes"
)

// TestHealthStartStopLoop: the monitor is passive and the planes.Set that
// attaches it runs its loop. Attached, it probes every node on its own each
// HealthInterval; once Stop has returned it never ticks again, and a second
// Stop is a no-op.
func TestHealthStartStopLoop(t *testing.T) {
	c, err := hdfs.NewCluster(hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: "rr",
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := planes.Attach(c, planes.Health)
	t.Cleanup(s.Stop)

	deadline := time.Now().Add(5 * time.Second)
	for s.Health.Report()[0].Heartbeat == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the set's loop never probed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Stop()
	stopped := s.Health.Report()
	time.Sleep(2 * hdfs.HealthInterval)
	if got := s.Health.Report(); !reflect.DeepEqual(got, stopped) {
		t.Error("the health monitor ticked after Stop")
	}
	s.Stop() // idempotent
}
