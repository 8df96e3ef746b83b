package fabric_test

import (
	"testing"
	"time"

	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/planes"
)

// TestSamplerStartStopIdempotent: the sampler is passive and the planes.Set
// that attaches it runs its loop. Attached, it samples on its own every
// interval; once Stop has returned nothing samples it again, and a second
// Stop is a no-op.
func TestSamplerStartStopIdempotent(t *testing.T) {
	c, err := hdfs.NewCluster(hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: "ear",
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := planes.Attach(c, planes.Timeline)
	t.Cleanup(s.Stop)
	points := func() int { return len(s.Sampler.Timeline().CrossRack) }

	deadline := time.Now().Add(10 * time.Second)
	for points() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the set's loop never stepped the sampler")
		}
		time.Sleep(fabric.DefaultSampleInterval / 5)
	}
	s.Stop()
	stopped := points()
	time.Sleep(3 * fabric.DefaultSampleInterval)
	if got := points(); got != stopped {
		t.Errorf("the sampler took %d samples after Stop", got-stopped)
	}
	s.Stop() // idempotent
	if got := points(); got != stopped {
		t.Error("a second Stop sampled again")
	}
}
