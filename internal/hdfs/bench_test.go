package hdfs

import (
	"context"
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// benchConfig shapes the fabric hard enough that data-path structure (not
// Go overhead) dominates: one block transfer costs ~8ms, and local reads are
// disk-shaped, so a fold's read-ahead overlaps a node's disk with the partial
// sums on their way to it.
func benchConfig() Config {
	return Config{
		Racks:                    6,
		NodesPerRack:             3,
		Policy:                   "ear",
		Replicas:                 3,
		K:                        4,
		N:                        6,
		C:                        1,
		BlockSizeBytes:           512 << 10,
		BandwidthBytesPerSec:     64 << 20,
		DiskBandwidthBytesPerSec: 64 << 20,
		MapTasks:                 4,
		Seed:                     1,
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	c, err := NewCluster(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, c.Config().BlockSizeBytes)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteBlock(0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBlockObserved is BenchmarkWriteBlock with the full
// observability stack installed — metrics registry, tracer, journal,
// transition progress tracker and the always-on tenant table — so
// comparing the two bounds the per-write observability tax (budget:
// under 3% of the pipelined write). The tracer is drained periodically the
// way a polling /trace?reset=1 consumer would.
func BenchmarkWriteBlockObserved(b *testing.B) {
	cfg := benchConfig()
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.SetTelemetry(telemetry.NewRegistry())
	tr := telemetry.NewTracer()
	tr.SetLimit(1 << 16)
	c.SetTracer(tr)
	jrn := events.NewJournal(8192)
	c.SetJournal(jrn)
	prog := progress.New(progress.Config{Replicas: cfg.Replicas, Policy: cfg.Policy})
	prog.Attach(jrn)
	data := make([]byte, c.Config().BlockSizeBytes)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			tr.Reset()
		}
		if _, err := c.WriteBlock(0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlock(b *testing.B) {
	c, err := NewCluster(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, c.Config().BlockSizeBytes)
	rand.New(rand.NewSource(2)).Read(data)
	id, err := c.WriteBlock(0, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBlock(topology.NodeID(i%c.Topology().Nodes()), id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAll(b *testing.B) {
	c, err := NewCluster(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, c.Config().BlockSizeBytes)
	b.SetBytes(int64(c.Config().K * c.Config().BlockSizeBytes))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < c.Config().K; j++ {
			rng.Read(data)
			client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
			if _, err := c.WriteBlock(client, data); err != nil {
				b.Fatal(err)
			}
		}
		c.NameNode().FlushOpenStripes()
		b.StartTimer()
		if _, err := c.RaidNode().EncodeAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeLifecycleRound encodes what one lifecycle-shaped round of
// the benchmark writes (lifecycleWrites, on seeds 1-6 in turn) at the shaped
// rates, on the wall clock. ns/op is the encode; cpu-ms/op is the process CPU
// it took, user and system time from getrusage: the host's share, which the
// fabric's design time leaves out; minflt/op the minor page faults it took,
// getrusage's Minflt; admit-ms/op is how long after the job's start its last
// stripe joined the job's loop (the latest run start the read-ahead books a
// slice for, readAheadKey), which a fake clock puts at 0. The runtime.GC()
// before each op keeps the heap the last op's parity used resident, so an op
// zeroes its parity blocks but seldom faults them in: minflt/op stays low
// here, where every round of the lifecycle benchmark after the first faults
// its parity in afresh from memory the runtime has returned to the OS.
func BenchmarkEncodeLifecycleRound(b *testing.B) {
	var cpu, admit time.Duration
	var minflt int64
	var last time.Time
	ctx := context.WithValue(context.Background(), readAheadKey{}, func(_ topology.NodeID, run *stageRun, _ int) {
		last = later(last, run.start)
	})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, cfg := lifecycleWrites(b, int64(i%6+1))
		if _, err := c.NameNode().FlushOpenStripes(); err != nil {
			b.Fatal(err)
		}
		setRates(b, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
		runtime.GC() // the writes' garbage is not the encode's
		cpu0, flt0 := usage(b)
		start := time.Now()
		b.StartTimer()
		if _, err := c.RaidNode().EncodeAllCtx(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cpu1, flt1 := usage(b)
		cpu, minflt = cpu+cpu1-cpu0, minflt+flt1-flt0
		admit += last.Sub(start)
		// newCluster keeps every cluster until the benchmark ends: drop this
		// one's blocks now so the iterations' layouts do not pile up.
		for n := 0; n < c.Topology().Nodes(); n++ {
			if dn, err := c.DataNodeOf(topology.NodeID(n)); err == nil {
				dn.Store.Clear()
			}
		}
	}
	b.ReportMetric(cpu.Seconds()*1e3/float64(b.N), "cpu-ms/op")
	b.ReportMetric(float64(minflt)/float64(b.N), "minflt/op")
	b.ReportMetric(admit.Seconds()*1e3/float64(b.N), "admit-ms/op")
}

// usage is the user and system CPU the process has used so far, and the minor
// page faults it has taken.
func usage(b *testing.B) (cpu time.Duration, minflt int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), int64(ru.Minflt)
}
