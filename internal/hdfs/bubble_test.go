//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package hdfs

import (
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ear/internal/fabric"
	"ear/internal/topology"
)

// TestMain runs the package's whole suite, unedited, inside one synctest
// bubble (GOEXPERIMENT=synctest go test ./internal/hdfs): time.Now, timers
// and fabric.SleepUntil are on a fake clock that moves only when every
// goroutine is durably blocked, so an operation takes what the design charges
// it and nothing for the host, and a goroutine left behind keeps the bubble
// from returning. DESIGN.md, "Time in tests", has the limits (synctest.Run is
// go1.24/1.25's API; never pass -bench with the tag).
func TestMain(m *testing.M) {
	var code int
	synctest.Run(func() { code = m.Run() })
	os.Exit(code)
}

// heldTo on the fake clock: every one of ops runs of op takes its closed
// form, to the rounding of a booking (the fabric truncates a slice's link
// time to the nanosecond: 40 ns in all over the 4 KiB slices of a degraded
// read), and the same time.Duration as the first. The limit is the wall
// clock's.
func heldTo(t *testing.T, what string, ops int, model, _ time.Duration, op func()) {
	t.Helper()
	first := took(op)
	for run := 1; run < ops; run++ {
		if got := took(op); got != first {
			t.Errorf("%s took %v on run %d and %v on run 0: virtual time did not repeat", what, got, run, first)
		}
	}
	if d := first - model; d.Abs() >= time.Microsecond {
		t.Errorf("%s took %v, want the model's %v (off by %v)", what, first, model, d)
	}
	t.Logf("%s took %v on each of %d runs, model %v", what, first, ops, model)
}

// TestLifecycleRepeats runs the benchmark's lifecycle twice in one process:
// the same bytes (each run reads every block back against its seeded
// payload) and, for every phase, the same virtual duration. Every plan, task
// preference and repair target is a function of (seed, what it is for), so
// the layouts repeat. The encode runs four map tasks and recovery eight
// repairs at once, and streams that book a link at the same virtual instant
// are ordered by whoever books first; the chain engine removes those ties
// within a run, where a fold's rows wake a microsecond apart and its
// read-ahead starts a stripe-keyed phase after the run's start (chain.go). In
// 50 processes at GOMAXPROCS 2, five each at 1, 4 and 8, and under -race, the
// encode took 66.895 ms on every run (one chain down which both parity rows
// travelled took 67.627) and recovery 88.745 ms (84.47-90.33 ms before the
// phase, in steps of one 0.24 ms slice). Both are logged beside their link
// bounds.
func TestLifecycleRepeats(t *testing.T) {
	a, b := lifecycleOnBench(t), lifecycleOnBench(t)
	for _, phase := range []struct {
		what string
		a, b time.Duration
	}{{"4k writes", a.write, b.write}, {"k reads", a.read, b.read}, {"the degraded read", a.degraded, b.degraded},
		{"the encode", a.encode, b.encode}, {"recovery", a.recover, b.recover}} {
		if phase.a != phase.b {
			t.Errorf("%s took %v, then %v: virtual time did not repeat", phase.what, phase.a, phase.b)
		}
		t.Logf("%s: %v", phase.what, phase.a)
	}
	t.Logf("encode link bound %v, recovery link bound %v", a.encodeBound, a.recoverBound)
}

// TestEncodeDesignTime encodes 50 stripes of the benchmark geometry: 48 x k
// seeded writes at lifted rates, flushed (EAR seals a stripe per core rack,
// the flush the short ones), then one encode job at the shaped rates. It logs
// the virtual encode time beside its link bound and the classes of the links
// that set it, and holds the encode to 405 ms. Folding both parity rows down
// one chain and handing row 2 back to the node that led it took 419.3-423.7
// ms against a 390.6 ms NIC-uplink bound; with one chain per row it takes
// 396.0 ms against 359.4 ms, which the busiest disk (46 block reads, against
// a mean of 36) and the busiest uplink (23 blocks) set together.
func TestEncodeDesignTime(t *testing.T) {
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	rng := rand.New(rand.NewSource(81))
	data := make([]byte, cfg.BlockSizeBytes)
	for i := 0; i < 48*cfg.K; i++ {
		rng.Read(data)
		if _, err := c.WriteBlock(topology.NodeID(rng.Intn(c.Topology().Nodes())), data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	before := c.Fabric().Snapshot()
	var stats EncodeStats
	dur := took(func() {
		var err error
		if stats, err = c.RaidNode().EncodeAll(); err != nil {
			t.Fatal(err)
		}
	})
	// The busiest link of each class, the classes whose busiest link sets the
	// bound, and the disks' block reads.
	busiest := make(map[fabric.LinkClass]time.Duration)
	var bound time.Duration
	var disks []int
	for _, l := range c.Fabric().Snapshot().Sub(before).Links {
		d := onLink(int(l.MovedBytes), l.RateBytesPerSec)
		busiest[l.Class] = max(busiest[l.Class], d)
		bound = max(bound, d)
		if l.Class == fabric.ClassDisk {
			disks = append(disks, int(l.MovedBytes)/cfg.BlockSizeBytes)
		}
	}
	var setBy []fabric.LinkClass
	for cl, d := range busiest {
		if d == bound {
			setBy = append(setBy, cl)
		}
	}
	slices.Sort(setBy)
	t.Logf("encode of %d stripes: %v, link bound %v set by the busiest %v links (busiest per class %v); the busiest disk read %d blocks, the mean %.2f",
		stats.Stripes, dur, bound, setBy, busiest, slices.Max(disks), float64(sumOf(disks))/float64(len(disks)))
	if dur < bound-time.Microsecond || dur > 405*time.Millisecond {
		t.Errorf("encode of %d stripes took %v, want within [%v, 405ms]", stats.Stripes, dur, bound)
	}
}

// twoWriters runs two closed-loop writers on a fresh cluster of cfg, each
// writing blocks blocks from the nodes next(w) yields, and returns every
// write's duration, the phase's and the cluster.
func twoWriters(t *testing.T, cfg Config, blocks int, next func(w int) func() topology.NodeID) (lat []time.Duration, phase time.Duration, c *Cluster) {
	t.Helper()
	c = newCluster(t, cfg)
	var mu sync.Mutex
	var wg sync.WaitGroup
	phase = took(func() {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(node func() topology.NodeID) {
				defer wg.Done()
				data := make([]byte, cfg.BlockSizeBytes)
				for i := 0; i < blocks; i++ {
					n := node()
					d := took(func() {
						if _, err := c.WriteBlock(n, data); err != nil {
							t.Error(err)
						}
					})
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}(next(w))
		}
		wg.Wait()
	})
	return lat, phase, c
}

// benchWalks are the benchmark's client walks: writer w issues its writes
// from seeded shuffles of all nodes, one after another.
func benchWalks(seed int64, nodes int) func(w int) func() topology.NodeID {
	return func(w int) func() topology.NodeID {
		rng := rand.New(rand.NewSource(seed*7919 + 101 + int64(w)))
		var perm []int
		return func() topology.NodeID {
			if len(perm) == 0 {
				perm = rng.Perm(nodes)
			}
			n := perm[0]
			perm = perm[1:]
			return topology.NodeID(n)
		}
	}
}

// TestTwoWritersMissEachOther: two closed-loop writers on the benchmark
// geometry. Replica 2 goes to the eligible rack, then node, with the fewest
// replicas the NameNode counts in flight, so two writes under way land on
// different downlinks wherever their stripes have room. (a) Writers pinned to
// nodes 0 and 5, 72 blocks each: on every cluster seed the mean write takes at
// most 1.10 x B/R (the uniform draw: 1.14-1.21 x, 28-39 of 144 writes above
// B/R; steered 1.00-1.05 x, 0-11). (b) Two seeded 16-node walks like the
// benchmark's write 144 blocks in at most 1.40 s on the mean over the seeds
// (uniform: 1.44-1.51 s, steered 1.34-1.36 s, over six passes). A single walk
// is held to the mean, not on its own, because it spans 1.30-1.43 s steered
// and 1.38-1.62 s uniform: allocations at one instant are still ordered by the
// scheduler (ROADMAP 1(b)), and when both writers sit in one rack they share
// its uplink, which no placement can change. The spread is logged.
func TestTwoWritersMissEachOther(t *testing.T) {
	cfg := benchGeometry()
	block := onLink(cfg.BlockSizeBytes, cfg.BandwidthBytesPerSec)
	pinned := func(w int) func() topology.NodeID {
		node := []topology.NodeID{0, 5}[w]
		return func() topology.NodeID { return node }
	}
	var means []float64
	var phases []time.Duration
	for seed := int64(1); seed <= 5; seed++ {
		cfg.Seed = seed
		lat, _, _ := twoWriters(t, cfg, 72, pinned)
		var sum time.Duration
		above := 0
		for _, d := range lat {
			sum += d
			if d > block {
				above++
			}
		}
		mean := float64(sum) / float64(len(lat)) / float64(block)
		if mean > 1.10 {
			t.Errorf("seed %d, writers on nodes 0 and 5: the mean write took %.3f x B/R (%d of %d above B/R), want at most 1.10",
				seed, mean, above, len(lat))
		}
		_, phase, _ := twoWriters(t, cfg, 72, benchWalks(seed, cfg.Racks*cfg.NodesPerRack))
		t.Logf("seed %d: pinned, mean write %.3f x B/R with %d of %d above it; walks, 144 writes in %v", seed, mean, above, len(lat), phase)
		means, phases = append(means, mean), append(phases, phase)
	}
	var sum time.Duration
	for _, p := range phases {
		sum += p
	}
	if mean := sum / time.Duration(len(phases)); mean > 1400*time.Millisecond {
		t.Errorf("two walks: 144 writes took %v on the mean over %d seeds (%v), want at most 1.4s", mean, len(phases), phases)
	}
	t.Logf("over %d runs: pinned %.3f-%.3f x B/R, walks %v-%v (mean %v)", len(means), slices.Min(means), slices.Max(means),
		slices.Min(phases), slices.Max(phases), sum/time.Duration(len(phases)))
}

// TestTwoWritersKeepBalance holds the paper's point (iii) under the steered
// draw: 20 stripes written by two concurrent walks on the benchmark geometry
// leave per-node replica counts with max / mean at most 32/30, the uniform
// draw's worst on the same cluster seeds (1.033-1.067 over all replicas and
// 1.000-1.067 over replica 2 alone, seeds 1-8; the steered draw measured the
// same ranges). The draw stays uniform among the least-loaded places, and a
// stripe still covers its remote nodes once each.
func TestTwoWritersKeepBalance(t *testing.T) {
	cfg := benchGeometry()
	skew := func(counts []int) float64 {
		return float64(slices.Max(counts)) * float64(len(counts)) / float64(sumOf(counts))
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg.Seed = seed
		_, _, c := twoWriters(t, cfg, 10*cfg.K, benchWalks(seed, cfg.Racks*cfg.NodesPerRack))
		all, second := make([]int, c.Topology().Nodes()), make([]int, c.Topology().Nodes())
		for id := 0; id < c.NameNode().BlockCount(); id++ {
			meta, err := c.NameNode().Block(topology.BlockID(id))
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range meta.Nodes {
				all[n]++
				if i > 0 {
					second[n]++
				}
			}
		}
		if s := skew(all); s > 32.0/30+1e-9 {
			t.Errorf("seed %d: per-node replicas %v, max/mean %.4f; want at most 32/30", seed, all, s)
		}
		t.Logf("seed %d: max/mean per node %.4f over all replicas, %.4f over replica 2", seed, skew(all), skew(second))
	}
}

func sumOf(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
