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
// payload) and, for every phase one client drives alone, the same virtual
// duration. Recovery rebuilds eight members at once and the encode runs four
// map tasks at once: streams that book a link at the same virtual instant are
// ordered by the Go scheduler, so those two phases are held only to their link
// bound and logged run beside run with the difference. Every plan, task
// preference and repair target is a function of (seed, what it is for), so
// the layouts repeat; over 50 runs the encode took 67.627 ms on every one,
// recovery 84.47-90.33 ms in steps of one 0.24 ms slice. That difference is
// what is left of ROADMAP item 1(b); the phases join the loop when it is
// zero for both.
func TestLifecycleRepeats(t *testing.T) {
	a, b := lifecycleOnBench(t), lifecycleOnBench(t)
	for _, phase := range []struct {
		what string
		a, b time.Duration
	}{{"4k writes", a.write, b.write}, {"k reads", a.read, b.read}, {"the degraded read", a.degraded, b.degraded}} {
		if phase.a != phase.b {
			t.Errorf("%s took %v, then %v: virtual time did not repeat", phase.what, phase.a, phase.b)
		}
		t.Logf("%s: %v", phase.what, phase.a)
	}
	t.Logf("encode: %v, then %v (difference %v), link bound %v", a.encode, b.encode, (a.encode - b.encode).Abs(), a.encodeBound)
	t.Logf("recovery: %v, then %v (difference %v), link bound %v", a.recover, b.recover, (a.recover - b.recover).Abs(), a.recoverBound)
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
