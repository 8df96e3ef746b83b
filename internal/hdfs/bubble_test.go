//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package hdfs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/telemetry"
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
	designTime(t, what, first, model)
}

// update has the design-time tests rewrite their rows of BENCH_design.json
// instead of holding the run to them:
//
//	GOEXPERIMENT=synctest go test -run 'TestLifecycleRepeats|TestDegradedReadLatency|TestOneClientBlockLatency|TestPipelinedWriteLatency|TestEncodeDesignTime|TestLifecycleEncodeDesignTime|TestForegroundEncodeDesignTime' ./internal/hdfs -update
var update = flag.Bool("update", false, "rewrite the rows of BENCH_design.json that the run measures")

// designFile is the committed record of every design time: per row, the
// virtual duration and the bound it is logged beside (a closed form or a
// link bound; 0 where the test has none), in nanoseconds.
const designFile = "../../BENCH_design.json"

type designRow struct {
	DesignNS int64 `json:"design_ns"`
	BoundNS  int64 `json:"bound_ns"`
}

var design struct {
	sync.Mutex
	rows map[string]designRow
}

// designTime holds the design time of the calling test's row what to
// BENCH_design.json, to the nanosecond, or with -update writes it there. A
// row is named by the top-level test and what, so every subtest of one test
// shares it.
func designTime(t *testing.T, what string, dur, bound time.Duration) {
	t.Helper()
	test, _, _ := strings.Cut(t.Name(), "/")
	name := test + ": " + what
	design.Lock()
	defer design.Unlock()
	if design.rows == nil {
		design.rows = make(map[string]designRow)
		if b, err := os.ReadFile(designFile); err == nil {
			if err := json.Unmarshal(b, &design.rows); err != nil {
				t.Fatalf("%s: %v", designFile, err)
			}
		} else if !*update {
			t.Fatal(err)
		}
	}
	row := designRow{int64(dur), int64(bound)}
	if !*update {
		if got, ok := design.rows[name]; !ok || got != row {
			t.Errorf("%s: %v beside %v; %s records %v beside %v (present: %v). A change that moves a design time regenerates the file with -update and says why in CHANGES.md",
				name, dur, bound, designFile, time.Duration(got.DesignNS), time.Duration(got.BoundNS), ok)
		}
		return
	}
	design.rows[name] = row
	b, err := json.MarshalIndent(design.rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(designFile, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleRepeats runs the benchmark's lifecycle twice in one process
// at each GOMAXPROCS of 1, 2 and 8: the same bytes (each run reads every
// block back against its seeded payload) and, for every phase, the same
// virtual duration, and the encode puts the same bytes on every link
// (fabric.Snapshot). Every plan, task preference and repair target is a
// function of (seed, what it is for), so the layouts repeat, and streams
// that book a link at the same virtual instant are ordered by the one stage
// loop that books them, which takes its steps in a fixed order: the encode
// job folds the stripes of its four map tasks in one loop, and recovery, of
// another node on the new layout, its 6 repairs in one loop, which shares
// each node's read-ahead among them. No loop sleeps past its instant. While
// each map task ran a loop of its own, the loops were ordered only by a
// phase of `stripe mod 1000` ns that every step of a task's loop slept past
// its instant, and the encode took 52.734349 ms; in one loop it takes
// 52.734348 ms (54.687 with a loop per fold, 66.895 when the planner's draw
// picked the homes) and recovery 85.205 ms against a link bound of 78.125.
// On the layout that per-rack placement streams drew, recovery took 96.191 ms
// against 93.75, and 100.220 ms while each repair ran a loop of its own,
// phased by its stripe. Both are logged beside their link bounds, and
// recovery is held to 96.6 ms.
func TestLifecycleRepeats(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, b := lifecycleOnBench(t), lifecycleOnBench(t)
			for _, phase := range []struct {
				what        string
				a, b, bound time.Duration
			}{{"4k writes", a.write, b.write, 0}, {"k reads", a.read, b.read, 0}, {"the degraded read", a.degraded, b.degraded, 0},
				{"the encode", a.encode, b.encode, a.encodeBound}, {"recovery", a.recover, b.recover, a.recoverBound}} {
				if phase.a != phase.b {
					t.Errorf("%s took %v, then %v: virtual time did not repeat", phase.what, phase.a, phase.b)
				}
				t.Logf("%s: %v", phase.what, phase.a)
				designTime(t, phase.what, phase.a, phase.bound)
			}
			if !reflect.DeepEqual(a.encodeLinks, b.encodeLinks) {
				t.Errorf("the encode moved %+v, then %+v: its link totals did not repeat", a.encodeLinks, b.encodeLinks)
			}
			t.Logf("encode link bound %v, recovery link bound %v", a.encodeBound, a.recoverBound)
			if a.recover > 96600*time.Microsecond {
				t.Errorf("recovery took %v, want at most 96.6ms", a.recover)
			}
		})
	}
}

// encodeRun is one encode job timed on the fake clock: how long it took, its
// link bound, the classes whose busiest link sets that bound, the busiest
// link's time per class, and each disk's and NIC uplink's blocks.
type encodeRun struct {
	stripes    int
	dur, bound time.Duration
	setBy      []fabric.LinkClass
	busiest    map[fabric.LinkClass]time.Duration
	disks, ups []int
}

// String is the run as the design-time tests log it.
func (r encodeRun) String() string {
	return fmt.Sprintf("encode of %d stripes: %v, link bound %v set by the busiest %v links (busiest per class %v); the busiest disk read %d blocks (mean %.2f), the busiest uplink sent %d (mean %.2f)",
		r.stripes, r.dur, r.bound, r.setBy, r.busiest, slices.Max(r.disks), mean(r.disks), slices.Max(r.ups), mean(r.ups))
}

// shapedEncode flushes c's open stripes, encodes every stripe at the shaped
// rates of cfg and fails the test if the encode beat its link bound.
func shapedEncode(t *testing.T, c *Cluster, cfg Config) (r encodeRun) {
	t.Helper()
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	before := c.Fabric().Snapshot()
	r.dur = took(func() {
		stats, err := c.RaidNode().EncodeAll()
		if err != nil {
			t.Fatal(err)
		}
		r.stripes = stats.Stripes
	})
	r.busiest = make(map[fabric.LinkClass]time.Duration)
	for _, l := range c.Fabric().Snapshot().Sub(before).Links {
		d := onLink(int(l.MovedBytes), l.RateBytesPerSec)
		r.busiest[l.Class] = max(r.busiest[l.Class], d)
		r.bound = max(r.bound, d)
		switch l.Class {
		case fabric.ClassDisk:
			r.disks = append(r.disks, int(l.MovedBytes)/cfg.BlockSizeBytes)
		case fabric.ClassNodeUp:
			r.ups = append(r.ups, int(l.MovedBytes)/cfg.BlockSizeBytes)
		}
	}
	for cl, d := range r.busiest {
		if d == r.bound {
			r.setBy = append(r.setBy, cl)
		}
	}
	slices.Sort(r.setBy)
	if r.dur < r.bound-time.Microsecond {
		t.Errorf("%v: under its link bound", r)
	}
	return r
}

// TestEncodeDesignTime encodes 50 stripes of the benchmark geometry: 48 x k
// seeded writes at lifted rates, flushed (EAR seals a stripe per core rack,
// the flush the short ones), then one encode job at the shaped rates. It logs
// the virtual encode time beside its link bound and the classes of the links
// that set it, and holds the encode to 375 ms. Folding both parity rows down
// one chain took 419.3-423.7 ms against a 390.6 ms NIC-uplink bound; one chain
// per row, 396.0 ms against 359.4 ms, which the busiest disk (46 block reads,
// against a mean of 36) and the busiest uplink (23 blocks) set together. With
// the parity homes taking turns the uplinks send at most 20 blocks, and the
// encode took 379.6 ms against the disk's 359.4 ms alone while every fold
// read its members ahead on its own; with one read-ahead per node for all of
// a map task's folds, which books their slices in block order, 361.6 ms.
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
	r := shapedEncode(t, c, cfg)
	t.Log(r)
	designTime(t, "encode of 50 stripes", r.dur, r.bound)
	if r.dur > 375*time.Millisecond {
		t.Errorf("%v: want at most 375ms", r)
	}
}

// TestLifecycleEncodeDesignTime encodes what the benchmark's lifecycle-shaped
// round writes (lifecycleWrites) on six cluster seeds, flushed, at the shaped
// rates, twice a seed. Every node writes the same share, and each core rack's
// four stripes are one map task's, encoded at once. When the planner's draw
// picked the parity holders, a node that held none of a rack's parity
// forwarded both rows of every stripe: the busiest uplink sent 7 or 8 blocks,
// for a 109.4-125 ms bound, and the encodes took 117.4-137.7 ms, 128.7 on the
// mean. Taking turns, no uplink sends more than 6 blocks and the bound is
// 93.75 ms (6 blocks a NIC, and the busiest disk's 12 reads where it has
// them). While each fold ran a loop of its own, whose read-ahead a disk
// served first come, first served beside the task's other folds, the encodes
// took 104.7-110.1 ms, 107.1 on the mean, and seeds 1 and 4 each resolved a
// tie between two folds either way, by the scheduler. A map task's folds now
// run in one loop with one read-ahead per node, which books their slices in
// block order: the encodes take 96.2-97.9 ms, 96.9 on the mean, the same on
// both runs of a seed. The test holds each seed's two runs equal, the mean
// to 100 ms and every uplink to 6 blocks.
func TestLifecycleEncodeDesignTime(t *testing.T) {
	var sum time.Duration
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		var runs [2]encodeRun
		for i := range runs {
			c, cfg := lifecycleWrites(t, seed)
			runs[i] = shapedEncode(t, c, cfg)
		}
		r := runs[0]
		t.Logf("seed %d: %v", seed, r)
		designTime(t, fmt.Sprintf("encode, seed %d", seed), r.dur, r.bound)
		if runs[1].dur != r.dur {
			t.Errorf("seed %d: the encode took %v, then %v: virtual time did not repeat", seed, r.dur, runs[1].dur)
		}
		if up := slices.Max(r.ups); up > 6 {
			t.Errorf("seed %d: an uplink sent %d blocks over the encode, want at most 6", seed, up)
		}
		sum += r.dur
	}
	t.Logf("mean encode %v over %d seeds", sum/seeds, seeds)
	if sum/seeds > 100*time.Millisecond {
		t.Errorf("the encodes took %v on the mean over %d seeds, want at most 100ms", sum/seeds, seeds)
	}
}

// TestFoldForwardWaitsForRoom blocks a forward rather than a disk
// read-ahead. A two-row fold runs over k blocks of twice a stream's window,
// toward two sinks that hold no member. One sink's NIC runs at a quarter of
// the link rate, so its row's delivery stream fills its window and the loop
// waits for the instant Stream.Room names, while the other row runs on. Both
// rows must land the parity of the payload, and the run must take the same
// virtual time twice. Every span of the fast row must end before the slow
// row's delivery ends.
func TestFoldForwardWaitsForRoom(t *testing.T) {
	cfg := testConfig("rr")
	cfg.BlockSizeBytes = 256 << 10
	cfg.BandwidthBytesPerSec = 16 << 20
	c := newCluster(t, cfg)
	ids, contents := writeBlocks(t, c, cfg.K, rand.New(rand.NewSource(67)))
	data := make([][]byte, cfg.K)
	holders := make([][]topology.NodeID, cfg.K)
	for i, id := range ids {
		data[i] = contents[id]
		var err error
		if holders[i], err = c.NameNode().LiveReplicas(id); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Coder().Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, 2)
	for j := range rows {
		if rows[j], err = c.Coder().ParityRowView(j); err != nil {
			t.Fatal(err)
		}
	}
	var sinks []topology.NodeID
	for n := topology.NodeID(0); int(n) < c.Topology().Nodes() && len(sinks) < len(rows); n++ {
		if !slices.ContainsFunc(holders, func(h []topology.NodeID) bool { return slices.Contains(h, n) }) {
			sinks = append(sinks, n)
		}
	}
	if len(sinks) < len(rows) {
		t.Fatalf("only %d nodes hold no member, want %d sinks", len(sinks), len(rows))
	}
	slow := len(rows) - 1
	if err := c.Fabric().SetNodeRate(sinks[slow], cfg.BandwidthBytesPerSec/4); err != nil {
		t.Fatal(err)
	}
	key := func(pos int) blockstore.Key { return DataKey(ids[pos]) }
	tr := telemetry.NewTracer()
	fold := func() time.Duration {
		root := tr.Start("fold")
		ctx := telemetry.ContextWithSpan(context.Background(), root)
		out := [][]byte{make([]byte, cfg.BlockSizeBytes), make([]byte, cfg.BlockSizeBytes)}
		d := took(func() {
			if _, err := c.chainFold(ctx, 0, rows, holders, key, sinks[0], sinks, out); err != nil {
				t.Fatal(err)
			}
		})
		root.End()
		for j := range out {
			if !bytes.Equal(out[j], want[j]) {
				t.Errorf("row %d's fold differs from the payload's parity", j)
			}
		}
		return d
	}
	first, second := fold(), fold()
	if first != second {
		t.Errorf("the fold took %v, then %v: virtual time did not repeat", first, second)
	}
	if floor := onLink(cfg.BlockSizeBytes, cfg.BandwidthBytesPerSec/4); first < floor {
		t.Errorf("the fold took %v, under the %v the slow sink's NIC takes for a block", first, floor)
	}
	// Stages are listed row by row, and each row walks the same cover and
	// ends in a delivery, so the first half of a fold's hops is row 0.
	var folds []telemetry.SpanSnapshot
	hops := make(map[int64][]telemetry.SpanSnapshot)
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "fold":
			folds = append(folds, sp)
		case "raidnode.chain-hop":
			hops[sp.Parent] = append(hops[sp.Parent], sp)
		}
	}
	for f, root := range folds {
		var fastEnd, slowEnd time.Duration
		for _, sp := range hops[root.ID] {
			end := sp.Start + sp.Dur - root.Start
			if hop, _ := strconv.Atoi(sp.Args["hop"]); hop < len(hops[root.ID])/2 {
				fastEnd = max(fastEnd, end)
			} else {
				slowEnd = max(slowEnd, end)
			}
		}
		if fastEnd >= slowEnd {
			t.Errorf("fold %d: the fast row's spans end at %v, not before the slow row's %v", f, fastEnd, slowEnd)
		}
		t.Logf("fold %d took %v: the fast row's spans end at %v, the slow row's at %v", f, first, fastEnd, slowEnd)
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

func mean(xs []int) float64 { return float64(sumOf(xs)) / float64(len(xs)) }

// TestForegroundEncodeDesignTime encodes the encode-foreground workload's
// layout without its clients: 104 x k blocks of the benchmark geometry
// (benchWrites on the geometry's seed), flushed, then one encode job at the
// shaped rates, twice, each on a cluster of its own that a subtest drops
// before the next (a cluster holds 0.6 GB of replicas). The link bound is
// 609.4 ms, which the busiest disk and NIC set alike (78 block reads, 39
// blocks sent). While each fold ran a loop of its own the encode took 664.1
// ms; with one loop and one read-ahead per node for each map task's folds,
// 611.8 ms. The test logs the encode beside its bound and holds both runs
// equal and the encode to 640 ms.
func TestForegroundEncodeDesignTime(t *testing.T) {
	var runs [2]encodeRun
	for i := range runs {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			c, cfg := benchWrites(t, benchGeometry().Seed, 104)
			runs[i] = shapedEncode(t, c, cfg)
		})
	}
	r := runs[0]
	t.Log(r)
	designTime(t, "encode of 104 stripes", r.dur, r.bound)
	if runs[1].dur != r.dur {
		t.Errorf("the encode took %v, then %v: virtual time did not repeat", r.dur, runs[1].dur)
	}
	if r.dur > 640*time.Millisecond {
		t.Errorf("%v: want at most 640ms", r)
	}
}

// rackStripes returns a cluster of the benchmark geometry whose encode job
// has mapTasks map tasks (Config.MapTasks), holding what the given writes
// leave: the i-th of len(from) blocks written, seeded, from node from[i] of
// rack 0, at lifted rates, and flushed. Writes are writer-local, so every
// stripe's core rack is rack 0, and with one map task all of them are its;
// with more, rack 0's stripes split into that many tasks. The shaped rates
// are back on when it returns.
func rackStripes(t *testing.T, from []int, mapTasks int, seed int64) (*Cluster, map[topology.BlockID][]byte) {
	t.Helper()
	cfg := benchGeometry()
	cfg.MapTasks = mapTasks
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	rack, err := c.Topology().NodesInRack(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	contents := make(map[topology.BlockID][]byte)
	for _, n := range from {
		data := make([]byte, cfg.BlockSizeBytes)
		rng.Read(data)
		id, err := c.WriteBlock(rack[n], data)
		if err != nil {
			t.Fatal(err)
		}
		contents[id] = data
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	return c, contents
}

// TestTaskFoldsShareReadAhead encodes two stripes that share rack 0's disks:
// a full stripe written from the rack's nodes in turn and a short one of two
// blocks from its first node, as one map task's and as two tasks' of one job
// (the core rack split in two). Either way both folds run in the job's one
// stage loop, and each node's disk serves them through one read-ahead. Both
// stripes must store the parity Coder.Encode gives; every node must open one
// disk stream for the whole job (while each map task ran a loop of its own, a
// node opened one a task); no node's disk may book a slice that starts below
// one it booked before, so neither fold's reads run ahead of the other's on
// a disk they share (a disk that served the folds first come, first served
// would book one fold's block, then the other's); and the short stripe must
// be committed — its ReplicaDeleted and StripeEncoded events — before the
// full stripe's last stage ends.
func TestTaskFoldsShareReadAhead(t *testing.T) {
	for _, tasks := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d map tasks", tasks), func(t *testing.T) { foldsShareReadAhead(t, tasks) })
	}
}

func foldsShareReadAhead(t *testing.T, tasks int) {
	cfg := benchGeometry()
	from := make([]int, cfg.K, cfg.K+2)
	for i := range from {
		from[i] = i % cfg.NodesPerRack
	}
	c, contents := rackStripes(t, append(from, 0, 0), tasks, 43)
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	tr := telemetry.NewTracer()
	c.SetTracer(tr)
	epoch := time.Now()

	offsets := make(map[topology.NodeID][]int)
	runs := make(map[topology.NodeID]map[*stageRun]bool)
	observe := func(node topology.NodeID, run *stageRun, offset int) {
		offsets[node] = append(offsets[node], offset)
		if runs[node] == nil {
			runs[node] = make(map[*stageRun]bool)
		}
		runs[node][run] = true
	}
	committed := make(map[topology.StripeID][]time.Duration)
	disks := make(map[topology.NodeID]int)
	defer jrn.Subscribe(func(e events.Event) {
		switch {
		case e.Type == events.ReplicaDeleted || e.Type == events.StripeEncoded:
			committed[e.Stripe] = append(committed[e.Stripe], time.Since(epoch))
		case e.Type == events.TransferStarted && e.Node == e.Peer:
			disks[e.Node]++
		}
	})()
	stats, err := c.RaidNode().EncodeAllCtx(context.WithValue(context.Background(), readAheadKey{}, observe))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 2 || len(stats.TaskPlacements) != tasks {
		t.Fatalf("encoded %d stripes in %d map tasks, want 2 in %d", stats.Stripes, len(stats.TaskPlacements), tasks)
	}
	for node, opened := range disks {
		if opened != 1 {
			t.Errorf("node %d opened %d disk streams over the job, want one", node, opened)
		}
	}
	if n := verifyParities(t, c, contents); n != 2*c.Coder().M() {
		t.Fatalf("verified %d parity blocks, want %d", n, 2*c.Coder().M())
	}

	shared := 0
	for node, offs := range offsets {
		if len(runs[node]) > 1 {
			shared++
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				t.Fatalf("node %d's disk booked a slice at offset %d after one at %d (offsets in booking order: %v)", node, offs[i], offs[i-1], offs)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no node's disk served both folds")
	}

	var full, short topology.StripeID
	for _, id := range c.NameNode().EncodedStripes() {
		sm, err := c.NameNode().Stripe(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.Info.Blocks) < cfg.K {
			short = id
		} else {
			full = id
		}
	}
	var fullEnd time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "raidnode.chain-hop" && sp.Args["stripe"] == strconv.FormatInt(int64(full), 10) {
			fullEnd = max(fullEnd, sp.Start+sp.Dur)
		}
	}
	ats := committed[short]
	if len(ats) == 0 || slices.Max(ats) >= fullEnd {
		t.Errorf("the short stripe %d was committed at %v, want before the full stripe %d's last stage ended at %v", short, ats, full, fullEnd)
	}
	t.Logf("%d nodes' disks served both folds; the short stripe's commit events at %v, the full stripe's last stage ended at %v", shared, ats, fullEnd)
}

// TestEncodeTaskCancel cancels an encode job of three stripes that share rack
// 0's nodes, as one map task's and as three tasks' of one stripe each (the
// core rack split in three, every task in the job's one stage loop), on a
// fresh cluster each time: at each stripe's admission (its
// StripeEncodeStarted), at each stream's open (the TransferStarted events of
// an uncancelled encode name them), at each fold's commit (its
// StripeEncoded), and on a sweep of deadlines across the uncancelled encode.
// Wherever the cancellation lands, every stripe the job committed stores the
// parity Coder.Encode gives, and every other stripe has no parity key in any
// store and every replica it had; a cancellation at a fold's commit leaves
// that fold committed. No stream stays open, no pooled buffer out, no map
// slot busy and no span open, the auditor stays clean, and requeueing the
// unencoded stripes and encoding again encodes the rest, byte-identical,
// counting every stripe once.
func TestEncodeTaskCancel(t *testing.T) {
	for _, tasks := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d map tasks", tasks), func(t *testing.T) { encodeTaskCancel(t, tasks) })
	}
}

func encodeTaskCancel(t *testing.T, tasks int) {
	cfg := benchGeometry()
	from := make([]int, 3*cfg.K)
	for i := range from {
		from[i] = i % cfg.NodesPerRack
	}
	// encode runs the job on a fresh cluster, cancelled on the first event
	// cancelOn reports, or under timeout when one is set, and checks what it
	// left. It returns the job's duration, the streams it opened and the
	// instant each stripe's commit ended.
	encode := func(where string, timeout time.Duration, cancelOn func(e events.Event) bool) (dur time.Duration, opened []events.Event, commits []time.Duration) {
		t.Helper()
		c, contents := rackStripes(t, from, tasks, 47)
		reg := telemetry.NewRegistry()
		c.SetTelemetry(reg)
		tr := telemetry.NewTracer()
		c.SetTracer(tr)
		jrn := events.NewJournal(1 << 14)
		c.SetJournal(jrn)
		aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
		aud.Attach(jrn)
		ctx, cancel := context.WithCancel(context.Background())
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), timeout)
		}
		defer cancel()
		committedAt := -1
		t0 := time.Now()
		unsub := jrn.Subscribe(func(e events.Event) {
			switch e.Type {
			case events.TransferStarted:
				opened = append(opened, e)
			case events.StripeEncoded:
				commits = append(commits, time.Since(t0))
			}
			if cancelOn != nil && cancelOn(e) {
				if e.Type == events.StripeEncoded {
					committedAt = len(commits)
				}
				cancel()
			}
		})
		_, err := c.RaidNode().EncodeAllCtx(ctx)
		dur = time.Since(t0)
		unsub()
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: %v", where, err)
		}
		encoded := c.NameNode().EncodedStripes()
		if err == nil && len(encoded) != 3 {
			t.Fatalf("%s: the job succeeded with %d of 3 stripes encoded", where, len(encoded))
		}
		if committedAt >= 0 && len(encoded) < committedAt {
			t.Errorf("%s: %d stripes encoded, want at least the %d committed when the cancel landed", where, len(encoded), committedAt)
		}
		if n := verifyParities(t, c, contents); n != len(encoded)*c.Coder().M() {
			t.Errorf("%s: verified %d parity blocks of %d encoded stripes", where, n, len(encoded))
		}
		stripes := make(map[topology.StripeID]bool)
		for id := range contents {
			meta, err := c.NameNode().Block(id)
			if err != nil {
				t.Fatal(err)
			}
			stripes[meta.Stripe] = true
		}
		if len(stripes) != 3 {
			t.Fatalf("the writes made %d stripes, want 3", len(stripes))
		}
		for id := range stripes {
			sm, err := c.NameNode().Stripe(id)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(encoded, id) {
				continue
			}
			for n := 0; n < c.Topology().Nodes(); n++ {
				dn, _ := c.DataNodeOf(topology.NodeID(n))
				for j := 0; j < c.Coder().M(); j++ {
					if dn.Store.Has(ParityKey(id, j)) {
						t.Errorf("%s: unencoded stripe %d has parity %d on node %d", where, id, j, n)
					}
				}
			}
			for i, b := range sm.Info.Blocks {
				for _, n := range sm.Info.Placements[i].Nodes {
					if dn, _ := c.DataNodeOf(n); !dn.Store.Has(DataKey(b)) {
						t.Errorf("%s: unencoded stripe %d lost the replica of block %d on node %d", where, id, b, n)
					}
				}
			}
		}
		if got := reg.Gauge("fabric_streams_active", "").With().Value(); got != 0 {
			t.Errorf("%s: %g fabric streams left open", where, got)
		}
		if out := c.BufferPool().Outstanding(); out != 0 {
			t.Errorf("%s: %d pooled buffers outstanding", where, out)
		}
		if got := reg.Gauge("mapred_slots_busy", "").With().Value(); got != 0 {
			t.Errorf("%s: %g map slots left busy", where, got)
		}
		for _, sp := range tr.Spans() {
			if !sp.Ended {
				t.Errorf("%s: span %s %v still open", where, sp.Name, sp.Args)
			}
		}
		if rep := aud.Report(); rep.Total() != 0 {
			t.Errorf("%s: auditor dirty: %+v", where, rep)
		}

		requeued, rerr := c.NameNode().RequeueUnencodedStripes()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if requeued != 3-len(encoded) {
			t.Errorf("%s: requeued %d stripes with %d of 3 encoded", where, requeued, len(encoded))
		}
		setRates(t, c, 64<<30, 64<<30)
		again, rerr := c.RaidNode().EncodeAll()
		if rerr != nil {
			t.Fatalf("%s: re-encode: %v", where, rerr)
		}
		if again.Stripes != requeued {
			t.Errorf("%s: re-encoded %d stripes, requeued %d", where, again.Stripes, requeued)
		}
		if got := reg.Counter("raidnode_stripes_encoded_total", "").With().Value(); got != 3 {
			t.Errorf("%s: raidnode_stripes_encoded_total = %g over both jobs, want 3", where, got)
		}
		if n := verifyParities(t, c, contents); n != 3*c.Coder().M() {
			t.Errorf("%s: verified %d parity blocks after the re-encode, want %d", where, n, 3*c.Coder().M())
		}
		for id, want := range contents {
			if got, err := c.ReadBlock(0, id); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: block %d reads back %v, not its payload", where, id, err)
			}
		}
		if rep := aud.Report(); rep.Total() != 0 {
			t.Errorf("%s: auditor dirty after the re-encode: %+v", where, rep)
		}
		return dur, opened, commits
	}
	whole, streams, commits := encode("uncancelled", 0, nil)
	for i := range 3 {
		encode(fmt.Sprintf("at stripe %d's admission", i), 0, nthEvent(events.StripeEncodeStarted, i))
		encode(fmt.Sprintf("at fold %d's commit", i), 0, nthEvent(events.StripeEncoded, i))
	}
	for s, at := range streams {
		encode(fmt.Sprintf("at stream %d (%d->%d)", s, at.Node, at.Peer), 0, nthEvent(events.TransferStarted, s))
	}
	for step := time.Duration(1); step <= 10; step++ {
		encode(fmt.Sprintf("on a deadline at %d/10 of %v", step, whole), step*whole/10, nil)
	}
	for i, at := range commits {
		encode(fmt.Sprintf("on a deadline just past fold %d's commit at %v", i, at), at+time.Nanosecond, nil)
	}
	t.Logf("the uncancelled encode took %v, opened %d streams and committed its folds at %v", whole, len(streams), commits)
}

// nthEvent reports the i-th event of type typ it is handed, counting from 0.
func nthEvent(typ events.Type, i int) func(events.Event) bool {
	seen := 0
	return func(e events.Event) bool {
		if e.Type != typ {
			return false
		}
		seen++
		return seen == i+1
	}
}

// TestAdmitFailureBooksNothing admits to one stage loop a copy of a member
// toward a node outside the topology, whose delivery stream fails to open
// once the member's holder has opened its disk stream for it, and then a
// sound copy of the same member to a live node. The failed run must join no
// read-ahead: the loop's observer sees no slice booked for it, and the sound
// copy lands the member's bytes in the virtual time it takes in a loop of its
// own. While admit joined each read to its node's read-ahead as it went, the
// failed run's read stayed there and the disk booked its slices first.
func TestAdmitFailureBooksNothing(t *testing.T) {
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	ids, contents := writeBlocks(t, c, 1, rand.New(rand.NewSource(73)))
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	live, err := c.NameNode().LiveReplicas(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	from := live[0]
	sink := topology.NodeID(0)
	for slices.Contains(live, sink) {
		sink++
	}
	holders := make([][]topology.NodeID, cfg.K)
	holders[0] = []topology.NodeID{from}
	row := make([]byte, cfg.K)
	row[0] = 1
	// copyTo plans the unit-row fold of the member from its holder to the
	// node, anchored at the holder: a head stage that reads the member and a
	// delivery stage. The run's block is the copy.
	copyTo := func(to topology.NodeID) []*chainStage {
		stages, err := c.foldStages(0, [][]byte{row}, holders, func(int) blockstore.Key { return DataKey(ids[0]) }, from, []topology.NodeID{to})
		if err != nil {
			t.Fatal(err)
		}
		return stages
	}
	spans := hopSpans(context.Background(), 0)
	alone := took(func() {
		if _, err := c.runStages(context.Background(), copyTo(sink), from, spans); err != nil {
			t.Fatal(err)
		}
	})

	booked := make(map[*stageRun]int)
	ctx := context.WithValue(context.Background(), readAheadKey{}, func(_ topology.NodeID, run *stageRun, _ int) { booked[run]++ })
	l := &stageLoop{c: c}
	defer l.close()
	nowhere := topology.NodeID(c.Topology().Nodes())
	if _, err := l.admit(ctx, copyTo(nowhere), from, spans); !errors.Is(err, topology.ErrUnknownNode) {
		t.Fatalf("admitting a copy to node %d = %v, want topology.ErrUnknownNode", nowhere, err)
	}
	sound, err := l.admit(ctx, copyTo(sink), from, spans)
	if err != nil {
		t.Fatal(err)
	}
	shared := took(func() {
		if err := l.run(ctx, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(booked) != 1 || booked[sound] == 0 {
		t.Errorf("the read-ahead booked slices for %d runs, %d of them the sound copy's; want the sound copy's alone", len(booked), booked[sound])
	}
	if shared != alone {
		t.Errorf("the sound copy took %v after a failed admission, %v in a loop of its own", shared, alone)
	}
	out := sound.blocks()[0]
	if !bytes.Equal(out, contents[ids[0]]) {
		t.Error("the sound copy differs from the member")
	}
	t.Logf("a copy of node %d's member to node %d took %v, in a loop of its own and after a failed admission", from, sink, alone)
}

// seededWrite is one block a writer sends, and the node it sends it from.
type seededWrite struct {
	from topology.NodeID
	data []byte
}

// lifecycleDraws returns what lifecycleOnBench writes, drawn as writeBlocks
// draws it: 4k seeded blocks of the benchmark geometry and their writers.
func lifecycleDraws() []seededWrite {
	cfg := benchGeometry()
	rng := rand.New(rand.NewSource(81))
	writes := make([]seededWrite, 4*cfg.K)
	for i := range writes {
		writes[i].data = make([]byte, cfg.BlockSizeBytes)
		rng.Read(writes[i].data)
		writes[i].from = topology.NodeID(rng.Intn(cfg.Racks * cfg.NodesPerRack))
	}
	return writes
}

// lifecycleLayout returns a cluster of the benchmark geometry holding the
// writes (lifecycleDraws), written and encoded at lifted rates, with attach
// (when set) run on it before the first write; then the layout's busiest
// node is marked dead and the shaped rates are back on. It returns the
// written payload and the dead node.
func lifecycleLayout(t *testing.T, writes []seededWrite, attach func(c *Cluster)) (*Cluster, map[topology.BlockID][]byte, topology.NodeID) {
	t.Helper()
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	if attach != nil {
		attach(c)
	}
	setRates(t, c, 64<<30, 64<<30)
	contents := make(map[topology.BlockID][]byte, len(writes))
	for _, w := range writes {
		id, err := c.WriteBlock(w.from, w.data)
		if err != nil {
			t.Fatal(err)
		}
		contents[id] = w.data
	}
	encodeAll(t, c)
	dead := busiestDataNode(t, c)
	c.NameNode().MarkDead(dead)
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	return c, contents, dead
}

// TestSweepRepairsShareReadAhead recovers the lifecycle layout's busiest node
// (lifecycleLayout), one round of repairs folded in one stage loop, and
// watches every slice the loop's read-aheads book. No node's disk may book a
// slice that starts below one it booked before — the disk serves the repairs'
// reads in block order, not one repair's block after another's, as it did
// while each repair read ahead on its own — and at least one disk must serve
// two repairs. Every block must read back its payload.
func TestSweepRepairsShareReadAhead(t *testing.T) {
	c, contents, dead := lifecycleLayout(t, lifecycleDraws(), nil)
	offsets := make(map[topology.NodeID][]int)
	runs := make(map[topology.NodeID]map[*stageRun]bool)
	observe := func(node topology.NodeID, run *stageRun, offset int) {
		offsets[node] = append(offsets[node], offset)
		if runs[node] == nil {
			runs[node] = make(map[*stageRun]bool)
		}
		runs[node][run] = true
	}
	var stats RecoveryStats
	dur := took(func() {
		var err error
		stats, err = c.RecoverNode(context.WithValue(context.Background(), readAheadKey{}, observe), dead)
		if err != nil || stats.Unrecovered != 0 {
			t.Fatalf("RecoverNode(%d) = %+v, %v", dead, stats, err)
		}
	})
	shared := 0
	for node, offs := range offsets {
		if len(runs[node]) > 1 {
			shared++
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				t.Fatalf("node %d's disk booked a slice at offset %d after one at %d (offsets in booking order: %v)", node, offs[i], offs[i-1], offs)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no node's disk served two repairs")
	}
	setRates(t, c, 64<<30, 64<<30)
	verifyBlockContents(t, c, contents)
	t.Logf("%d + %d members of node %d repaired in %v; %d of %d disks served two repairs or more",
		stats.BlocksRepaired, stats.ParityRepaired, dead, dur, shared, len(offsets))
}

// TestRecoverNodeCancel cancels the recovery of the lifecycle layout's
// busiest node (lifecycleLayout), on a fresh cluster each time: at each
// repair's admission (its RepairStarted), at each stream's open (the
// TransferStarted events of an uncancelled sweep name them), at each repair's
// commit (its RepairFinished), and on deadlines at tenths of the uncancelled
// sweep. Wherever the cancellation lands, every member whose RepairFinished
// was published is recorded on its target and reads back its payload, and no
// other target stores its member or is recorded for it; no stream stays
// open, no pooled buffer out and no span open, and the auditor stays clean.
// A second sweep then repairs exactly the remainder, and every lost member
// reads back byte-identical from a live holder.
func TestRecoverNodeCancel(t *testing.T) {
	cfg := benchGeometry()
	writes := lifecycleDraws()
	// parity holds each lost parity row's payload, by stripe and row: every
	// sweep's layout is the same.
	parity := make(map[[2]int][]byte)
	// readsBack reports whether the member task rebuilt reads back its
	// payload from holder.
	readsBack := func(c *Cluster, contents map[topology.BlockID][]byte, task recoverTask, holder topology.NodeID) bool {
		t.Helper()
		if task.pos < cfg.K {
			b := task.sm.Info.Blocks[task.pos]
			got, err := c.ReadBlock(holder, b)
			return err == nil && bytes.Equal(got, contents[b])
		}
		row := [2]int{int(task.sm.Info.ID), task.pos - cfg.K}
		if parity[row] == nil {
			data := make([][]byte, cfg.K)
			for i := range data {
				data[i] = make([]byte, cfg.BlockSizeBytes)
				if i < len(task.sm.Info.Blocks) {
					data[i] = contents[task.sm.Info.Blocks[i]]
				}
			}
			rows, err := c.Coder().Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			parity[row] = rows[row[1]]
		}
		dn, err := c.DataNodeOf(holder)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dn.Store.Get(c.memberKey(task.sm, task.pos))
		return err == nil && bytes.Equal(got, parity[row])
	}
	// sweep recovers the node on a fresh layout, cancelled on the first event
	// cancelOn reports, or under timeout when one is set, and checks what it
	// left. It returns the sweep's duration, the streams it opened and the
	// repairs it finished.
	sweep := func(where string, timeout time.Duration, cancelOn func(e events.Event) bool) (dur time.Duration, opened, finished []events.Event) {
		t.Helper()
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer()
		jrn := events.NewJournal(1 << 15)
		var aud *audit.Auditor
		c, contents, dead := lifecycleLayout(t, writes, func(c *Cluster) {
			c.SetJournal(jrn)
			aud = audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
			aud.Attach(jrn)
		})
		c.SetTelemetry(reg)
		c.SetTracer(tr)
		tasks, _, err := c.planNodeRecovery(dead)
		if err != nil || len(tasks) == 0 {
			t.Fatalf("%s: a plan of %d repairs, %v", where, len(tasks), err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), timeout)
		}
		defer cancel()
		unsub := jrn.Subscribe(func(e events.Event) {
			switch e.Type {
			case events.TransferStarted:
				opened = append(opened, e)
			case events.RepairFinished:
				finished = append(finished, e)
			}
			if cancelOn != nil && cancelOn(e) {
				cancel()
			}
		})
		t0 := time.Now()
		stats, err := c.RecoverNode(ctx, dead)
		dur = time.Since(t0)
		unsub()
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: %v", where, err)
		}
		if err == nil && len(finished) != len(tasks) {
			t.Fatalf("%s: the sweep succeeded with %d of %d repairs finished", where, len(finished), len(tasks))
		}
		if got := stats.BlocksRepaired + stats.ParityRepaired; got != len(finished) {
			t.Errorf("%s: the sweep counts %d repairs, %d finished", where, got, len(finished))
		}
		for _, task := range tasks {
			sm, key := stripeOf(t, c, task.sm.Info.ID), c.memberKey(task.sm, task.pos)
			recorded, err := c.recordedHolders(sm, task.pos)
			if err != nil {
				t.Fatal(err)
			}
			done := slices.ContainsFunc(finished, func(e events.Event) bool {
				return e.Stripe == sm.Info.ID && e.Node == task.target && (task.pos >= cfg.K || e.Block == sm.Info.Blocks[task.pos])
			})
			switch {
			case done && !slices.Equal(recorded, []topology.NodeID{task.target}):
				t.Errorf("%s: stripe %d position %d finished on node %d but is recorded on %v", where, sm.Info.ID, task.pos, task.target, recorded)
			case done && !readsBack(c, contents, task, task.target):
				t.Errorf("%s: stripe %d position %d does not read back its payload from node %d", where, sm.Info.ID, task.pos, task.target)
			case !done && (slices.Contains(recorded, task.target) || holds(t, c, task.target, key)):
				t.Errorf("%s: stripe %d position %d did not finish, yet its target %d is recorded (%v) or stores it (%v)",
					where, sm.Info.ID, task.pos, task.target, recorded, holds(t, c, task.target, key))
			}
		}
		if got := reg.Gauge("fabric_streams_active", "").With().Value(); got != 0 {
			t.Errorf("%s: %g fabric streams left open", where, got)
		}
		if out := c.BufferPool().Outstanding(); out != 0 {
			t.Errorf("%s: %d pooled buffers outstanding", where, out)
		}
		for _, sp := range tr.Spans() {
			if !sp.Ended {
				t.Errorf("%s: span %s %v still open", where, sp.Name, sp.Args)
			}
		}
		if rep := aud.Report(); rep.Total() != 0 {
			t.Errorf("%s: auditor dirty: %+v", where, rep)
		}

		setRates(t, c, 64<<30, 64<<30)
		again, err := c.RecoverNode(context.Background(), dead)
		if err != nil || again.Unrecovered != 0 || again.BlocksRepaired+again.ParityRepaired != len(tasks)-len(finished) {
			t.Fatalf("%s: the second sweep = %+v, %v; want the %d of %d members the first left", where, again, err, len(tasks)-len(finished), len(tasks))
		}
		for _, task := range tasks {
			sm := stripeOf(t, c, task.sm.Info.ID)
			recorded, err := c.recordedHolders(sm, task.pos)
			if err != nil || len(recorded) != 1 || recorded[0] == dead || !readsBack(c, contents, task, recorded[0]) {
				t.Errorf("%s: after the second sweep stripe %d position %d is recorded on %v (%v), not read back from a live holder", where, sm.Info.ID, task.pos, recorded, err)
			}
		}
		if rep := aud.Report(); rep.Total() != 0 {
			t.Errorf("%s: auditor dirty after the second sweep: %+v", where, rep)
		}
		return dur, opened, finished
	}

	whole, streams, repairs := sweep("uncancelled", 0, nil)
	for i := range repairs {
		sweep(fmt.Sprintf("at repair %d's admission", i), 0, nthEvent(events.RepairStarted, i))
		sweep(fmt.Sprintf("at repair %d's commit", i), 0, nthEvent(events.RepairFinished, i))
	}
	for s, at := range streams {
		sweep(fmt.Sprintf("at stream %d (%d->%d)", s, at.Node, at.Peer), 0, nthEvent(events.TransferStarted, s))
	}
	for step := time.Duration(1); step <= 10; step++ {
		sweep(fmt.Sprintf("on a deadline at %d/10 of %v", step, whole), step*whole/10, nil)
	}
	t.Logf("the uncancelled sweep took %v, opened %d streams and finished %d repairs", whole, len(streams), len(repairs))
}
