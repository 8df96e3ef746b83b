package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ear/internal/experiments/hdfsraid"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/mapred"
	"ear/internal/stats"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// TestbedOptions configures the mini-HDFS experiments. The defaults mirror
// the paper's 13-machine testbed (12 single-node racks, 2-way replication,
// 12 map tasks) scaled down: 256 KiB blocks instead of 64 MB and link
// bandwidth scaled by the same factor, so transfer times per block match
// the testbed's while wall-clock runs stay short.
type TestbedOptions struct {
	Racks        int
	NodesPerRack int
	Replicas     int
	// Stripes is the number of stripes encoded per run (paper: 96).
	Stripes int
	// BlockSizeBytes and BandwidthBytesPerSec are the scaled block size
	// and per-link bandwidth.
	BlockSizeBytes       int
	BandwidthBytesPerSec float64
	// DiskBytesPerSec shapes local block reads (defaults to roughly the
	// link rate, like the testbed's SATA disks vs 1 GbE).
	DiskBytesPerSec float64
	MapTasks        int
	Seed            int64
	// C bounds blocks of one stripe per rack after encoding (default 1,
	// the paper's setting; multi-node-rack geometries need more so a
	// stripe fits in the cluster).
	C int
	// Tracer, when non-nil, is installed on every cluster the experiment
	// builds, so encoding jobs emit per-phase spans (earexp -trace).
	Tracer *telemetry.Tracer
	// ClusterHook, when non-nil, runs on every cluster the experiment
	// builds, right after construction and before any traffic. earexp
	// uses it to planes.Attach what its flags ask for (-audit, -timeline,
	// ...); an experiment that attaches planes itself then reuses those.
	ClusterHook func(*hdfs.Cluster)
}

// apply installs the options' observers on a freshly built cluster.
func (o TestbedOptions) apply(c *hdfs.Cluster) {
	c.SetTracer(o.Tracer)
	if o.ClusterHook != nil {
		o.ClusterHook(c)
	}
}

// withDefaults fills zero fields with the scaled testbed setting.
func (o TestbedOptions) withDefaults() TestbedOptions {
	if o.Racks == 0 {
		o.Racks = 12
	}
	if o.NodesPerRack == 0 {
		o.NodesPerRack = 1
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.Stripes == 0 {
		o.Stripes = 24
	}
	if o.BlockSizeBytes == 0 {
		o.BlockSizeBytes = 256 << 10
	}
	if o.BandwidthBytesPerSec == 0 {
		// 4 MB/s: a 1 Gb/s link scaled down with the block size so one
		// 256 KiB block takes 64 ms, an 8x-accelerated testbed second.
		o.BandwidthBytesPerSec = 4 << 20
	}
	if o.MapTasks == 0 {
		o.MapTasks = 12
	}
	if o.DiskBytesPerSec == 0 {
		// Local reads of recently written blocks are served from the page
		// cache / sequential disk at well above the 1 GbE rate; 2x the
		// link rate reproduces the testbed's local-read advantage.
		o.DiskBytesPerSec = o.BandwidthBytesPerSec * 2
	}
	if o.C == 0 {
		o.C = 1
	}
	return o
}

// clusterConfig derives the hdfs config for a policy and code.
func (o TestbedOptions) clusterConfig(policy string, n, k int) hdfs.Config {
	c := o.C
	if c == 0 {
		c = 1
	}
	return hdfs.Config{
		Racks:                    o.Racks,
		NodesPerRack:             o.NodesPerRack,
		Policy:                   policy,
		Replicas:                 o.Replicas,
		K:                        k,
		N:                        n,
		C:                        c,
		BlockSizeBytes:           o.BlockSizeBytes,
		BandwidthBytesPerSec:     o.BandwidthBytesPerSec,
		DiskBandwidthBytesPerSec: o.DiskBytesPerSec,
		MapTasks:                 o.MapTasks,
		Seed:                     o.Seed,
	}
}

// EncodeArm names the encode an experiment measures, by what the job's
// StripeEncodeStarted events say in Detail.
type EncodeArm string

const (
	// Chain is what ships: the cluster's own encode, the chain engine.
	Chain EncodeArm = "pipelined"
	// Gather is the paper's baseline, HDFS-RAID's download-k / encode /
	// upload-m (package hdfsraid), which the paper-figure experiments
	// reproduce.
	Gather EncodeArm = "gather"
)

// encodeAll runs one encoding job of the arm on the cluster. The Chain arm
// fails if any stripe was encoded otherwise: a reliability scenario must
// exercise, and an A/B run measure, what earfsd ships.
func (a EncodeArm) encodeAll(c *hdfs.Cluster) (hdfs.EncodeStats, error) {
	if a == Gather {
		return c.RaidNode().EncodeAllWith(context.Background(), hdfsraid.Parity(c))
	}
	st, err := c.RaidNode().EncodeAll()
	if err == nil && st.PipelinedStripes != st.Stripes {
		err = fmt.Errorf("%d of %d stripes took the chain", st.PipelinedStripes, st.Stripes)
	}
	return st, err
}

// populate writes blocks at full speed until the pre-encoding store holds
// the requested number of stripes, then throttles the fabric to the
// measured bandwidth. It returns the written block IDs.
func populate(c *hdfs.Cluster, stripes int, rng *rand.Rand) ([]topology.BlockID, error) {
	// Populate unthrottled; the write phase is not part of the measurement.
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		return nil, err
	}
	if err := c.Fabric().SetDiskRates(64 << 30); err != nil {
		return nil, err
	}
	var ids []topology.BlockID
	payload := make([]byte, c.Config().BlockSizeBytes)
	maxBlocks := stripes * c.Config().K * 10
	for c.NameNode().PendingStripeCount() < stripes {
		if len(ids) >= maxBlocks {
			return nil, fmt.Errorf("%w: %d blocks written without sealing %d stripes",
				ErrBadOptions, len(ids), stripes)
		}
		rng.Read(payload)
		client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
		id, err := c.WriteBlock(client, payload)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	if err := c.Fabric().SetAllRates(c.Config().BandwidthBytesPerSec); err != nil {
		return nil, err
	}
	if d := c.Config().DiskBandwidthBytesPerSec; d > 0 {
		if err := c.Fabric().SetDiskRates(d); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// encodeOnce builds a cluster, populates it, and measures one encoding job
// of the arm under injected cross traffic (a fraction of the link rate; 0:
// none), returning its statistics and the cross-rack traffic the job
// generated (a fabric snapshot delta, so the populate phase is excluded).
func encodeOnce(opts TestbedOptions, policy string, n, k int, arm EncodeArm, injected float64) (hdfs.EncodeStats, float64, error) {
	c, err := hdfs.NewCluster(opts.clusterConfig(policy, n, k))
	if err != nil {
		return hdfs.EncodeStats{}, 0, err
	}
	defer c.Close()
	opts.apply(c)
	rng := rand.New(rand.NewSource(opts.Seed + 77))
	if _, err := populate(c, opts.Stripes, rng); err != nil {
		return hdfs.EncodeStats{}, 0, err
	}
	// Pair up nodes as Iperf sender/receiver, half the cluster like the
	// paper's six pairs on twelve slaves. They stop with the job, or on the
	// way out of a failure (Close is idempotent).
	var injectors []*fabric.Injector
	stop := func() {
		for _, inj := range injectors {
			inj.Close()
		}
	}
	defer stop()
	for a := 0; injected > 0 && a+1 < c.Topology().Nodes(); a += 2 {
		inj, err := c.Fabric().InjectTraffic(topology.NodeID(a), topology.NodeID(a+1),
			injected*opts.BandwidthBytesPerSec)
		if err != nil {
			return hdfs.EncodeStats{}, 0, err
		}
		injectors = append(injectors, inj)
	}
	before := c.Fabric().Snapshot()
	st, err := arm.encodeAll(c)
	stop()
	if err != nil {
		return st, 0, err
	}
	d := c.Fabric().Snapshot().Sub(before)
	if err := settlePlacement(c); err != nil {
		return st, 0, err
	}
	return st, float64(d.CrossRackBytes) / (1 << 20), nil
}

// settlePlacement completes the placement pipeline after an encoding run:
// the PlacementMonitor + BlockMover pass relocates any block the retained
// placement left violating rack-level fault tolerance. RR routinely needs
// this (the relocation traffic EAR avoids); for EAR it is a no-op.
// Experiments call it after taking their measurements, so reported numbers
// are unaffected, and the cluster ends every run in an invariant-clean
// state for the audit layer to verify.
func settlePlacement(c *hdfs.Cluster) error {
	_, _, err := c.RaidNode().BlockMover()
	return err
}

// RunA1 reproduces Experiment A.1 / Figure 8(a): raw encoding throughput of
// RR vs EAR across (n, k) with n = k+2.
func RunA1(opts TestbedOptions) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig8a",
		Caption: "Experiment A.1: raw encoding throughput vs (n,k)",
		Headers: []string{"(n,k)", "RR MB/s", "EAR MB/s", "EAR gain", "RR cross-dl", "EAR cross-dl", "RR xrack MB", "EAR xrack MB"},
		Notes: []string{
			fmt.Sprintf("scaled testbed: %d racks x %d node(s), %d-way replication, %d stripes, %d B blocks, %.1f MB/s links",
				opts.Racks, opts.NodesPerRack, opts.Replicas, opts.Stripes, opts.BlockSizeBytes, opts.BandwidthBytesPerSec/(1<<20)),
		},
	}
	for _, k := range []int{4, 6, 8, 10} {
		n := k + 2
		rr, rrCrossMB, err := encodeOnce(opts, "rr", n, k, Gather, 0)
		if err != nil {
			return nil, fmt.Errorf("a1 rr k=%d: %w", k, err)
		}
		ear, earCrossMB, err := encodeOnce(opts, "ear", n, k, Gather, 0)
		if err != nil {
			return nil, fmt.Errorf("a1 ear k=%d: %w", k, err)
		}
		t.AddRow(fmt.Sprintf("(%d,%d)", n, k), f2(rr.ThroughputMBps), f2(ear.ThroughputMBps),
			pct(ear.ThroughputMBps/rr.ThroughputMBps),
			fmt.Sprintf("%d", rr.CrossRackDownloads), fmt.Sprintf("%d", ear.CrossRackDownloads),
			f2(rrCrossMB), f2(earCrossMB))
	}
	return t, nil
}

// RunA1UDP reproduces Experiment A.1 / Figure 8(b): encoding throughput of
// (10,8) under increasing UDP-style cross traffic. Rates are expressed as a
// fraction of link bandwidth (the paper's 0-800 Mb/s on 1 Gb/s links).
func RunA1UDP(opts TestbedOptions) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig8b",
		Caption: "Experiment A.1: encoding throughput of (10,8) vs injected cross traffic",
		Headers: []string{"injected (frac of link)", "RR MB/s", "EAR MB/s", "EAR gain"},
	}
	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		var thpt [2]float64
		for i, policy := range []string{"rr", "ear"} {
			st, _, err := encodeOnce(opts, policy, 10, 8, Gather, frac)
			if err != nil {
				return nil, err
			}
			thpt[i] = st.ThroughputMBps
		}
		t.AddRow(f2(frac), f2(thpt[0]), f2(thpt[1]), pct(thpt[1]/thpt[0]))
	}
	return t, nil
}

// A2Result is Experiment A.2's output: the summary table plus the raw write
// response series (the paper's Figure 9 curves).
type A2Result struct {
	Summary   *Table
	RRSeries  *stats.Series
	EARSeries *stats.Series
}

// A2Options extends the testbed options with the write workload.
type A2Options struct {
	TestbedOptions
	// WriteRate is the Poisson arrival rate of single-block writes
	// (requests/s, in scaled time).
	WriteRate float64
	// LeadTime is how long writes run before encoding starts.
	LeadTime time.Duration
}

func (o A2Options) withDefaults() A2Options {
	o.TestbedOptions = o.TestbedOptions.withDefaults()
	if o.WriteRate == 0 {
		o.WriteRate = 4
	}
	if o.LeadTime == 0 {
		o.LeadTime = 2 * time.Second
	}
	return o
}

// a2Run is one policy's A.2 measurement: its write responses, timed from
// the writer's start, and the encode that began encStart seconds in.
type a2Run struct {
	series   *stats.Series
	enc      hdfs.EncodeStats
	encStart float64
}

// runA2Policy measures write responses around one encoding run.
func runA2Policy(opts A2Options, policy string) (a2Run, error) {
	cfg := opts.clusterConfig(policy, 10, 8)
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		return a2Run{}, err
	}
	defer c.Close()
	opts.apply(c)
	rng := rand.New(rand.NewSource(opts.Seed + 99))
	if _, err := populate(c, opts.Stripes, rng); err != nil {
		return a2Run{}, err
	}

	series := &stats.Series{Name: policy}
	var mu sync.Mutex
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	writerRng := rand.New(rand.NewSource(opts.Seed + 101))
	var wg sync.WaitGroup
	go func() {
		defer close(done)
		payload := make([]byte, cfg.BlockSizeBytes)
		writerRng.Read(payload)
		for {
			wait := time.Duration(stats.Exponential(writerRng, 1/opts.WriteRate) * float64(time.Second))
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
			client := topology.NodeID(writerRng.Intn(c.Topology().Nodes()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				if _, err := c.WriteBlock(client, payload); err != nil {
					return
				}
				mu.Lock()
				series.Add(time.Since(start).Seconds(), time.Since(t0).Seconds())
				mu.Unlock()
			}()
		}
	}()

	time.Sleep(opts.LeadTime)
	encStats, err := Gather.encodeAll(c)
	close(stop)
	<-done
	wg.Wait()
	if err != nil {
		return a2Run{}, err
	}
	if err := settlePlacement(c); err != nil {
		return a2Run{}, err
	}
	return a2Run{series: series, enc: encStats, encStart: opts.LeadTime.Seconds()}, nil
}

// RunA2 reproduces Experiment A.2 / Figure 9: the impact of encoding on
// write performance.
func RunA2(opts A2Options) (*A2Result, error) {
	opts = opts.withDefaults()
	rr, err := runA2Policy(opts, "rr")
	if err != nil {
		return nil, fmt.Errorf("a2 rr: %w", err)
	}
	ear, err := runA2Policy(opts, "ear")
	if err != nil {
		return nil, fmt.Errorf("a2 ear: %w", err)
	}
	return &A2Result{Summary: fig9(rr, ear), RRSeries: rr.series, EARSeries: ear.series}, nil
}

// fig9 tabulates both policies' A.2 runs. A window no write landed in (a
// seeded writer can leave an encode shorter than its mean gap empty) prints
// n/a, and its row has no improvement cell.
func fig9(rr, ear a2Run) *Table {
	t := &Table{
		ID:      "fig9",
		Caption: "Experiment A.2: impact of encoding on write performance",
		Headers: []string{"metric", "RR", "EAR", "EAR improvement"},
	}
	windowRow := func(label string, window func(r a2Run) (float64, float64)) {
		row := []string{label}
		var means []float64
		for _, r := range []a2Run{rr, ear} {
			m, err := r.series.WindowMean(window(r))
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			means = append(means, m)
			row = append(row, f3(m))
		}
		if len(means) == 2 {
			row = append(row, pct(means[0]/means[1]))
		}
		t.AddRow(row...)
	}
	windowRow("write resp before encode (s)", func(r a2Run) (float64, float64) { return 0, r.encStart })
	windowRow("write resp during encode (s)", func(r a2Run) (float64, float64) {
		return r.encStart, r.encStart + r.enc.Duration.Seconds()
	})
	rrEnc, earEnc := rr.enc.Duration.Seconds(), ear.enc.Duration.Seconds()
	t.AddRow("encoding time (s)", f3(rrEnc), f3(earEnc), pct(rrEnc/nonZero(earEnc)))
	return t
}

// nonZero guards ratio denominators.
func nonZero(v float64) float64 {
	if v == 0 {
		return 1e-9
	}
	return v
}

// A3Options configures the SWIM replay.
type A3Options struct {
	TestbedOptions
	Jobs int
	// MeanInterarrival between jobs, in scaled time.
	MeanInterarrival time.Duration
}

func (o A3Options) withDefaults() A3Options {
	o.TestbedOptions = o.TestbedOptions.withDefaults()
	if o.Jobs == 0 {
		o.Jobs = 50
	}
	if o.MeanInterarrival == 0 {
		o.MeanInterarrival = 100 * time.Millisecond
	}
	return o
}

// A3Result carries the completion curves of both policies.
type A3Result struct {
	Summary *Table
	// Completions maps policy name to sorted job completion offsets.
	Completions map[string][]time.Duration
}

// runSwim replays the workload on a cluster under one policy and returns
// sorted completion offsets.
func runSwim(opts A3Options, policy string, jobs []mapred.SwimJob) ([]time.Duration, error) {
	cfg := opts.clusterConfig(policy, 10, 8)
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	opts.apply(c)
	rng := rand.New(rand.NewSource(opts.Seed + 55))
	payload := make([]byte, cfg.BlockSizeBytes)
	rng.Read(payload)

	// Pre-write every job's input at full speed.
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		return nil, err
	}
	inputs := make([][]topology.BlockID, len(jobs))
	for i, j := range jobs {
		for b := 0; b < j.InputBlocks; b++ {
			id, err := c.WriteBlock(topology.NodeID(rng.Intn(c.Topology().Nodes())), payload)
			if err != nil {
				return nil, err
			}
			inputs[i] = append(inputs[i], id)
		}
	}
	if err := c.Fabric().SetAllRates(cfg.BandwidthBytesPerSec); err != nil {
		return nil, err
	}

	completions := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			if wait := j.Arrival - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			errs[i] = runSwimJob(c, j, inputs[i], opts.Seed+int64(i))
			completions[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(completions, func(a, b int) bool { return completions[a] < completions[b] })
	return completions, nil
}

// runSwimJob executes one job: map tasks read their input blocks with
// locality preference, shuffle a share of intermediate data, and write the
// job's output back to the CFS.
func runSwimJob(c *hdfs.Cluster, j mapred.SwimJob, input []topology.BlockID, seed int64) error {
	maps := j.Maps
	if maps > len(input) {
		maps = len(input)
	}
	if maps < 1 {
		maps = 1
	}
	job := mapred.Job{Name: j.Name}
	blockSize := c.Config().BlockSizeBytes
	shufflePerMap := int(j.ShuffleMB * (1 << 20) / float64(maps))
	outPerMap := j.OutputBlocks / maps
	outExtra := j.OutputBlocks % maps
	for m := 0; m < maps; m++ {
		m := m
		var myBlocks []topology.BlockID
		for b := m; b < len(input); b += maps {
			myBlocks = append(myBlocks, input[b])
		}
		// Prefer the node holding the first input block's replica.
		preferred := mapred.AnyNode
		if meta, err := c.NameNode().Block(myBlocks[0]); err == nil && len(meta.Nodes) > 0 {
			preferred = meta.Nodes[0]
		}
		outBlocks := outPerMap
		if m < outExtra {
			outBlocks++
		}
		taskSeed := seed + int64(m)*7919
		job.Tasks = append(job.Tasks, &mapred.Task{
			Name:      fmt.Sprintf("%s-m%d", j.Name, m),
			Preferred: preferred,
			Run: func(ctx context.Context, on topology.NodeID) error {
				taskRng := rand.New(rand.NewSource(taskSeed))
				for _, b := range myBlocks {
					if _, err := c.ReadBlockCtx(ctx, on, b); err != nil {
						return err
					}
				}
				if shufflePerMap > 0 {
					dst := topology.NodeID(taskRng.Intn(c.Topology().Nodes()))
					if _, err := c.Fabric().TransferCtx(ctx, on, dst, make([]byte, shufflePerMap)); err != nil {
						return err
					}
				}
				payload := make([]byte, blockSize)
				taskRng.Read(payload)
				for b := 0; b < outBlocks; b++ {
					if _, err := c.WriteBlockCtx(ctx, on, payload); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	_, err := c.JobTracker().Submit(job)
	return err
}

// RunA3 reproduces Experiment A.3 / Figure 10: MapReduce performance on
// replicated data under RR vs EAR.
func RunA3(opts A3Options) (*A3Result, error) {
	opts = opts.withDefaults()
	jobs, err := mapred.GenerateSwim(mapred.SwimConfig{
		Jobs:             opts.Jobs,
		MeanInterarrival: opts.MeanInterarrival,
		BlockSizeMB:      float64(opts.BlockSizeBytes) / (1 << 20),
	}, rand.New(rand.NewSource(opts.Seed+33)))
	if err != nil {
		return nil, err
	}
	res := &A3Result{Completions: make(map[string][]time.Duration, 2)}
	for _, policy := range []string{"rr", "ear"} {
		comps, err := runSwim(opts, policy, jobs)
		if err != nil {
			return nil, fmt.Errorf("a3 %s: %w", policy, err)
		}
		res.Completions[policy] = comps
	}
	t := &Table{
		ID:      "fig10",
		Caption: "Experiment A.3: MapReduce job completion under RR vs EAR (similar expected)",
		Headers: []string{"completed jobs", "RR elapsed (s)", "EAR elapsed (s)"},
	}
	rr, ear := res.Completions["rr"], res.Completions["ear"]
	for _, q := range []float64{0.25, 0.5, 0.75, 1.0} {
		idx := int(q*float64(len(rr))) - 1
		if idx < 0 {
			idx = 0
		}
		t.AddRow(fmt.Sprintf("%d", idx+1), f3(rr[idx].Seconds()), f3(ear[idx].Seconds()))
	}
	res.Summary = t
	return res, nil
}
