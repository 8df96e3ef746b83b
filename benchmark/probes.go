package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ear/internal/blockstore"
	"ear/internal/erasure"
	"ear/internal/fabric"
	"ear/internal/gf256"
	"ear/internal/hdfs"
	"ear/internal/mapred"
	"ear/internal/maxflow"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/topology"
)

// probeBudget is how long each probe measures. The probes time one layer's
// public function directly, at the shapes the workloads use: 256 KiB
// blocks, 64 KiB chunks, the (14,12) code.
const probeBudget = 60 * time.Millisecond

// secondsPerOp runs op in growing batches until one batch fills the budget
// and returns that batch's mean.
func secondsPerOp(budget time.Duration, op func()) float64 {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if el := time.Since(t0); el >= budget || n >= 1<<24 {
			return el.Seconds() / float64(n)
		}
	}
}

// medianCallUs times n calls one by one and returns the median in µs.
func medianCallUs(n int, call func() error) (float64, error) {
	lat := make([]float64, n)
	for i := range lat {
		t0 := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		lat[i] = float64(time.Since(t0)) / 1e3
	}
	return median(lat), nil
}

// addProbes measures every probe-sourced per-layer metric into m.
func addProbes(m metricSet, o options) error {
	set := func(name string, v float64) { m[name] = value{Value: v, Unit: unitOf(name)} }
	mbps := func(bytesPerOp int, secs float64) float64 { return float64(bytesPerOp) / mib / secs }
	calls := 100_000
	if o.Sizes.Metadata.Pairs < calls {
		calls = max(o.Sizes.Metadata.Pairs, 100)
	}
	budget := probeBudget
	if calls < 100_000 {
		budget /= 20 // tiny sizes: the smoke test only needs every name
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// gf256 and erasure kernels.
	block := make([]byte, blockBytes)
	rng.Read(block)
	dst := make([]byte, blockBytes)
	for _, sz := range []struct {
		name string
		n    int
	}{{"64k", fabric.ChunkBytes}, {"256k", blockBytes}} {
		s := secondsPerOp(budget, func() { gf256.MulAddSlice(0x53, block[:sz.n], dst[:sz.n]) })
		set("gf256.mul_add_slice_mbps."+sz.name, mbps(sz.n, s))
	}
	set("gf256.add_slice_mbps", mbps(blockBytes, secondsPerOp(budget, func() { gf256.AddSlice(block, dst) })))

	coder, err := erasure.New(codeN, codeK, erasure.ReedSolomon)
	if err != nil {
		return err
	}
	data := make([][]byte, codeK)
	for i := range data {
		data[i] = make([]byte, blockBytes)
		rng.Read(data[i])
	}
	parity := make([][]byte, codeN-codeK)
	for i := range parity {
		parity[i] = make([]byte, blockBytes)
	}
	s := secondsPerOp(budget, func() { err = coder.EncodeInto(data, parity) })
	if err != nil {
		return err
	}
	set("erasure.encode_into_mbps", mbps(codeK*blockBytes, s))
	// Lose data block 0: the survivors are blocks 1..k-1 and parity 0.
	present := make(map[int][]byte, codeK)
	indices := make([]int, 0, codeK)
	for i := 1; i < codeK; i++ {
		present[i] = data[i]
		indices = append(indices, i)
	}
	present[codeK] = parity[0]
	indices = append(indices, codeK)
	s = secondsPerOp(budget, func() { err = coder.ReconstructBlockInto(present, 0, dst) })
	if err != nil {
		return err
	}
	set("erasure.reconstruct_block_mbps", mbps(blockBytes, s))
	s = secondsPerOp(budget, func() { _, err = coder.DecodeRow(indices, 0) })
	if err != nil {
		return err
	}
	set("erasure.decode_row_us", s*1e6)

	// blockstore: CRC32C plus one copy per call.
	store := blockstore.New()
	key := hdfs.DataKey(1)
	// Put refuses a key it already holds, so each timed Put is paired with
	// the (map-only) Delete that makes room for the next.
	s = secondsPerOp(budget, func() {
		if e := store.Put(key, block); e != nil {
			err = e
		} else if e := store.Delete(key); e != nil {
			err = e
		}
	})
	if err == nil {
		err = store.Put(key, block)
	}
	if err != nil {
		return err
	}
	set("blockstore.put_mbps", mbps(blockBytes, s))
	s = secondsPerOp(budget, func() { _, err = store.Get(key) })
	if err != nil {
		return err
	}
	set("blockstore.get_mbps", mbps(blockBytes, s))
	s = secondsPerOp(budget, func() { err = store.GetInto(key, dst) })
	if err != nil {
		return err
	}
	set("blockstore.get_into_mbps", mbps(blockBytes, s))

	if err := fabricProbes(set, budget); err != nil {
		return err
	}
	if err := placementProbes(set, budget, rng); err != nil {
		return err
	}
	if err := mapredProbe(set, budget); err != nil {
		return err
	}
	if err := namenodeProbes(set, calls, o); err != nil {
		return err
	}
	return metalogProbes(set, calls, o)
}

// fabricProbes time the unshaped fabric's per-chunk and per-stream floor.
func fabricProbes(set func(string, float64), budget time.Duration) error {
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return err
	}
	fab, err := fabric.New(top, unshapedBps)
	if err != nil {
		return err
	}
	defer fab.Close()
	ctx := context.Background()
	// Node 0 to node nodesPerRack crosses the core: all four links shape.
	src, dst := topology.NodeID(0), topology.NodeID(nodesPerRack)
	st, err := fab.OpenStream(ctx, src, dst)
	if err != nil {
		return err
	}
	s := secondsPerOp(budget, func() { err = st.Send(ctx, fabric.ChunkBytes) })
	st.Close()
	if err != nil {
		return err
	}
	set("fabric.send_chunk_us", s*1e6)
	s = secondsPerOp(budget, func() {
		var st *fabric.Stream
		if st, err = fab.OpenStream(ctx, src, dst); err == nil {
			st.Close()
		}
	})
	if err != nil {
		return err
	}
	set("fabric.open_stream_us", s*1e6)
	return nil
}

// placementProbes time the placement policies, the post-encoding planner,
// the pipeline planner and the max-flow solver on the data workloads'
// geometry.
func placementProbes(set func(string, float64), budget time.Duration, rng *rand.Rand) error {
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return err
	}
	cfg := placement.Config{Topology: top, Replicas: replicas, K: codeK, N: codeN, C: rackCap}
	ear, err := placement.NewEAR(cfg, rng)
	if err != nil {
		return err
	}
	var (
		next     topology.BlockID
		attempts int
		stripes  []*placement.StripeInfo
	)
	s := secondsPerOp(budget, func() {
		if _, e := ear.Place(next); e != nil {
			err = e
		}
		next++
		attempts += ear.LastPlaceAttempts()
		if sealed := ear.TakeSealed(); len(sealed) > 0 && len(stripes) < 64 {
			stripes = append(stripes, sealed...)
		}
	})
	if err != nil {
		return err
	}
	set("placement.ear_place_us", s*1e6)
	set("placement.ear_attempts_per_block", float64(next)/float64(max(attempts, 1)))
	if len(stripes) == 0 {
		return fmt.Errorf("EAR sealed no stripe in %d placements", next)
	}

	rr, err := placement.NewRandom(cfg, rng)
	if err != nil {
		return err
	}
	s = secondsPerOp(budget, func() {
		if _, e := rr.Place(next); e != nil {
			err = e
		}
		next++
	})
	if err != nil {
		return err
	}
	set("placement.rr_place_us", s*1e6)

	i := 0
	s = secondsPerOp(budget, func() {
		if _, e := placement.PlanPostEncoding(cfg, stripes[i%len(stripes)], rng); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	set("placement.plan_postencoding_us", s*1e6)

	holders := make([][][]topology.NodeID, len(stripes))
	sinks := make([]topology.NodeID, len(stripes))
	for j, info := range stripes {
		for _, p := range info.Placements {
			holders[j] = append(holders[j], p.Nodes)
		}
		sinks[j] = info.Placements[0].Nodes[0] // a core-rack node, as the encoder is
	}
	s = secondsPerOp(budget, func() {
		j := i % len(stripes)
		if _, e := placement.PlanPipeline(top, holders[j], sinks[j]); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	set("placement.plan_pipeline_us", s*1e6)

	// The stripe flow graph of Section III-B: source → blocks → nodes →
	// racks → sink. Solving it whole is what a full recompute costs;
	// AugmentOne on the last block is what the incremental check costs.
	info := stripes[0]
	nodes, rackCount := top.Nodes(), top.Racks()
	src, firstBlock, firstNode, firstRack := 0, 1, 1+codeK, 1+codeK+nodes
	snk := firstRack + rackCount
	build := func(blocks int) (*maxflow.Graph, error) {
		g, err := maxflow.NewGraph(snk + 1)
		if err != nil {
			return nil, err
		}
		for n := 0; n < nodes; n++ {
			r, err := top.RackOf(topology.NodeID(n))
			if err != nil {
				return nil, err
			}
			if _, err := g.AddEdge(firstNode+n, firstRack+int(r), 1); err != nil {
				return nil, err
			}
		}
		for r := 0; r < rackCount; r++ {
			if _, err := g.AddEdge(firstRack+r, snk, rackCap); err != nil {
				return nil, err
			}
		}
		for b := 0; b < blocks; b++ {
			if err := addBlock(g, src, firstBlock+b, firstNode, info.Placements[b]); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	s = secondsPerOp(budget, func() {
		g, e := build(codeK)
		if e == nil {
			_, e = g.MaxFlow(src, snk)
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	set("maxflow.stripe_graph_solve_us", s*1e6)

	g, err := build(codeK - 1)
	if err != nil {
		return err
	}
	if _, err := g.MaxFlow(src, snk); err != nil {
		return err
	}
	s = secondsPerOp(budget, func() {
		ck := g.Checkpoint()
		e := addBlock(g, src, firstBlock+codeK-1, firstNode, info.Placements[codeK-1])
		if e == nil {
			_, e = g.AugmentOne(src, snk)
		}
		if e2 := g.Rollback(ck); e == nil {
			e = e2
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	set("maxflow.augment_one_us", s*1e6)
	return nil
}

// addBlock hangs one block vertex off the source with an edge to each node
// holding a replica.
func addBlock(g *maxflow.Graph, src, vertex, firstNode int, p topology.Placement) error {
	if _, err := g.AddEdge(src, vertex, 1); err != nil {
		return err
	}
	for _, n := range p.Nodes {
		if _, err := g.AddEdge(vertex, firstNode+int(n), 1); err != nil {
			return err
		}
	}
	return nil
}

// mapredProbe times the dispatch of no-op tasks, the job start-up the
// encode phase pays per map task.
func mapredProbe(set func(string, float64), budget time.Duration) error {
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return err
	}
	jt, err := mapred.NewJobTracker(top, 4)
	if err != nil {
		return err
	}
	defer jt.Close()
	job := mapred.Job{Name: "probe"}
	for i := 0; i < mapTasks; i++ {
		job.Tasks = append(job.Tasks, &mapred.Task{
			Name:      fmt.Sprintf("noop-%d", i),
			Preferred: topology.NodeID(i * nodesPerRack),
			Run:       func(context.Context, topology.NodeID) error { return nil },
		})
	}
	s := secondsPerOp(budget, func() {
		if _, e := jt.Submit(job); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	set("mapred.dispatch_us_per_task", s*1e6/mapTasks)
	return nil
}

// namenodeProbes time AllocateBlock and CommitBlock one call at a time on
// the metadata workload's geometry, in memory and over the log.
func namenodeProbes(set func(string, float64), calls int, o options) error {
	cfg, err := metaPlacementConfig()
	if err != nil {
		return err
	}
	nn, err := hdfs.NewShardedNameNode(cfg, "ear", o.Seed, false)
	if err != nil {
		return err
	}
	ids := make([]topology.BlockID, 0, calls)
	us, err := medianCallUs(calls, func() error {
		meta, err := nn.AllocateBlock(blockBytes)
		if err == nil {
			ids = append(ids, meta.ID)
		}
		return err
	})
	if err != nil {
		return err
	}
	set("hdfs.namenode.alloc_us", us)
	i := 0
	us, err = medianCallUs(calls, func() error {
		err := nn.CommitBlock(ids[i])
		i++
		return err
	})
	if err != nil {
		return err
	}
	set("hdfs.namenode.commit_us", us)

	dir, err := probeDir(o, "namenode-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walNN, _, err := openNameNode(cfg, dir, o.Seed, nil)
	if err != nil {
		return err
	}
	us, err = medianCallUs(calls, func() error {
		_, err := walNN.AllocateBlock(blockBytes)
		return err
	})
	if cerr := walNN.CloseMeta(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	set("hdfs.namenode.alloc_wal_us", us)
	return nil
}

func probeDir(o options, prefix string) (string, error) {
	if err := os.MkdirAll(o.TmpDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.TmpDir, prefix)
}

// metalogProbes time raw appends under the two fsync policies that wait on
// the disk differently. Temp-dir fsync cost is the sandbox's, not a
// device's. The log counters of the metadata workload itself (fsyncs,
// bytes per op, replay rate, snapshot) are filled by that workload.
func metalogProbes(set func(string, float64), calls int, o options) error {
	record := make([]byte, 28) // the size of one AllocateBlock op record
	for _, pol := range []metalog.SyncPolicy{metalog.SyncInterval, metalog.SyncAlways} {
		n := calls
		if pol == metalog.SyncAlways {
			n = max(calls/200, 20) // every append waits for its own fsync
		}
		dir, err := probeDir(o, "metalog-")
		if err != nil {
			return err
		}
		us, err := func() (float64, error) {
			defer os.RemoveAll(dir)
			l, err := metalog.Open(metalog.Options{Dir: dir, Sync: pol})
			if err != nil {
				return 0, err
			}
			defer l.Close()
			noop := func([]byte) error { return nil }
			if err := l.Recover(noop, func(uint64, []byte) error { return nil }); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				lsn, err := l.Append(record)
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				if err != nil {
					return 0, err
				}
			}
			return time.Since(t0).Seconds() * 1e6 / float64(n), nil
		}()
		if err != nil {
			return err
		}
		set("metalog.append_us."+pol.String(), us)
	}
	return nil
}
