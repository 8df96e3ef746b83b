package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"ear/internal/events"
	"ear/internal/hdfs"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// Geometry of the metadata workload: the paper's large-scale setting, 20
// racks of 20 nodes, (14,10), one block of a stripe per rack, 3 replicas.
const (
	metaRacks        = 20
	metaNodesPerRack = 20
	metaN            = 14
	metaK            = 10
	metaC            = 1
	metaReplicas     = 3
)

// metaSize is what the metadata workload scales.
type metaSize struct {
	// Pairs is the AllocateBlock+CommitBlock pairs per round, split over
	// the clients.
	Pairs int `json:"pairs"`
}

func metaPlacementConfig() (placement.Config, error) {
	top, err := topology.New(metaRacks, metaNodesPerRack)
	if err != nil {
		return placement.Config{}, err
	}
	return placement.Config{Topology: top, Replicas: metaReplicas, K: metaK, N: metaN, C: metaC}, nil
}

// metaRound is what one pass allocate+commit → close → reopen → replay
// measured.
type metaRound struct {
	SetupS   float64
	Write    phaseStats
	CloseS   float64
	RecoverS float64
	// ReplayedOps is the number of log records RecoverMeta applied.
	ReplayedOps int64
	Log         metalog.Stats
	procDelta
	Planes *planeReport
	Checks checks
}

func (r *metaRound) lifecycleS() float64 { return r.Write.WallS + r.CloseS + r.RecoverS }

func (r *metaRound) ops() (attempted, failed int) { return r.Write.Ops, r.Write.Failed }

func (r *metaRound) failedChecks() checks { return r.Checks }

// openNameNode builds a sharded NameNode over a write-ahead log in dir at
// the default sync policy and replays whatever the log holds. It returns
// the wall time of RecoverMeta alone.
func openNameNode(cfg placement.Config, dir string, seed int64, pl *planes) (*hdfs.NameNode, float64, error) {
	nn, err := hdfs.NewShardedNameNode(cfg, "ear", seed, false)
	if err != nil {
		return nil, 0, err
	}
	opts := metalog.Options{Dir: dir}
	if pl != nil {
		nn.SetTelemetry(pl.reg)
		nn.SetJournal(pl.journal)
		fsync := pl.reg.Histogram("metalog_fsync_seconds", "Duration of one log fsync.",
			telemetry.ExponentialBuckets(1e-5, 2, 16)).With()
		opts.FsyncObserver = func(d time.Duration) { fsync.Observe(d.Seconds()) }
	}
	l, err := metalog.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := nn.RecoverMeta(l); err != nil {
		_ = l.Close() // the recovery error is the one to report
		return nil, 0, err
	}
	return nn, time.Since(t0).Seconds(), nil
}

// runMetadata runs one round of the metadata workload in a fresh directory
// under tmpRoot.
func runMetadata(sz metaSize, seed int64, round int, tmpRoot string, rec *recorder, traced bool) (*metaRound, error) {
	t0 := startRound(false)
	root := rec.start("metadata-lifecycle", round, nil)
	defer root.end()

	setup := root.child("setup")
	cfg, err := metaPlacementConfig()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "metadata-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var pl *planes
	if traced {
		pl = &planes{reg: telemetry.NewRegistry(), journal: events.NewJournal(0)}
	}
	nnSeed := seed<<16 + int64(round)
	nn, _, err := openNameNode(cfg, dir, nnSeed, pl)
	if err != nil {
		return nil, err
	}
	res := &metaRound{}
	setup.end()
	res.SetupS = time.Since(t0).Seconds()

	proc0 := readProc()
	sp := root.child("write")
	tw := time.Now()
	res.Write = runClients(clients, func(g int) phaseStats {
		var st phaseStats
		for i := g; i < sz.Pairs; i += clients {
			st.Ops++
			meta, err := nn.AllocateBlock(blockBytes)
			if err == nil {
				err = nn.CommitBlock(meta.ID)
			}
			if err != nil {
				st.Failed++
			}
		}
		return st
	})
	res.Write.WallS = time.Since(tw).Seconds()
	sp.end()

	// The digest is the benchmark's own work, so its CPU is left out.
	procW := readProc()
	digest, count := nn.StateDigest(), nn.BlockCount()
	res.Log, _ = nn.MetaStats()
	procD := readProc()

	sp = root.child("hdfs.CloseMeta")
	tc := time.Now()
	err = nn.CloseMeta()
	res.CloseS = time.Since(tc).Seconds()
	sp.end()
	if err != nil {
		// The program's failure, not the harness's: report it and go on
		// to see what a reopen makes of the directory.
		res.Checks.failf("close metadata log: %v", err)
	}

	sp = root.child("hdfs.RecoverMeta")
	reopened, recoverS, err := openNameNode(cfg, dir, nnSeed, nil)
	sp.end()
	if err != nil {
		res.Checks.failf("reopen metadata log: %v", err)
		return res, nil
	}
	res.RecoverS = recoverS
	res.ReplayedOps = reopened.RecoveredOps()
	before, after := procW.since(proc0), readProc().since(procD)
	res.procDelta = procDelta{
		CPUS:       before.CPUS + after.CPUS,
		AllocBytes: before.AllocBytes + after.AllocBytes,
		GCPauseMs:  before.GCPauseMs + after.GCPauseMs,
	}

	if got := reopened.BlockCount(); got != count {
		res.Checks.failf("reopened NameNode holds %d block(s), %d before close", got, count)
	}
	if !bytes.Equal(reopened.StateDigest(), digest) {
		res.Checks.failf("reopened NameNode state digest differs from the one before close")
	}
	if err := reopened.CloseMeta(); err != nil {
		res.Checks.failf("close reopened log: %v", err)
	}
	if pl != nil {
		res.Planes = pl.report()
	}
	return res, nil
}

// runMetadataWorkload repeats the round in a fresh directory and reports
// medians over rounds.
func runMetadataWorkload(sz metaSize, o options, rec *recorder) (*result, error) {
	res := &result{Size: sz, EndToEnd: metricSet{}}
	plain, traced, err := runRounds(res, wlMetadata, o, rec, func(round int, rec *recorder, tr bool) (*metaRound, error) {
		return runMetadata(sz, o.Seed, round, o.TmpDir, rec, tr)
	})
	if err != nil {
		return nil, err
	}

	m := res.EndToEnd
	set := func(name string, f func(*metaRound) float64) {
		m[name] = roundMedian(specByName(name).Unit, collect(plain, f))
	}
	pairsPerS := func(r *metaRound) float64 {
		return perSecond(float64(r.Write.Ops-r.Write.Failed), r.Write.WallS)
	}
	set("setup_s", func(r *metaRound) float64 { return r.SetupS })
	set("lifecycle_s", (*metaRound).lifecycleS)
	set("meta_ops_per_s", pairsPerS)
	set("meta_recover_s", func(r *metaRound) float64 { return r.RecoverS })

	if o.Trace {
		res.PerLayer = metricSet{}
		pl := res.PerLayer
		layer := func(name string, f func(*metaRound) float64) {
			pl[name] = value{Value: median(collect(plain, f)), Unit: unitOf(name), N: len(plain)}
		}
		layer("hdfs.write.ops", func(r *metaRound) float64 { return float64(r.Write.Ops) })
		layer("hdfs.write.failed", func(r *metaRound) float64 { return float64(r.Write.Failed) })
		layer("metalog.fsyncs", func(r *metaRound) float64 { return float64(r.Log.Fsyncs) })
		layer("metalog.appends_per_fsync", func(r *metaRound) float64 {
			return float64(r.Log.Appends) / float64(max(r.Log.Fsyncs, 1))
		})
		layer("metalog.appended_bytes_per_op", func(r *metaRound) float64 {
			return float64(r.Log.AppendedBytes) / float64(max(r.Log.Appends, 1))
		})
		layer("metalog.replay_ops_per_s", func(r *metaRound) float64 {
			return perSecond(float64(r.ReplayedOps), r.RecoverS)
		})
		processLayers(pl, collect(plain, func(r *metaRound) procShare {
			// No user bytes here: allocation is charged per pair instead.
			return procShare{r.procDelta, int64(r.Write.Ops)}
		}))
		planeLayers(pl, collect(traced, func(r *metaRound) *planeReport { return r.Planes }))
		pl["observability.trace_overhead_pct"] = value{
			Value: overheadPct(collect(plain, pairsPerS), collect(traced, pairsPerS), true), Unit: "%", N: len(traced)}
		res.model = map[string]phaseModel{"write": {
			WallS:       median(collect(plain, func(r *metaRound) float64 { return r.Write.WallS })),
			Pairs:       float64(sz.Pairs),
			Concurrency: clients,
		}}
		if err := snapshotProbe(pl, sz, o); err != nil {
			return nil, fmt.Errorf("snapshot probe: %w", err)
		}
	}
	return res, nil
}

// snapshotProbe times NameNode.SnapshotNow on a state of sz.Pairs committed
// blocks and the restart that loads that snapshot instead of replaying.
func snapshotProbe(m metricSet, sz metaSize, o options) error {
	cfg, err := metaPlacementConfig()
	if err != nil {
		return err
	}
	dir, err := probeDir(o, "snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	nn, _, err := openNameNode(cfg, dir, o.Seed, nil)
	if err != nil {
		return err
	}
	for i := 0; i < sz.Pairs; i++ {
		meta, err := nn.AllocateBlock(blockBytes)
		if err == nil {
			err = nn.CommitBlock(meta.ID)
		}
		if err != nil {
			_ = nn.CloseMeta() // the allocation error is the one to report
			return err
		}
	}
	t0 := time.Now()
	err = nn.SnapshotNow()
	m["metalog.snapshot_s"] = value{Value: time.Since(t0).Seconds(), Unit: "s"}
	if cerr := nn.CloseMeta(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	reopened, restartS, err := openNameNode(cfg, dir, o.Seed, nil)
	if err != nil {
		return err
	}
	m["metalog.restart_from_snapshot_s"] = value{Value: restartS, Unit: "s"}
	return reopened.CloseMeta()
}
