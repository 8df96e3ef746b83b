package main

import (
	"fmt"
	"runtime"
	"strings"

	"ear/internal/fabric"
	"ear/internal/hdfs"
)

// linkClasses are the fabric's link groups, in reporting order.
var linkClasses = []fabric.LinkClass{
	fabric.ClassNodeUp, fabric.ClassNodeDown, fabric.ClassRackUp, fabric.ClassRackDown, fabric.ClassDisk,
}

// phaseModel is what the CPU model of one phase needs: the calls the phase
// makes into gf256, blockstore and the NameNode, counted from the workload's
// own op counts, and how many of them can run at once.
type phaseModel struct {
	WallS       float64
	LinkBoundS  float64
	Puts        float64 // blockstore.Put of one block
	Gets        float64 // blockstore.Get of one block
	MulAddBytes float64 // bytes through gf256.MulAddSlice
	Pairs       float64 // AllocateBlock+CommitBlock
	Concurrency int
}

// lifecycleLayers fills the per-layer counters of a lifecycle workload
// (fabric, hdfs, erasure pool, mapred, process) from the untraced rounds
// and returns the per-phase inputs of the CPU model.
func lifecycleLayers(m metricSet, rounds []*lifecycleRound) map[string]phaseModel {
	med := func(f func(*lifecycleRound) float64) float64 { return median(collect(rounds, f)) }
	set := func(name string, f func(*lifecycleRound) float64) {
		m[name] = value{Value: med(f), Unit: unitOf(name), N: len(rounds)}
	}
	model := make(map[string]phaseModel)
	for _, p := range phaseNames {
		fabricLayers(m, p, collect(rounds, func(r *lifecycleRound) phaseStats { return r.Phase[p] }))
		set("hdfs."+p+".ops", func(r *lifecycleRound) float64 { return float64(r.Phase[p].Ops) })
		set("hdfs."+p+".failed", func(r *lifecycleRound) float64 { return float64(r.Phase[p].Failed) })
	}
	set("hdfs.read.unshaped_mbps", func(r *lifecycleRound) float64 {
		if r.Phase["read"].linkBoundS() > 0.05*r.Phase["read"].WallS {
			return 0 // a shaped read is the end-to-end read_mbps, not this
		}
		return perSecond(float64(r.Phase["read"].Bytes)/mib, r.Phase["read"].WallS)
	})
	raidnodeLayers(m, collect(rounds, func(r *lifecycleRound) encodeCounters {
		return encodeCounters{r.Encode, r.PoolGets, r.PoolHits}
	}))
	set("hdfs.recover.blocks_repaired", func(r *lifecycleRound) float64 { return float64(r.Recover.BlocksRepaired) })
	set("hdfs.recover.parity_repaired", func(r *lifecycleRound) float64 { return float64(r.Recover.ParityRepaired) })
	set("hdfs.recover.total_bytes_per_member", func(r *lifecycleRound) float64 {
		return float64(r.Recover.TotalBytes) / float64(max(r.Recover.BlocksRepaired+r.Recover.ParityRepaired, 1))
	})
	processLayers(m, collect(rounds, func(r *lifecycleRound) procShare {
		return procShare{r.procDelta, r.UserBytes}
	}))

	stripes := med(func(r *lifecycleRound) float64 { return float64(r.Encode.Stripes) })
	members := med(func(r *lifecycleRound) float64 { return float64(r.MembersLost) })
	ops := func(p string) float64 {
		return med(func(r *lifecycleRound) float64 { return float64(r.Phase[p].Ops) })
	}
	const k, parity = codeK, codeN - codeK
	model["write"] = phaseModel{Puts: ops("write") * replicas, Pairs: ops("write"), Concurrency: clients}
	model["encode"] = phaseModel{Gets: stripes * k, Puts: stripes * parity,
		MulAddBytes: stripes * parity * k * blockBytes, Concurrency: mapTasks}
	model["read"] = phaseModel{Gets: ops("read"), Concurrency: clients}
	model["degraded"] = phaseModel{Gets: ops("degraded") * k, MulAddBytes: ops("degraded") * k * blockBytes, Concurrency: 1}
	// 8 is hdfs.Config.RecoverParallelism's default, which the benchmark
	// leaves alone.
	model["recover"] = phaseModel{Gets: members * k, Puts: members, MulAddBytes: members * k * blockBytes, Concurrency: 8}
	for _, p := range phaseNames {
		pm := model[p]
		pm.WallS = med(func(r *lifecycleRound) float64 { return r.Phase[p].WallS })
		pm.LinkBoundS = m["fabric."+p+".link_bound_s"].Value
		model[p] = pm
	}
	return model
}

// fabricLayers fills fabric.<phase>.* from one phase's record per round.
func fabricLayers(m metricSet, p string, rounds []phaseStats) {
	med := func(f func(phaseStats) float64) float64 { return median(collect(rounds, f)) }
	put := func(name string, v float64) {
		m[name] = value{Value: v, Unit: unitOf(name), N: len(rounds)}
	}
	for _, class := range linkClasses {
		put("fabric."+p+".wait_s."+string(class), med(func(st phaseStats) float64 {
			return st.Fabric.ClassWaitSeconds[class]
		}))
	}
	put("fabric."+p+".cross_rack_bytes", med(func(st phaseStats) float64 { return float64(st.Fabric.CrossRackBytes) }))
	put("fabric."+p+".intra_rack_bytes", med(func(st phaseStats) float64 { return float64(st.Fabric.IntraRackBytes) }))
	put("fabric."+p+".link_bound_s", med(func(st phaseStats) float64 { return st.linkBoundS() }))
	put("fabric."+p+".efficiency", med(func(st phaseStats) float64 {
		if st.WallS <= 0 {
			return 0
		}
		return st.linkBoundS() / st.WallS
	}))
}

// encodeCounters are what one round's encode job left in EncodeStats and
// the cluster buffer pool.
type encodeCounters struct {
	stats              hdfs.EncodeStats
	poolGets, poolHits int64
}

// raidnodeLayers fills hdfs.raidnode.*, mapred.encode.* and the pool ratio.
func raidnodeLayers(m metricSet, rounds []encodeCounters) {
	set := func(name string, f func(encodeCounters) float64) {
		m[name] = value{Value: median(collect(rounds, f)), Unit: unitOf(name), N: len(rounds)}
	}
	set("hdfs.raidnode.stripes", func(e encodeCounters) float64 { return float64(e.stats.Stripes) })
	set("hdfs.raidnode.cross_rack_downloads", func(e encodeCounters) float64 { return float64(e.stats.CrossRackDownloads) })
	set("hdfs.raidnode.violations", func(e encodeCounters) float64 { return float64(e.stats.Violations) })
	set("hdfs.raidnode.pipelined_stripes", func(e encodeCounters) float64 { return float64(e.stats.PipelinedStripes) })
	set("hdfs.raidnode.partial_sum_bytes", func(e encodeCounters) float64 { return float64(e.stats.PartialSumBytes) })
	set("mapred.encode.tasks", func(e encodeCounters) float64 { return float64(len(e.stats.TaskPlacements)) })
	set("mapred.encode.node_local_share", func(e encodeCounters) float64 {
		local := 0
		for _, p := range e.stats.TaskPlacements {
			if p.Local {
				local++
			}
		}
		return float64(local) / float64(max(len(e.stats.TaskPlacements), 1))
	})
	set("erasure.pool_hit_ratio", func(e encodeCounters) float64 {
		return float64(e.poolHits) / float64(max(e.poolGets, 1))
	})
}

// procShare is one round's process-counter change and the user bytes the
// round handled.
type procShare struct {
	procDelta
	userBytes int64
}

func processLayers(m metricSet, rounds []procShare) {
	set := func(name string, f func(procShare) float64) {
		m[name] = value{Value: median(collect(rounds, f)), Unit: unitOf(name), N: len(rounds)}
	}
	set("process.cpu_s", func(d procShare) float64 { return d.CPUS })
	set("process.alloc_bytes_per_user_byte", func(d procShare) float64 {
		return float64(d.AllocBytes) / float64(max(d.userBytes, 1))
	})
	set("process.gc_pause_total_ms", func(d procShare) float64 { return d.GCPauseMs })
}

// planeLayers fills observability.* and telemetry.* from the traced rounds.
func planeLayers(m metricSet, reports []*planeReport) {
	set := func(name string, f func(*planeReport) float64) {
		m[name] = value{Value: median(collect(reports, f)), Unit: unitOf(name), N: len(reports)}
	}
	if len(reports) == 0 {
		return
	}
	set("observability.journal_events", func(r *planeReport) float64 { return float64(r.JournalEvents) })
	set("observability.spans", func(r *planeReport) float64 { return float64(r.Spans) })
	set("observability.spans_dropped", func(r *planeReport) float64 { return float64(r.SpansDropped) })
	set("telemetry.namenode_alloc_mean_us", func(r *planeReport) float64 { return r.HistMeanS["namenode_alloc_seconds"] * 1e6 })
	set("telemetry.stripe_encode_mean_ms", func(r *planeReport) float64 { return r.HistMeanS["raidnode_stripe_encode_seconds"] * 1e3 })
	set("telemetry.pipeline_fill_mean_ms", func(r *planeReport) float64 { return r.HistMeanS["hdfs_pipeline_fill_seconds"] * 1e3 })
	set("telemetry.metalog_fsync_mean_ms", func(r *planeReport) float64 { return r.HistMeanS["metalog_fsync_seconds"] * 1e3 })
}

// unitOf looks a per-layer metric's unit up in the catalogue.
func unitOf(name string) string {
	for _, s := range perLayer {
		if s.Name == name {
			return s.Unit
		}
	}
	panic("benchmark: per-layer metric " + name + " is not in the catalogue")
}

// fillModelled turns the probe rates into the modelled CPU time of each
// phase and publishes what neither the link bound nor the model explains
// as hdfs.<phase>.unattributed_s: scheduler and queue idle, copies, and
// everything inside layers the benchmark cannot wrap from outside.
func fillModelled(res *result) {
	m := res.PerLayer
	rate := func(name string) float64 { return m[name].Value * mib } // MiB/s → B/s
	perBlock := func(bps float64) float64 {
		if bps <= 0 {
			return 0
		}
		return blockBytes / bps
	}
	putS, getS := perBlock(rate("blockstore.put_mbps")), perBlock(rate("blockstore.get_mbps"))
	mulAdd := rate("gf256.mul_add_slice_mbps.64k")
	pairS := (m["hdfs.namenode.alloc_us"].Value + m["hdfs.namenode.commit_us"].Value) / 1e6
	for p, pm := range res.model {
		cpu := pm.Puts*putS + pm.Gets*getS + pm.Pairs*pairS
		if mulAdd > 0 {
			cpu += pm.MulAddBytes / mulAdd
		}
		cpu /= float64(min(pm.Concurrency, runtime.GOMAXPROCS(0)))
		m["hdfs."+p+".unattributed_s"] = value{Value: pm.WallS - pm.LinkBoundS - cpu, Unit: "s"}
		if p == "encode" && mulAdd > 0 {
			m["gf256.encode.modelled_s"] = value{Value: pm.MulAddBytes / mulAdd, Unit: "s"}
		}
	}
}

// selfCheck verifies that the workload still isolates the layer it was
// built to isolate.
func selfCheck(workload string, m metricSet) []string {
	var out []string
	eff := m["fabric.encode.efficiency"].Value
	switch workload {
	case wlShaped:
		if eff < 0.5 {
			out = append(out, fmt.Sprintf("fabric.encode.efficiency = %.3f on %s, want >= 0.5: the run is no longer network-bound", eff, workload))
		}
	case wlUnshaped:
		if eff > 0.05 {
			out = append(out, fmt.Sprintf("fabric.encode.efficiency = %.3f on %s, want <= 0.05: fabric wait is back in the CPU run", eff, workload))
		}
	case wlMetadata:
		wait := 0.0
		for name, v := range m {
			if strings.HasPrefix(name, "fabric.") && strings.Contains(name, ".wait_s.") {
				wait += v.Value
			}
		}
		if wait > 1e-3 {
			out = append(out, fmt.Sprintf("fabric wait = %.4f s on %s, want 0: the metadata run touches the data path", wait, workload))
		}
	}
	return out
}

// worstLayer names the largest per-phase time share: a fabric wait class
// (summed over its links, so parallel links can exceed the wall) or the
// unattributed remainder of a phase.
func worstLayer(m metricSet) string {
	best, bestV := "", 0.0
	for name, v := range m {
		timeShare := strings.HasSuffix(name, ".unattributed_s") ||
			(strings.HasPrefix(name, "fabric.") && strings.Contains(name, ".wait_s."))
		if timeShare && v.Value > bestV {
			best, bestV = name, v.Value
		}
	}
	return best
}
