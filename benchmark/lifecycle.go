package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ear/internal/hdfs"
	"ear/internal/topology"
)

// The five timed phases of a lifecycle, in order.
var phaseNames = []string{"write", "encode", "read", "degraded", "recover"}

// lifecycleRound is everything one pass write → encode → read → degraded
// read → node failure → RecoverNode measured.
type lifecycleRound struct {
	SetupS float64
	Phase  map[string]phaseStats
	// Encode.Stripes can exceed the stripes written: flushing seals the
	// short stripe each core rack still had open.
	Encode      hdfs.EncodeStats
	Recover     hdfs.RecoveryStats
	MembersLost int
	StoredBytes int64
	UserBytes   int64
	// procDelta spans the five phases; PoolGets and PoolHits are the buffer
	// pool's counters over the same interval.
	procDelta
	PoolGets int64
	PoolHits int64
	Planes   *planeReport
	Checks   checks
}

// lifecycleS is the sum of the five phases' wall time.
func (r *lifecycleRound) lifecycleS() float64 {
	total := 0.0
	for _, p := range phaseNames {
		total += r.Phase[p].WallS
	}
	return total
}

// ops returns attempted and failed client ops over all phases. EncodeAll
// and RecoverNode count as one op each.
func (r *lifecycleRound) ops() (attempted, failed int) {
	for _, p := range phaseNames {
		attempted += r.Phase[p].Ops
		failed += r.Phase[p].Failed
	}
	return attempted, failed
}

func (r *lifecycleRound) failedChecks() checks { return r.Checks }

// runLifecycle builds a cluster and takes it through one lifecycle. The
// returned error means the harness could not run; a wrong result is a
// failed op or an entry in Checks.
func runLifecycle(sz dataSize, o options, round int, payload payloadBuf, rec *recorder, traced bool) (*lifecycleRound, error) {
	t0 := startRound(sz.LinkBps < unshapedBps)
	root := rec.start("lifecycle", round, nil)
	defer root.end()

	setup := root.child("setup")
	res := &lifecycleRound{Phase: make(map[string]phaseStats), UserBytes: sz.userBytes()}
	roundSeed := o.Seed<<16 + int64(round)
	payload.fill(roundSeed)
	c, err := newCluster(sz, roundSeed)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var pl *planes
	if traced {
		pl = attachPlanes(c)
	}
	d := newDataset(c, payload, roundSeed)
	aged := sz.SetupStripes * codeK
	if st := d.write(nil, 0, aged); st.Failed != 0 {
		return nil, fmt.Errorf("set-up: %d of %d writes failed", st.Failed, st.Ops)
	}
	setup.end()
	res.SetupS = time.Since(t0).Seconds()

	gets0, hits0 := c.BufferPool().Stats()
	proc0 := readProc()

	res.Phase["write"] = timed(c, root, "write", func(sp *liveSpan) phaseStats {
		return d.write(sp, aged, len(payload))
	})

	if o.afterWrite != nil {
		o.afterWrite(c, d.ids)
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		return nil, fmt.Errorf("flush open stripes: %w", err)
	}
	res.Phase["encode"] = timed(c, root, "encode", func(sp *liveSpan) phaseStats {
		call := sp.child("hdfs.EncodeAll")
		res.Encode, err = c.RaidNode().EncodeAll()
		call.end()
		return oneOp(err, res.Encode.EncodedBytes)
	})
	res.Checks = checkEncode(c, res.Encode)
	if res.StoredBytes, err = storedBytes(c); err != nil {
		return nil, err
	}

	res.Phase["read"] = timed(c, root, "read", func(sp *liveSpan) phaseStats {
		return d.readAll(sp, 3)
	})
	dead := busiestNode(c)
	if dead < 0 {
		return nil, fmt.Errorf("nothing encoded, no node to fail")
	}
	lostData, lostParity := membersOn(c, dead)
	res.MembersLost = lostData + lostParity
	c.NameNode().MarkDead(dead)

	res.Phase["degraded"] = timed(c, root, "degraded", func(sp *liveSpan) phaseStats {
		return d.degradedReads(sp, dead, sz.DegradedReads)
	})

	res.Phase["recover"] = timed(c, root, "recover", func(sp *liveSpan) phaseStats {
		call := sp.child("hdfs.RecoverNode")
		res.Recover, err = c.RecoverNode(context.Background(), dead)
		call.end()
		return oneOp(err, res.Recover.BytesRepaired)
	})

	res.procDelta = readProc().since(proc0)
	gets1, hits1 := c.BufferPool().Stats()
	res.PoolGets, res.PoolHits = gets1-gets0, hits1-hits0

	verify := root.child("verify")
	res.checkRecovered(c, d, dead)
	verify.end()
	if pl != nil {
		res.Planes = pl.report()
		res.Checks = append(res.Checks, res.Planes.failedChecks()...)
	}
	return res, nil
}

// oneOp is the phase record of a single call that moved n bytes.
func oneOp(err error, n int64) phaseStats {
	if err != nil {
		return phaseStats{Ops: 1, Failed: 1}
	}
	return phaseStats{Ops: 1, Bytes: n}
}

// degradedReads reconstructs up to limit blocks lost with the dead node,
// one client, from live client nodes.
func (d *dataset) degradedReads(sp *liveSpan, dead topology.NodeID, limit int) phaseStats {
	nn := d.c.NameNode()
	nodes := d.clientNodes(4, 0)
	var st phaseStats
	for _, i := range rand.New(rand.NewSource(d.seed * 131)).Perm(len(d.payload)) {
		if st.Ops >= limit {
			break
		}
		if !d.written[i] {
			continue
		}
		if live, err := nn.LiveReplicas(d.ids[i]); err != nil || len(live) > 0 {
			continue
		}
		node := nodes.next()
		for node == dead {
			node = nodes.next()
		}
		d.readOne(sp, "hdfs.DegradedRead", node, i, &st, d.c.DegradedRead)
	}
	return st
}

// checkEncode asserts EAR's two guarantees after the encode job: no
// cross-rack download, and no stripe left violating rack fault tolerance.
func checkEncode(c *hdfs.Cluster, stats hdfs.EncodeStats) checks {
	var k checks
	if stats.Violations != 0 {
		k.failf("encode left %d placement violation(s)", stats.Violations)
	}
	if stats.CrossRackDownloads != 0 {
		k.failf("encode made %d cross-rack download(s)", stats.CrossRackDownloads)
	}
	if stats.Stripes == 0 {
		k.failf("encode job encoded no stripe")
	}
	bad, err := c.RaidNode().PlacementMonitor()
	if err != nil || len(bad) != 0 {
		k.failf("placement monitor: %d stripe(s) flagged, err=%v", len(bad), err)
	}
	return k
}

// checkRecovered asserts that recovery rebuilt every lost member, that no
// location still names the dead node, and that every block reads back
// byte-identical from live nodes. The re-read runs unshaped: it checks
// bytes, it is not a measurement.
func (r *lifecycleRound) checkRecovered(c *hdfs.Cluster, d *dataset, dead topology.NodeID) {
	if got := r.Recover.BlocksRepaired + r.Recover.ParityRepaired; got != r.MembersLost {
		r.Checks.failf("recovery repaired %d member(s), node held %d", got, r.MembersLost)
	}
	if data, parity := membersOn(c, dead); data+parity != 0 {
		r.Checks.failf("%d data and %d parity location(s) still name dead node %d", data, parity, dead)
	}
	if err := setRates(c, unshapedBps, unshapedBps); err != nil {
		r.Checks.failf("lift rates for verification: %v", err)
		return
	}
	if st := d.readAll(nil, 6); st.Failed != 0 {
		r.Checks.failf("%d of %d block(s) unreadable or altered after recovery", st.Failed, st.Ops)
	}
}

// runLifecycleWorkload repeats the lifecycle on a fresh cluster each round
// and reports medians over the measured rounds.
func runLifecycleWorkload(name string, sz dataSize, o options, rec *recorder) (*result, error) {
	res := &result{Size: sz, EndToEnd: metricSet{}}
	payload := newPayloadBuf(sz.blocks())
	plain, traced, err := runRounds(res, name, o, rec, func(round int, rec *recorder, tr bool) (*lifecycleRound, error) {
		return runLifecycle(sz, o, round, payload, rec, tr)
	})
	if err != nil {
		return nil, err
	}
	lifecycleEndToEnd(res.EndToEnd, name, plain)
	if o.Trace {
		res.PerLayer = metricSet{}
		res.model = lifecycleLayers(res.PerLayer, plain)
		planeLayers(res.PerLayer, collect(traced, func(r *lifecycleRound) *planeReport { return r.Planes }))
		overhead := overheadPct(collect(plain, (*lifecycleRound).lifecycleS), collect(traced, (*lifecycleRound).lifecycleS), false)
		if name == wlUnshaped {
			cpu := func(r *lifecycleRound) float64 { return r.CPUS }
			overhead = overheadPct(collect(plain, cpu), collect(traced, cpu), false)
		}
		res.PerLayer["observability.trace_overhead_pct"] = value{Value: overhead, Unit: "%", N: len(traced)}
	}
	return res, nil
}

// collect maps the rounds to one value apiece.
func collect[R, T any](rounds []R, f func(R) T) []T {
	out := make([]T, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// perSecond divides, returning 0 for an empty interval.
func perSecond(n, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}

// lifecycleEndToEnd fills the end-to-end metrics of a lifecycle workload:
// the median over rounds of each per-round figure, and latency percentiles
// over the rounds' ops pooled.
func lifecycleEndToEnd(m metricSet, workload string, rounds []*lifecycleRound) {
	phase := func(p string, f func(phaseStats) float64) []float64 {
		return collect(rounds, func(r *lifecycleRound) float64 { return f(r.Phase[p]) })
	}
	mbps := func(st phaseStats) float64 { return perSecond(float64(st.Bytes)/mib, st.WallS) }
	lat := func(p string) [][]float64 {
		return collect(rounds, func(r *lifecycleRound) []float64 { return r.Phase[p].LatMs })
	}
	pooled := func(name, p string, pct float64) {
		if specByName(name).definedOn(workload) {
			m[name] = pooledPercentile(lat(p), pct)
		}
	}

	set := func(name string, perRound []float64) {
		if spec := specByName(name); spec.definedOn(workload) {
			m[name] = roundMedian(spec.Unit, perRound)
		}
	}
	set("setup_s", collect(rounds, func(r *lifecycleRound) float64 { return r.SetupS }))
	set("lifecycle_s", collect(rounds, (*lifecycleRound).lifecycleS))
	set("cpu_s_per_gib", collect(rounds, func(r *lifecycleRound) float64 {
		return r.CPUS / (float64(r.UserBytes) / (1 << 30))
	}))
	set("write_mbps", phase("write", mbps))
	pooled("write_p50_ms", "write", 50)
	pooled("write_p95_ms", "write", 95)
	set("encode_mbps", phase("encode", mbps))
	set("encode_cross_rack_bytes_per_stripe", collect(rounds, func(r *lifecycleRound) float64 {
		return float64(r.Phase["encode"].Fabric.CrossRackBytes) / float64(max(r.Encode.Stripes, 1))
	}))
	set("read_mbps", phase("read", mbps))
	pooled("read_p50_ms", "read", 50)
	pooled("degraded_read_p50_ms", "degraded", 50)
	set("recover_mbps", phase("recover", mbps))
	set("recover_cross_rack_bytes_per_member", collect(rounds, func(r *lifecycleRound) float64 {
		return float64(r.Recover.CrossRackBytes) / float64(max(r.Recover.BlocksRepaired+r.Recover.ParityRepaired, 1))
	}))
	set("stored_bytes_per_user_byte", collect(rounds, func(r *lifecycleRound) float64 {
		return float64(r.StoredBytes) / float64(r.UserBytes)
	}))
}
