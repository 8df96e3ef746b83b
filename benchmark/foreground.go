package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ear/internal/hdfs"
)

// foregroundRound is what one encode job with foreground I/O beside it
// measured (paper Experiment A.2).
type foregroundRound struct {
	SetupS float64
	// EncodePhase is the background job; Write and Read are the two
	// foreground clients, which ran until it returned.
	EncodePhase phaseStats
	Write       phaseStats
	Read        phaseStats
	Encode      hdfs.EncodeStats
	StoredBytes int64
	UserBytes   int64
	procDelta
	PoolGets int64
	PoolHits int64
	Planes   *planeReport
	Checks   checks
}

func (r *foregroundRound) ops() (attempted, failed int) {
	for _, st := range []phaseStats{r.EncodePhase, r.Write, r.Read} {
		attempted += st.Ops
		failed += st.Failed
	}
	return attempted, failed
}

func (r *foregroundRound) failedChecks() checks { return r.Checks }

// foregroundExtra is how many blocks beyond the pre-populated ones the
// payload holds for the foreground writer; it wraps around if the job
// outlasts them.
const foregroundExtra = 8 * codeK

// runForeground pre-populates sz.Stripes stripes with the rates lifted and
// sz.SetupStripes more at the shaped rates (set-up), and runs EncodeAll at
// the shaped rates while one client writes new blocks and one reads random
// pre-written blocks.
func runForeground(sz dataSize, seed int64, round int, payload payloadBuf, rec *recorder, traced bool) (*foregroundRound, error) {
	t0 := startRound(true)
	root := rec.start("encode-foreground", round, nil)
	defer root.end()

	setup := root.child("setup")
	roundSeed := seed<<16 + int64(round)
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
	pre := len(payload) - foregroundExtra
	lifted := sz.Stripes * codeK
	if err := setRates(c, unshapedBps, unshapedBps); err != nil {
		return nil, err
	}
	st := d.write(nil, 0, lifted)
	if err := setRates(c, sz.LinkBps, sz.DiskBps); err != nil {
		return nil, err
	}
	st.add(d.write(nil, lifted, pre))
	if st.Failed != 0 {
		return nil, fmt.Errorf("pre-population: %d of %d writes failed", st.Failed, st.Ops)
	}
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		return nil, fmt.Errorf("flush open stripes: %w", err)
	}
	res := &foregroundRound{UserBytes: sz.userBytes()}
	setup.end()
	res.SetupS = time.Since(t0).Seconds()

	gets0, hits0 := c.BufferPool().Stats()
	proc0 := readProc()
	res.EncodePhase = timed(c, root, "encode", func(sp *liveSpan) phaseStats {
		done := make(chan struct{})
		var fg sync.WaitGroup
		fg.Add(clients)
		go func() {
			defer fg.Done()
			res.Write = d.writeUntil(sp, done, pre)
		}()
		go func() {
			defer fg.Done()
			res.Read = d.readUntil(sp, done, pre)
		}()
		call := sp.child("hdfs.EncodeAll")
		res.Encode, err = c.RaidNode().EncodeAll()
		call.end()
		close(done)
		fg.Wait()
		return oneOp(err, res.Encode.EncodedBytes)
	})
	res.procDelta = readProc().since(proc0)
	res.Write.WallS, res.Read.WallS = res.EncodePhase.WallS, res.EncodePhase.WallS
	res.UserBytes += res.Write.Bytes
	gets1, hits1 := c.BufferPool().Stats()
	res.PoolGets, res.PoolHits = gets1-gets0, hits1-hits0

	res.Checks = checkEncode(c, res.Encode)
	if res.StoredBytes, err = storedBytes(c); err != nil {
		return nil, err
	}
	verify := root.child("verify")
	if err := setRates(c, unshapedBps, unshapedBps); err != nil {
		return nil, err
	}
	if st := d.readAll(nil, 6); st.Failed != 0 {
		res.Checks.failf("%d of %d block(s) unreadable or altered after the encode job", st.Failed, st.Ops)
	}
	verify.end()
	if pl != nil {
		res.Planes = pl.report()
		res.Checks = append(res.Checks, res.Planes.failedChecks()...)
	}
	return res, nil
}

// writeUntil writes payload blocks from index pre on, wrapping within the
// extra blocks, until done closes. A wrapped index is rewritten as a new
// block; the dataset then tracks the newest copy.
func (d *dataset) writeUntil(sp *liveSpan, done <-chan struct{}, pre int) phaseStats {
	var st phaseStats
	nodes := d.clientNodes(1, 0)
	for n := 0; ; n++ {
		select {
		case <-done:
			return st
		default:
		}
		d.writeOne(sp, nodes, pre+n%(len(d.payload)-pre), &st)
	}
}

// readUntil reads random pre-populated blocks until done closes.
func (d *dataset) readUntil(sp *liveSpan, done <-chan struct{}, pre int) phaseStats {
	var st phaseStats
	nodes := d.clientNodes(3, 1)
	pick := rand.New(rand.NewSource(d.seed * 17))
	for {
		select {
		case <-done:
			return st
		default:
		}
		d.readOne(sp, "hdfs.ReadBlock", nodes.next(), pick.Intn(pre), &st, d.c.ReadBlock)
	}
}

// runForegroundWorkload repeats the round on a fresh cluster and reports
// medians over rounds.
func runForegroundWorkload(sz dataSize, o options, rec *recorder) (*result, error) {
	res := &result{Size: sz, EndToEnd: metricSet{}}
	payload := newPayloadBuf(sz.blocks() + foregroundExtra)
	plain, traced, err := runRounds(res, wlForeground, o, rec, func(round int, rec *recorder, tr bool) (*foregroundRound, error) {
		return runForeground(sz, o.Seed, round, payload, rec, tr)
	})
	if err != nil {
		return nil, err
	}

	m := res.EndToEnd
	set := func(name string, f func(*foregroundRound) float64) {
		m[name] = roundMedian(specByName(name).Unit, collect(plain, f))
	}
	mbps := func(st phaseStats) float64 { return perSecond(float64(st.Bytes)/mib, st.WallS) }
	window := func(r *foregroundRound) float64 { return r.EncodePhase.WallS }
	set("setup_s", func(r *foregroundRound) float64 { return r.SetupS })
	set("lifecycle_s", window)
	m["write_p50_ms"] = pooledPercentile(collect(plain, func(r *foregroundRound) []float64 { return r.Write.LatMs }), 50)
	set("write_mbps", func(r *foregroundRound) float64 { return mbps(r.Write) })
	set("encode_mbps", func(r *foregroundRound) float64 { return mbps(r.EncodePhase) })
	set("encode_cross_rack_bytes_per_stripe", func(r *foregroundRound) float64 {
		return float64(r.EncodePhase.Fabric.CrossRackBytes) / float64(max(r.Encode.Stripes, 1))
	})
	set("read_mbps", func(r *foregroundRound) float64 { return mbps(r.Read) })
	m["read_p50_ms"] = pooledPercentile(collect(plain, func(r *foregroundRound) []float64 { return r.Read.LatMs }), 50)
	set("stored_bytes_per_user_byte", func(r *foregroundRound) float64 {
		return float64(r.StoredBytes) / float64(r.UserBytes)
	})

	if o.Trace {
		res.PerLayer = metricSet{}
		res.model = foregroundLayers(res.PerLayer, plain)
		planeLayers(res.PerLayer, collect(traced, func(r *foregroundRound) *planeReport { return r.Planes }))
		res.PerLayer["observability.trace_overhead_pct"] = value{
			Value: overheadPct(collect(plain, window), collect(traced, window), false), Unit: "%", N: len(traced)}
	}
	return res, nil
}

// foregroundLayers fills the per-layer counters of the foreground workload.
// Its three phases run at once, so each has the window as its wall and only
// the encode phase carries the fabric delta (client traffic mixed in).
func foregroundLayers(m metricSet, rounds []*foregroundRound) map[string]phaseModel {
	phases := map[string]func(*foregroundRound) phaseStats{
		"write":  func(r *foregroundRound) phaseStats { return r.Write },
		"encode": func(r *foregroundRound) phaseStats { return r.EncodePhase },
		"read":   func(r *foregroundRound) phaseStats { return r.Read },
	}
	ops := make(map[string]float64)
	for p, get := range phases {
		sts := collect(rounds, get)
		ops[p] = median(collect(sts, func(st phaseStats) float64 { return float64(st.Ops) }))
		m["hdfs."+p+".ops"] = value{Value: ops[p], Unit: "count", N: len(rounds)}
		m["hdfs."+p+".failed"] = value{
			Value: median(collect(sts, func(st phaseStats) float64 { return float64(st.Failed) })), Unit: "count", N: len(rounds)}
	}
	fabricLayers(m, "encode", collect(rounds, phases["encode"]))
	raidnodeLayers(m, collect(rounds, func(r *foregroundRound) encodeCounters {
		return encodeCounters{r.Encode, r.PoolGets, r.PoolHits}
	}))
	processLayers(m, collect(rounds, func(r *foregroundRound) procShare {
		return procShare{r.procDelta, r.UserBytes}
	}))

	wall := median(collect(rounds, func(r *foregroundRound) float64 { return r.EncodePhase.WallS }))
	stripes := median(collect(rounds, func(r *foregroundRound) float64 { return float64(r.Encode.Stripes) }))
	const k, parity = codeK, codeN - codeK
	return map[string]phaseModel{
		"write": {WallS: wall, Puts: ops["write"] * replicas, Pairs: ops["write"], Concurrency: 1},
		"encode": {WallS: wall, LinkBoundS: m["fabric.encode.link_bound_s"].Value, Gets: stripes * k,
			Puts: stripes * parity, MulAddBytes: stripes * parity * k * blockBytes, Concurrency: mapTasks},
		"read": {WallS: wall, Gets: ops["read"], Concurrency: 1},
	}
}
