package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/topology"
)

// Geometry shared by the three data workloads: the (14,12) code packed four
// blocks per rack on a 4x4 topology that earbench's recovery and encodepipe
// suites use, 256 KiB blocks standing in for the paper's 64 MB.
const (
	racks        = 4
	nodesPerRack = 4
	codeN        = 14
	codeK        = 12
	rackCap      = 4
	replicas     = 2
	blockBytes   = 256 << 10
	mapTasks     = 4
	// unshapedBps is the rate that makes fabric wait vanish.
	unshapedBps = 64 << 30
	// clients is the closed-loop client count of every workload.
	clients = 2
)

// dataSize is what a data workload scales: everything else is the default
// hdfs.Config, because the benchmark measures the defaults.
type dataSize struct {
	Stripes       int     `json:"stripes"`
	LinkBps       float64 `json:"link_bytes_per_s"`
	DiskBps       float64 `json:"disk_bytes_per_s"`
	DegradedReads int     `json:"degraded_reads"`
	// SetupStripes are written during set-up at the workload's own link
	// rates, so the timed phases start on a cluster that already holds
	// data. On a shaped workload this gives setup_s a floor the links set,
	// which the host's CPU speed cannot move; the blocks are encoded, read
	// and verified with the rest.
	SetupStripes int `json:"setup_stripes,omitempty"`
}

func (sz dataSize) blocks() int      { return (sz.Stripes + sz.SetupStripes) * codeK }
func (sz dataSize) userBytes() int64 { return int64(sz.blocks()) * blockBytes }

// newCluster builds the workload cluster. No A/B or tuning knob of
// hdfs.Config is set.
func newCluster(sz dataSize, seed int64) (*hdfs.Cluster, error) {
	return hdfs.NewCluster(hdfs.Config{
		Racks:                    racks,
		NodesPerRack:             nodesPerRack,
		Policy:                   "ear",
		Replicas:                 replicas,
		K:                        codeK,
		N:                        codeN,
		C:                        rackCap,
		BlockSizeBytes:           blockBytes,
		BandwidthBytesPerSec:     sz.LinkBps,
		DiskBandwidthBytesPerSec: sz.DiskBps,
		MapTasks:                 mapTasks,
		Seed:                     seed,
	})
}

// setRates changes every link and disk rate of the cluster's fabric.
func setRates(c *hdfs.Cluster, link, disk float64) error {
	if err := c.Fabric().SetAllRates(link); err != nil {
		return err
	}
	return c.Fabric().SetDiskRates(disk)
}

// payloadBuf holds the blocks a workload writes. It is allocated once a
// run and refilled from each round's seed, so a round's set-up does not
// churn the heap its timed phases then run in.
type payloadBuf [][]byte

func newPayloadBuf(blocks int) payloadBuf {
	p := make(payloadBuf, blocks)
	for i := range p {
		p[i] = make([]byte, blockBytes)
	}
	return p
}

// startRound returns the time a round's set-up begins. A shaped round first
// collects the previous round's cluster: its timings are set by the links,
// so the collection cannot move them, and it keeps one round's garbage out
// of the next one's memory high-water mark. A CPU-bound round leaves the
// heap to the runtime, because a forced collection resets the GC pacer
// every round and that changes what the round measures.
func startRound(shaped bool) time.Time {
	if shaped {
		runtime.GC()
		runtime.GC() // the second call waits for the first one's sweep to finish
	}
	return time.Now()
}

// fill overwrites every block with distinct bytes derived from the seed.
// splitmix64 yields eight bytes a step, which keeps generation a small
// part of set-up.
func (p payloadBuf) fill(seed int64) {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, b := range p {
		for off := 0; off < len(b); off += 8 {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			binary.LittleEndian.PutUint64(b[off:], z^(z>>31))
		}
	}
}

// phaseStats is what one timed phase yields.
type phaseStats struct {
	WallS  float64
	Ops    int
	Failed int
	// Bytes counts user bytes moved by the ops that succeeded.
	Bytes int64
	// LatMs holds one latency per successful op; a failed op has none.
	LatMs []float64
	// Fabric is the link-counter delta over the phase.
	Fabric fabric.Snapshot
}

// add folds one client's share into the phase.
func (p *phaseStats) add(q phaseStats) {
	p.Ops += q.Ops
	p.Failed += q.Failed
	p.Bytes += q.Bytes
	p.LatMs = append(p.LatMs, q.LatMs...)
}

// linkBoundS is the time the busiest link needs for the bytes it carried:
// no schedule of the same transfers can finish the phase sooner.
func (p phaseStats) linkBoundS() float64 {
	bound := 0.0
	for _, l := range p.Fabric.Links {
		if l.RateBytesPerSec > 0 {
			bound = max(bound, float64(l.MovedBytes)/l.RateBytesPerSec)
		}
	}
	return bound
}

// timed runs fn as one phase: wall clock and fabric delta around it.
func timed(c *hdfs.Cluster, parent *liveSpan, name string, fn func(sp *liveSpan) phaseStats) phaseStats {
	sp := parent.child(name)
	before := c.Fabric().Snapshot()
	t0 := time.Now()
	st := fn(sp)
	st.WallS = time.Since(t0).Seconds()
	st.Fabric = c.Fabric().Snapshot().Sub(before)
	sp.end()
	return st
}

// runClients runs fn once per client goroutine and waits for all of them:
// a closed loop, each client issuing its next op when the previous returns.
func runClients(n int, fn func(client int) phaseStats) phaseStats {
	parts := make([]phaseStats, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = fn(g)
		}(g)
	}
	wg.Wait()
	var total phaseStats
	for _, p := range parts {
		total.add(p)
	}
	return total
}

// dataset tracks what the benchmark wrote, so every later read can be
// compared byte for byte.
type dataset struct {
	c       *hdfs.Cluster
	payload [][]byte
	seed    int64

	// ids[i] is the block holding payload[i]; written marks valid entries.
	// Each index has one writer, and readers start after it has finished.
	ids     []topology.BlockID
	written []bool
}

func newDataset(c *hdfs.Cluster, payload [][]byte, seed int64) *dataset {
	return &dataset{
		c:       c,
		payload: payload,
		seed:    seed,
		ids:     make([]topology.BlockID, len(payload)),
		written: make([]bool, len(payload)),
	}
}

// nodeWalk yields client nodes as seeded shuffles of all nodes, one after
// another: every node issues the same share of the ops whatever the seed,
// and only the order differs from run to run.
type nodeWalk struct {
	rng  *rand.Rand
	perm []int
}

// clientNodes gives each client of each phase its own seeded walk.
func (d *dataset) clientNodes(phase, client int) *nodeWalk {
	return &nodeWalk{rng: rand.New(rand.NewSource(d.seed*7919 + int64(phase)*101 + int64(client)))}
}

func (w *nodeWalk) next() topology.NodeID {
	if len(w.perm) == 0 {
		w.perm = w.rng.Perm(racks * nodesPerRack)
	}
	n := w.perm[0]
	w.perm = w.perm[1:]
	return topology.NodeID(n)
}

// writeOne writes payload[i] from a seeded client node.
func (d *dataset) writeOne(sp *liveSpan, nodes *nodeWalk, i int, st *phaseStats) {
	node := nodes.next()
	call := sp.child("hdfs.WriteBlock")
	t0 := time.Now()
	id, err := d.c.WriteBlock(node, d.payload[i])
	lat := time.Since(t0)
	call.end()
	st.Ops++
	if err != nil {
		st.Failed++
		return
	}
	d.ids[i], d.written[i] = id, true
	st.Bytes += blockBytes
	st.LatMs = append(st.LatMs, lat.Seconds()*1e3)
}

// write stores payload[lo:hi], the clients taking alternate blocks.
func (d *dataset) write(sp *liveSpan, lo, hi int) phaseStats {
	return runClients(clients, func(g int) phaseStats {
		var st phaseStats
		nodes := d.clientNodes(1, g)
		for i := lo + g; i < hi; i += clients {
			d.writeOne(sp, nodes, i, &st)
		}
		return st
	})
}

// readOne reads written block i through read (ReadBlock or DegradedRead)
// and compares it with what was written. A mismatch is a failed op.
func (d *dataset) readOne(sp *liveSpan, name string, node topology.NodeID, i int, st *phaseStats,
	read func(topology.NodeID, topology.BlockID) ([]byte, error)) {
	st.Ops++
	call := sp.child(name)
	t0 := time.Now()
	got, err := read(node, d.ids[i])
	lat := time.Since(t0)
	call.end()
	if err != nil || !bytes.Equal(got, d.payload[i]) {
		st.Failed++
		return
	}
	st.Bytes += blockBytes
	st.LatMs = append(st.LatMs, lat.Seconds()*1e3)
}

// readAll reads every block once in a seeded order, the clients taking
// alternate positions of the order.
func (d *dataset) readAll(sp *liveSpan, phase int) phaseStats {
	order := rand.New(rand.NewSource(d.seed*31 + int64(phase))).Perm(len(d.payload))
	return runClients(clients, func(g int) phaseStats {
		var st phaseStats
		nodes := d.clientNodes(phase, g)
		for j := g; j < len(order); j += clients {
			if !d.written[order[j]] {
				continue // its write already counted as failed, or never ran
			}
			d.readOne(sp, "hdfs.ReadBlock", nodes.next(), order[j], &st, d.c.ReadBlock)
		}
		return st
	})
}

// busiestNode returns the live node holding the most data blocks of encoded
// stripes (lowest ID on a tie), or -1 when nothing is encoded.
func busiestNode(c *hdfs.Cluster) topology.NodeID {
	nn := c.NameNode()
	load := make([]int, racks*nodesPerRack)
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			continue
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil || meta.Aborted {
				continue
			}
			for _, node := range meta.Nodes {
				load[node]++
			}
		}
	}
	best := topology.NodeID(-1)
	for node, l := range load {
		if l > 0 && (best < 0 || l > load[best]) {
			best = topology.NodeID(node)
		}
	}
	return best
}

// membersOn counts the stripe members (data blocks and parity rows of
// encoded stripes) whose recorded location is the node.
func membersOn(c *hdfs.Cluster, node topology.NodeID) (data, parity int) {
	nn := c.NameNode()
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			continue
		}
		for _, b := range sm.Info.Blocks {
			if meta, err := nn.Block(b); err == nil && !meta.Aborted {
				for _, n := range meta.Nodes {
					if n == node {
						data++
					}
				}
			}
		}
		if sm.Plan != nil {
			for _, n := range sm.Plan.Parity {
				if n == node {
					parity++
				}
			}
		}
	}
	return data, parity
}

// storedBytes sums what every DataNode holds.
func storedBytes(c *hdfs.Cluster) (int64, error) {
	var total int64
	for n := 0; n < racks*nodesPerRack; n++ {
		dn, err := c.DataNodeOf(topology.NodeID(n))
		if err != nil {
			return 0, err
		}
		total += dn.Store.Bytes()
	}
	return total, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procCounters is a point-in-time reading of the process-level counters.
type procCounters struct {
	cpuS       float64
	allocBytes uint64
	gcPauseNs  uint64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{cpuS: cpuSeconds(), allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs}
}

// procDelta is the change of the process counters over a round's timed
// phases.
type procDelta struct {
	CPUS       float64
	AllocBytes uint64
	GCPauseMs  float64
}

// since returns the change from start to p.
func (p procCounters) since(start procCounters) procDelta {
	return procDelta{
		CPUS:       p.cpuS - start.cpuS,
		AllocBytes: p.allocBytes - start.allocBytes,
		GCPauseMs:  float64(p.gcPauseNs-start.gcPauseNs) / 1e6,
	}
}

// checks collects failed correctness checks; any entry fails the run.
type checks []string

func (k *checks) failf(format string, args ...any) {
	*k = append(*k, fmt.Sprintf(format, args...))
}
