package hdfs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/topology"
)

// The monitor's tuning is fixed: nothing ever ran it with other values.
const (
	// HealthInterval is the scoring period: each tick probes every node and
	// recomputes scores.
	HealthInterval = 500 * time.Millisecond
	// probeTimeout bounds one heartbeat probe; a probe still in flight at the
	// deadline is scored at its elapsed time.
	probeTimeout = 4 * HealthInterval
	// heartbeatBytes is the probe payload: a small shaped transfer to a
	// same-rack peer, so probe latency reflects the node's fabric links
	// without moving real data.
	heartbeatBytes = 4096
	// outlierFactor is the latency ratio versus the cluster median at which a
	// signal's subscore reaches zero: at the median the subscore is 1, at
	// outlierFactor×median it is 0, linear between.
	outlierFactor = 3.0
	// heartbeatFloor is the absolute probe latency below which a node is
	// healthy regardless of ratio — without it, microsecond-scale medians turn
	// scheduler jitter into outliers. It also floors the ratio's denominator.
	heartbeatFloor = 25 * time.Millisecond
	// opCostFloor is the same slack for the transfer-cost signal, in seconds
	// per MiB (anything faster than ~2 MiB/s effective is never an outlier).
	opCostFloor = 0.5
	// minOpSamples is how many transfers a node must have in one scoring
	// window before its op-latency signal counts; below it the signal is
	// neutral (each tick's own probes contribute two).
	minOpSamples = 2
	// degradedBelow and recoveredAt are the hysteresis thresholds on the 0–100
	// score: a node degrades below the former and must climb back to the
	// latter to recover.
	degradedBelow = 50.0
	recoveredAt   = 75.0
	// failureDecay multiplies each node's failure count every tick, so old
	// NodeDead transitions stop hurting the score.
	failureDecay = 0.5
	// opSampleCap bounds the per-node ring of observed transfer rates.
	opSampleCap = 64
)

// NodeHealth is one node's scored state, as served by the /health endpoint.
type NodeHealth struct {
	Node topology.NodeID `json:"node"`
	Rack topology.RackID `json:"rack"`
	// Score is the composite 0–100 health score: 40% heartbeat latency,
	// 40% op latency, 20% recent failures, each relative to cluster peers.
	Score float64 `json:"score"`
	// Heartbeat is the node's latest probe round trip.
	Heartbeat time.Duration `json:"heartbeat"`
	// HeartbeatRatio is Heartbeat over the cluster median (1 = typical).
	HeartbeatRatio float64 `json:"heartbeat_ratio"`
	// OpSecPerMB is the node's typical observed transfer cost — the 25th
	// percentile of the transfers it took part in during the last scoring
	// window, from the journal's TransferFinished stream (0 until
	// minOpSamples transfers). A low percentile is deliberate: transfers are
	// attributed to both endpoints, and a healthy node that merely talked
	// to a slow peer still shows fast transfers on its other paths, while
	// a node whose own links are slow is slow on every path. The window is
	// drained each tick, so both degradation and recovery register within
	// one scoring window.
	OpSecPerMB float64 `json:"op_sec_per_mb"`
	// OpRatio is OpSecPerMB over the cluster median (1 = typical).
	OpRatio float64 `json:"op_ratio"`
	// OpSamples is how many transfers informed OpSecPerMB last window.
	OpSamples int `json:"op_samples"`
	// Failures is the decayed count of recent NodeDead transitions.
	Failures float64 `json:"failures"`
	// Degraded reports the hysteresis state (flipped by score crossings).
	Degraded bool `json:"degraded"`
	// Dead reports NameNode liveness; dead nodes are not probed or scored.
	Dead bool `json:"dead"`
}

// nodeState is the monitor's mutable per-node record.
type nodeState struct {
	hbLat     time.Duration // latest probe latency (0 = never probed)
	hbRatio   float64
	opSamples []float64 // sec-per-MB observations, current window
	opNext    int
	opCount   int
	opWindow  int     // samples behind opCost (last completed window)
	opCost    float64 // 25th percentile of the last window
	opRatio   float64
	failures  float64
	score     float64
	degraded  bool
}

// HealthMonitor scores every DataNode against its cluster peers and
// publishes NodeDegraded / NodeRecovered journal events when a node's score
// crosses the hysteresis thresholds. Signals: heartbeat probe latency (a
// small shaped transfer to a same-rack peer each tick), observed transfer
// cost from the journal's TransferFinished stream, and recent NodeDead
// transitions. Each signal is scored relative to the cluster median, so the
// monitor needs no absolute latency calibration.
//
// The monitor is passive, like every plane: it scores when Tick is called
// and folds the events Observe is handed. internal/planes subscribes it to
// the journal and calls Tick every HealthInterval; tests drive both
// directly.
type HealthMonitor struct {
	c *Cluster

	mu    sync.Mutex
	nodes []nodeState
}

// NewHealthMonitor creates a monitor for the cluster, every node at 100.
func NewHealthMonitor(c *Cluster) *HealthMonitor {
	h := &HealthMonitor{c: c, nodes: make([]nodeState, c.top.Nodes())}
	h.Reset()
	return h
}

// Reset forgets every signal: each node back at 100, never probed.
func (h *HealthMonitor) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.nodes {
		h.nodes[i] = nodeState{score: 100}
	}
}

// Observe folds one journal event into the per-node state. It runs under
// the journal lock, so it only updates the monitor's own fields.
func (h *HealthMonitor) Observe(e events.Event) {
	switch e.Type {
	case events.TransferFinished:
		if e.Bytes <= 0 || e.Dur <= 0 || e.Node == e.Peer {
			// Local (same-node) transfers exercise the disk, not the
			// network links the score measures.
			return
		}
		secPerMB := e.Dur.Seconds() / (float64(e.Bytes) / (1 << 20))
		h.mu.Lock()
		h.addOpSample(e.Node, secPerMB)
		h.addOpSample(e.Peer, secPerMB)
		h.mu.Unlock()
	case events.NodeDead:
		h.mu.Lock()
		if int(e.Node) >= 0 && int(e.Node) < len(h.nodes) {
			h.nodes[e.Node].failures++
		}
		h.mu.Unlock()
	}
}

// addOpSample records one transfer-rate observation (caller holds h.mu).
func (h *HealthMonitor) addOpSample(n topology.NodeID, secPerMB float64) {
	if int(n) < 0 || int(n) >= len(h.nodes) {
		return
	}
	st := &h.nodes[n]
	if st.opSamples == nil {
		st.opSamples = make([]float64, opSampleCap)
	}
	st.opSamples[st.opNext] = secPerMB
	st.opNext = (st.opNext + 1) % opSampleCap
	if st.opCount < opSampleCap {
		st.opCount++
	}
}

// heartbeatPeer picks the probe destination for n: the next live node in
// the same rack, so probe latency isolates n's own links from cross-rack
// congestion. Returns false when n has no live rack peer.
func (h *HealthMonitor) heartbeatPeer(n topology.NodeID) (topology.NodeID, bool) {
	rack, err := h.c.top.RackOf(n)
	if err != nil {
		return 0, false
	}
	peers, err := h.c.top.NodesInRack(rack)
	if err != nil {
		return 0, false
	}
	// Start from n's successor so probes do not all converge on one peer.
	idx := 0
	for i, p := range peers {
		if p == n {
			idx = i
			break
		}
	}
	for i := 1; i < len(peers); i++ {
		p := peers[(idx+i)%len(peers)]
		if !h.c.nn.IsDead(p) {
			return p, true
		}
	}
	return 0, false
}

// Tick runs one scoring round: probe every live node, fold the signals into
// scores, and publish degrade/recover transitions.
func (h *HealthMonitor) Tick(ctx context.Context) {
	n := len(h.nodes)
	type probe struct {
		lat time.Duration
		ok  bool
	}
	probes := make([]probe, n)
	dead := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		if h.c.nn.IsDead(node) {
			dead[i] = true
			continue
		}
		peer, ok := h.heartbeatPeer(node)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int, src, dst topology.NodeID) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			start := time.Now()
			err := h.c.fab.Send(pctx, src, dst, heartbeatBytes)
			lat := time.Since(start)
			// A timed-out probe still scores at its elapsed time — that IS
			// the signal; other errors (shutdown) drop the sample.
			if err == nil || pctx.Err() != nil {
				probes[i] = probe{lat: lat, ok: true}
			}
			if err != nil && pctx.Err() != nil {
				// The transfer never finished, so the fabric's journal
				// event may carry zero bytes; record the op observation
				// directly lest the stuck node lose its op signal.
				spm := lat.Seconds() / (float64(heartbeatBytes) / (1 << 20))
				h.mu.Lock()
				h.addOpSample(src, spm)
				h.addOpSample(dst, spm)
				h.mu.Unlock()
			}
		}(i, node, peer)
	}
	wg.Wait()

	var transitions []events.Event
	h.mu.Lock()
	for i := range h.nodes {
		st := &h.nodes[i]
		if probes[i].ok {
			st.hbLat = probes[i].lat
		}
		st.opCost = 0
		st.opWindow = st.opCount
		if st.opCount >= minOpSamples {
			vals := append([]float64(nil), st.opSamples[:st.opCount]...)
			sort.Float64s(vals)
			st.opCost = vals[len(vals)/4]
		}
		st.opCount, st.opNext = 0, 0 // drain: next window starts fresh
	}
	hbMed := h.medianLocked(func(st *nodeState) (float64, bool) {
		return st.hbLat.Seconds(), st.hbLat > 0
	}, dead)
	opMed := h.medianLocked(func(st *nodeState) (float64, bool) {
		return st.opCost, st.opCost > 0
	}, dead)
	for i := range h.nodes {
		st := &h.nodes[i]
		if dead[i] {
			st.score = 0
			st.failures *= failureDecay
			continue
		}
		st.hbRatio = ratioOf(st.hbLat.Seconds(), hbMed, heartbeatFloor.Seconds())
		st.opRatio = ratioOf(st.opCost, opMed, opCostFloor)
		sHb := subscore(st.hbRatio)
		sOp := subscore(st.opRatio)
		sFail := 1 / (1 + st.failures)
		st.score = 100 * (0.4*sHb + 0.4*sOp + 0.2*sFail)
		st.failures *= failureDecay
		switch {
		case !st.degraded && st.score < degradedBelow:
			st.degraded = true
			transitions = append(transitions, h.transitionEvent(
				events.NodeDegraded, topology.NodeID(i), st, sHb, sOp, sFail))
		case st.degraded && st.score >= recoveredAt:
			st.degraded = false
			transitions = append(transitions, h.transitionEvent(
				events.NodeRecovered, topology.NodeID(i), st, sHb, sOp, sFail))
		}
	}
	h.mu.Unlock()

	// Publish outside h.mu: the journal runs subscribers (including this
	// monitor's own Observe) under its lock, and Observe takes h.mu.
	jnl := h.c.Journal()
	for _, ev := range transitions {
		jnl.Publish(ev)
	}
}

// transitionEvent builds a NodeDegraded/NodeRecovered event with the score
// breakdown in Detail (caller holds h.mu).
func (h *HealthMonitor) transitionEvent(t events.Type, n topology.NodeID, st *nodeState, sHb, sOp, sFail float64) events.Event {
	ev := events.New(t, "health")
	ev.Node = n
	if rack, err := h.c.top.RackOf(n); err == nil {
		ev.Rack = rack
	}
	ev.Detail = fmt.Sprintf("score=%.1f hb=%.2f(r%.2f) op=%.2f(r%.2f) fail=%.2f",
		st.score, sHb, st.hbRatio, sOp, st.opRatio, sFail)
	return ev
}

// medianLocked computes the median of one signal over live nodes (caller
// holds h.mu). Returns 0 when no node has the signal yet.
func (h *HealthMonitor) medianLocked(get func(*nodeState) (float64, bool), dead []bool) float64 {
	vals := make([]float64, 0, len(h.nodes))
	for i := range h.nodes {
		if dead[i] {
			continue
		}
		if v, ok := get(&h.nodes[i]); ok && v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// ratioOf is v over the cluster median, neutral (1) when either is missing
// or when v sits under the absolute floor; the floor also bounds the
// denominator so a microsecond-scale median cannot inflate the ratio.
func ratioOf(v, med, floor float64) float64 {
	if v <= 0 || med <= 0 || v <= floor {
		return 1
	}
	if med < floor {
		med = floor
	}
	return v / med
}

// subscore maps a latency ratio to [0,1]: 1 at or below the median, linear
// down to 0 at outlierFactor× the median.
func subscore(ratio float64) float64 {
	s := 1 - (ratio-1)/(outlierFactor-1)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Report returns every node's current health, in node order.
func (h *HealthMonitor) Report() []NodeHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]NodeHealth, len(h.nodes))
	for i := range h.nodes {
		st := &h.nodes[i]
		nh := NodeHealth{
			Node:           topology.NodeID(i),
			Rack:           -1,
			Score:          st.score,
			Heartbeat:      st.hbLat,
			HeartbeatRatio: st.hbRatio,
			OpSecPerMB:     st.opCost,
			OpRatio:        st.opRatio,
			OpSamples:      st.opWindow,
			Failures:       st.failures,
			Degraded:       st.degraded,
			Dead:           h.c.nn.IsDead(topology.NodeID(i)),
		}
		if rack, err := h.c.top.RackOf(topology.NodeID(i)); err == nil {
			nh.Rack = rack
		}
		out[i] = nh
	}
	return out
}

// Degraded returns the nodes currently in the degraded state.
func (h *HealthMonitor) Degraded() []topology.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []topology.NodeID
	for i := range h.nodes {
		if h.nodes[i].degraded {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}
