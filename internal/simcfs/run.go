package simcfs

import (
	"errors"
	"fmt"
	"math/rand"

	"ear/internal/placement"
	"ear/internal/sim"
	"ear/internal/stats"
	"ear/internal/topology"
)

// PolicyKind selects the replica placement policy under test.
type PolicyKind int

const (
	// PolicyRR is random replication (the baseline).
	PolicyRR PolicyKind = iota + 1
	// PolicyEAR is encoding-aware replication.
	PolicyEAR
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicyRR:
		return "rr"
	case PolicyEAR:
		return "ear"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// ErrInvalidParams indicates unusable simulation parameters.
var ErrInvalidParams = errors.New("simcfs: invalid parameters")

// Params configures one simulation run (one policy, one seed). Defaults
// reproduce the paper's Experiment B.2 base setting: R = 20 racks x 20
// nodes, 1 Gb/s links, 64 MB blocks, 3-way replication, (14, 10) erasure
// coding, 20 encoding processes x 5 stripes, write and background traffic
// at 1 request/s each.
type Params struct {
	Policy PolicyKind

	Racks        int
	NodesPerRack int
	// LinkBandwidthMBps applies to every node NIC and rack core link.
	// 1 Gb/s = 125 MB/s.
	LinkBandwidthMBps float64
	// DiskBandwidthMBps, when positive, charges local (same-node) reads at
	// this rate (SATA disks on the paper's testbed run ~130 MB/s). 0
	// disables disk modeling, matching the paper's network-only simulator.
	DiskBandwidthMBps float64
	BlockSizeMB       float64

	Replicas       int
	K, N, C        int
	TargetRacks    int
	SpreadReplicas bool

	// EncodeProcesses map-task-like workers encode StripesPerProcess
	// stripes each. 0 means the default (20); -1 disables encoding
	// entirely (write/background-only runs, Table I's "without encoding").
	EncodeProcesses   int
	StripesPerProcess int
	// EncodeStartTime delays the encoding operation (Experiment B.1 starts
	// it after 300 s of writes).
	EncodeStartTime float64
	// EncoderSpillProb is the probability an EAR encoding task is scheduled
	// outside the core rack (ablation of the paper's strict core-rack
	// scheduling flag, Section IV-B). 0 under the full design.
	EncoderSpillProb float64

	// WriteRate is the Poisson arrival rate of single-block writes
	// (requests/s). 0 disables the write stream.
	WriteRate float64
	// WriteDuration generates writes for a fixed window; 0 means "until
	// encoding completes".
	WriteDuration float64

	// BackgroundRate is the Poisson arrival rate of background transfers.
	BackgroundRate float64
	// BackgroundMeanMB is the mean of the exponential background transfer
	// size.
	BackgroundMeanMB float64
	// CrossRackBackgroundFrac is the fraction of background transfers that
	// cross racks (the paper uses a 1:1 ratio, i.e. 0.5).
	CrossRackBackgroundFrac float64

	Seed int64
}

// withDefaults fills zero fields with the Experiment B.2 base setting.
func (p Params) withDefaults() Params {
	if p.Policy == 0 {
		p.Policy = PolicyRR
	}
	if p.Racks == 0 {
		p.Racks = 20
	}
	if p.NodesPerRack == 0 {
		p.NodesPerRack = 20
	}
	if p.LinkBandwidthMBps == 0 {
		p.LinkBandwidthMBps = 125
	}
	if p.BlockSizeMB == 0 {
		p.BlockSizeMB = 64
	}
	if p.Replicas == 0 {
		p.Replicas = 3
	}
	if p.K == 0 {
		p.K = 10
	}
	if p.N == 0 {
		p.N = p.K + 4
	}
	if p.C == 0 {
		p.C = 1
	}
	if p.EncodeProcesses == 0 {
		p.EncodeProcesses = 20
	}
	if p.EncodeProcesses < 0 {
		p.EncodeProcesses = 0
	}
	if p.StripesPerProcess == 0 {
		p.StripesPerProcess = 5
	}
	if p.BackgroundMeanMB == 0 {
		p.BackgroundMeanMB = 64
	}
	if p.CrossRackBackgroundFrac == 0 {
		p.CrossRackBackgroundFrac = 0.5
	}
	return p
}

// placementConfig derives the placement configuration.
func (p Params) placementConfig(top *topology.Topology) placement.Config {
	return placement.Config{
		Topology:       top,
		Replicas:       p.Replicas,
		K:              p.K,
		N:              p.N,
		C:              p.C,
		TargetRacks:    p.TargetRacks,
		SpreadReplicas: p.SpreadReplicas,
	}
}

// Result aggregates the measurements of one run.
type Result struct {
	Policy string
	Params Params

	// Encoding metrics.
	EncodeStart          float64
	EncodeEnd            float64
	EncodedStripes       int
	EncodedMB            float64
	EncodeThroughputMBps float64
	// StripeCompletions records (time since encode start, cumulative
	// stripes encoded), the paper's Figure 12 series.
	StripeCompletions stats.Series
	// CrossRackDownloads counts data blocks fetched across racks during
	// encoding (zero under EAR by design).
	CrossRackDownloads int
	// Relocations counts stripes whose post-encoding layout violates
	// rack-level fault tolerance (RR only; the traffic is not simulated,
	// matching the paper's over-estimate of RR).
	Relocations int

	// Write metrics.
	WriteResponses stats.Series // (completion time, response seconds)
	WritesDone     int
	// MeanWriteResponse covers all writes; MeanWriteResponseDuringEncode
	// only those completing while encoding was active.
	MeanWriteResponse             float64
	MeanWriteResponseDuringEncode float64
	// WriteThroughputMBps is the effective per-request service throughput
	// during encoding, BlockSize / MeanWriteResponseDuringEncode (falls
	// back to the overall mean when encoding is disabled).
	WriteThroughputMBps float64

	// Traffic totals.
	CrossRackMB float64
	IntraRackMB float64
}

// Run executes one simulation and returns its measurements.
func Run(params Params) (*Result, error) {
	params = params.withDefaults()
	top, err := topology.New(params.Racks, params.NodesPerRack)
	if err != nil {
		return nil, err
	}
	cfg := params.placementConfig(top)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if params.LinkBandwidthMBps <= 0 || params.BlockSizeMB <= 0 {
		return nil, fmt.Errorf("%w: bandwidth %g, block %g", ErrInvalidParams,
			params.LinkBandwidthMBps, params.BlockSizeMB)
	}
	if params.EncodeProcesses < 0 || params.StripesPerProcess <= 0 {
		return nil, fmt.Errorf("%w: %d encode processes x %d stripes", ErrInvalidParams,
			params.EncodeProcesses, params.StripesPerProcess)
	}
	if (params.WriteRate > 0 || params.BackgroundRate > 0) &&
		params.EncodeProcesses == 0 && params.WriteDuration == 0 {
		return nil, fmt.Errorf("%w: open-ended traffic needs WriteDuration or encoding", ErrInvalidParams)
	}

	rng := rand.New(rand.NewSource(params.Seed))
	s := sim.New()
	cluster, err := NewCluster(s, top, params.LinkBandwidthMBps)
	if err != nil {
		return nil, err
	}
	if params.DiskBandwidthMBps > 0 {
		if err := cluster.EnableDisk(params.DiskBandwidthMBps); err != nil {
			return nil, err
		}
	}

	run := &runState{
		params:  params,
		cfg:     cfg,
		top:     top,
		sim:     s,
		cluster: cluster,
		rng:     rng,
		result:  &Result{Policy: params.Policy.String(), Params: params},
	}
	if err := run.prepareStripes(); err != nil {
		return nil, err
	}
	if err := run.spawnTraffic(); err != nil {
		return nil, err
	}
	if err := s.Run(0); err != nil {
		return nil, err
	}
	run.finish()
	return run.result, nil
}

// runState carries the mutable state of one simulation run.
type runState struct {
	params  Params
	cfg     placement.Config
	top     *topology.Topology
	sim     *sim.Sim
	cluster *Cluster
	rng     *rand.Rand
	result  *Result

	stripes       []*placement.StripeInfo
	encodersLeft  int
	writesStopped bool
	nextBlock     topology.BlockID
}

// newPolicy builds the policy under test.
func (r *runState) newPolicy() (placement.Policy, error) {
	switch r.params.Policy {
	case PolicyRR:
		return placement.NewRandom(r.cfg, r.rng)
	case PolicyEAR:
		return placement.NewEAR(r.cfg, r.rng)
	default:
		return nil, fmt.Errorf("%w: policy %v", ErrInvalidParams, r.params.Policy)
	}
}

// prepareStripes pre-places the blocks that will be encoded (their write
// traffic happened before the simulated window) and groups them into
// stripes: EAR stripes come from the policy's pre-encoding store, RR blocks
// are grouped k-at-a-time by the RaidNode with no placement knowledge.
func (r *runState) prepareStripes() error {
	pol, err := r.newPolicy()
	if err != nil {
		return err
	}
	total := r.params.EncodeProcesses * r.params.StripesPerProcess
	need := total * r.params.K

	switch r.params.Policy {
	case PolicyEAR:
		for len(r.stripes) < total {
			if _, err := pol.Place(r.nextBlock); err != nil {
				return err
			}
			r.nextBlock++
			r.stripes = append(r.stripes, pol.TakeSealed()...)
		}
		r.stripes = r.stripes[:total]
	default:
		blocks := make([]topology.BlockID, 0, need)
		placements := make(map[topology.BlockID]topology.Placement, need)
		for i := 0; i < need; i++ {
			pl, err := pol.Place(r.nextBlock)
			if err != nil {
				return err
			}
			blocks = append(blocks, r.nextBlock)
			placements[r.nextBlock] = pl
			r.nextBlock++
		}
		stripes, err := placement.GroupIntoStripes(r.params.K, blocks, placements, 0)
		if err != nil {
			return err
		}
		r.stripes = stripes
	}
	return nil
}

// spawnTraffic starts the encode workers and the write and background
// generators.
func (r *runState) spawnTraffic() error {
	p := r.params
	r.encodersLeft = p.EncodeProcesses
	if p.EncodeProcesses > 0 {
		r.result.EncodeStart = p.EncodeStartTime
		for w := 0; w < p.EncodeProcesses; w++ {
			w := w
			mine := r.stripes[w*p.StripesPerProcess : (w+1)*p.StripesPerProcess]
			name := fmt.Sprintf("encoder-%d", w)
			if err := r.sim.Spawn(name, p.EncodeStartTime, func(proc *sim.Proc) error {
				return r.encodeWorker(proc, mine)
			}); err != nil {
				return err
			}
		}
	} else {
		r.encodersLeft = 0
	}
	if p.WriteRate > 0 {
		if err := r.sim.Spawn("write-gen", 0, r.writeGenerator); err != nil {
			return err
		}
	}
	if p.BackgroundRate > 0 {
		if err := r.sim.Spawn("background-gen", 0, r.backgroundGenerator); err != nil {
			return err
		}
	}
	return nil
}

// chooseEncoder picks the node that runs the encoding map task for a stripe.
func (r *runState) chooseEncoder(info *placement.StripeInfo) (topology.NodeID, error) {
	if r.params.Policy == PolicyEAR && info.CoreRack >= 0 {
		if r.params.EncoderSpillProb > 0 && r.rng.Float64() < r.params.EncoderSpillProb {
			return placement.RandomEncoderNode(r.top, r.rng), nil
		}
		nodes, err := r.top.NodesInRack(info.CoreRack)
		if err != nil {
			return 0, err
		}
		return nodes[r.rng.Intn(len(nodes))], nil
	}
	return placement.RandomEncoderNode(r.top, r.rng), nil
}

// chooseSource picks the replica a block is read from: the encoder itself
// if it holds one, else a same-rack replica, else a uniformly random
// replica (HDFS locality preference).
func (r *runState) chooseSource(pl topology.Placement, encoder topology.NodeID) (topology.NodeID, bool, error) {
	encRack, err := r.top.RackOf(encoder)
	if err != nil {
		return 0, false, err
	}
	sameRack := make([]topology.NodeID, 0, len(pl.Nodes))
	for _, n := range pl.Nodes {
		if n == encoder {
			return n, false, nil
		}
		rk, err := r.top.RackOf(n)
		if err != nil {
			return 0, false, err
		}
		if rk == encRack {
			sameRack = append(sameRack, n)
		}
	}
	if len(sameRack) > 0 {
		return sameRack[r.rng.Intn(len(sameRack))], false, nil
	}
	return pl.Nodes[r.rng.Intn(len(pl.Nodes))], true, nil
}

// encodeWorker performs the three-step encoding operation (Section II-A)
// for each assigned stripe: download one replica of each data block, upload
// the n-k parity blocks, delete redundant replicas (metadata only).
func (r *runState) encodeWorker(proc *sim.Proc, stripes []*placement.StripeInfo) error {
	p := r.params
	for _, info := range stripes {
		encoder, err := r.chooseEncoder(info)
		if err != nil {
			return err
		}
		for _, pl := range info.Placements {
			src, cross, err := r.chooseSource(pl, encoder)
			if err != nil {
				return err
			}
			if cross {
				r.result.CrossRackDownloads++
			}
			if err := r.cluster.Transfer(proc, src, encoder, p.BlockSizeMB); err != nil {
				return err
			}
		}
		plan, err := placement.PlanPostEncoding(r.cfg, info, r.rng)
		if err != nil {
			return err
		}
		if plan.Violation {
			r.result.Relocations++
		}
		for _, dst := range plan.Parity {
			if err := r.cluster.Transfer(proc, encoder, dst, p.BlockSizeMB); err != nil {
				return err
			}
		}
		r.result.EncodedStripes++
		r.result.EncodedMB += float64(p.K) * p.BlockSizeMB
		r.result.StripeCompletions.Add(proc.Now()-p.EncodeStartTime, float64(r.result.EncodedStripes))
	}
	r.encodersLeft--
	if r.encodersLeft == 0 {
		r.result.EncodeEnd = proc.Now()
		if p.WriteDuration == 0 {
			r.writesStopped = true
		}
	}
	return nil
}

// writeGenerator issues single-block writes with exponential inter-arrival
// times. Each write replicates the block along the HDFS pipeline:
// writer -> first replica -> second -> ... The writer is a random node drawn
// independently of the placement (the paper's CSIM model: write traffic is
// evenly spread background load), not the holder of the first replica as in
// the hdfs testbed; see DESIGN.md, "Data path". Writes stop after
// WriteDuration (if set) or when encoding finishes.
func (r *runState) writeGenerator(proc *sim.Proc) error {
	p := r.params
	pol, err := r.newPolicy()
	if err != nil {
		return err
	}
	seq := 0
	for {
		if err := proc.Hold(stats.Exponential(r.rng, 1/p.WriteRate)); err != nil {
			return err
		}
		if r.writesStopped {
			return nil
		}
		if p.WriteDuration > 0 && proc.Now() > p.WriteDuration {
			return nil
		}
		block := r.nextBlock
		r.nextBlock++
		pl, err := pol.Place(block)
		if err != nil {
			return err
		}
		pol.TakeSealed() // write-stream stripes are not encoded in this run
		writer := topology.NodeID(r.rng.Intn(r.top.Nodes()))
		arrival := proc.Now()
		name := fmt.Sprintf("write-%d", seq)
		seq++
		if err := r.sim.Spawn(name, 0, func(wp *sim.Proc) error {
			prev := writer
			for _, dst := range pl.Nodes {
				if err := r.cluster.Transfer(wp, prev, dst, p.BlockSizeMB); err != nil {
					return err
				}
				prev = dst
			}
			resp := wp.Now() - arrival
			r.result.WriteResponses.Add(wp.Now(), resp)
			r.result.WritesDone++
			return nil
		}); err != nil {
			return err
		}
	}
}

// backgroundGenerator issues background transfers with exponential sizes;
// a CrossRackBackgroundFrac share of them cross racks.
func (r *runState) backgroundGenerator(proc *sim.Proc) error {
	p := r.params
	seq := 0
	for {
		if err := proc.Hold(stats.Exponential(r.rng, 1/p.BackgroundRate)); err != nil {
			return err
		}
		if r.writesStopped {
			return nil
		}
		if p.WriteDuration > 0 && proc.Now() > p.WriteDuration {
			return nil
		}
		src := topology.NodeID(r.rng.Intn(r.top.Nodes()))
		dst, err := r.pickBackgroundDst(src)
		if err != nil {
			return err
		}
		size := stats.Exponential(r.rng, p.BackgroundMeanMB)
		name := fmt.Sprintf("bg-%d", seq)
		seq++
		if err := r.sim.Spawn(name, 0, func(bp *sim.Proc) error {
			return r.cluster.Transfer(bp, src, dst, size)
		}); err != nil {
			return err
		}
	}
}

// pickBackgroundDst selects a destination in or out of src's rack per the
// configured cross-rack fraction.
func (r *runState) pickBackgroundDst(src topology.NodeID) (topology.NodeID, error) {
	srcRack, err := r.top.RackOf(src)
	if err != nil {
		return 0, err
	}
	if r.rng.Float64() < r.params.CrossRackBackgroundFrac || r.top.NodesPerRack() == 1 {
		for {
			dst := topology.NodeID(r.rng.Intn(r.top.Nodes()))
			rk, err := r.top.RackOf(dst)
			if err != nil {
				return 0, err
			}
			if rk != srcRack {
				return dst, nil
			}
		}
	}
	nodes, err := r.top.NodesInRack(srcRack)
	if err != nil {
		return 0, err
	}
	for {
		dst := nodes[r.rng.Intn(len(nodes))]
		if dst != src || len(nodes) == 1 {
			return dst, nil
		}
	}
}

// finish derives the aggregate metrics.
func (r *runState) finish() {
	res := r.result
	p := r.params
	if res.EncodedStripes > 0 {
		dur := res.EncodeEnd - res.EncodeStart
		if dur > 0 {
			res.EncodeThroughputMBps = res.EncodedMB / dur
		}
	}
	if res.WriteResponses.Len() > 0 {
		if m, err := stats.Mean(res.WriteResponses.Values()); err == nil {
			res.MeanWriteResponse = m
		}
		if p.EncodeProcesses > 0 {
			if m, err := res.WriteResponses.WindowMean(res.EncodeStart, res.EncodeEnd); err == nil {
				res.MeanWriteResponseDuringEncode = m
			}
		}
		ref := res.MeanWriteResponseDuringEncode
		if ref == 0 {
			ref = res.MeanWriteResponse
		}
		if ref > 0 {
			res.WriteThroughputMBps = p.BlockSizeMB / ref
		}
	}
	res.CrossRackMB = r.cluster.CrossRackMB()
	res.IntraRackMB = r.cluster.IntraRackMB()
}
