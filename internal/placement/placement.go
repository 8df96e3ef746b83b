// Package placement implements the paper's replica placement policies: RR
// (random replication, the HDFS default) and EAR (encoding-aware
// replication, the paper's contribution, Section III). It also provides the
// post-encoding layout planner shared by both policies: given the replica
// locations of the k data blocks of a stripe, decide which replica of each
// block to keep and where to put the n-k parity blocks so that node-level
// and rack-level fault tolerance hold, or report that relocation is
// unavoidable (the availability problem EAR eliminates).
package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"ear/internal/topology"
)

// Errors returned by the package.
var (
	// ErrInvalidConfig indicates an unusable configuration.
	ErrInvalidConfig = errors.New("placement: invalid config")
	// ErrRetriesExhausted indicates EAR could not find a feasible layout
	// within Config.MaxRetries attempts.
	ErrRetriesExhausted = errors.New("placement: layout retries exhausted")
)

// Config parameterizes a placement policy and the post-encoding planner.
type Config struct {
	// Topology is the cluster layout. Required.
	Topology *topology.Topology
	// Replicas is the replication factor r (default 3).
	Replicas int
	// K is the number of data blocks per stripe.
	K int
	// N is the stripe width (data + parity blocks), N > K.
	N int
	// C is the maximum number of blocks of one stripe allowed in a single
	// rack after encoding (paper Section III-B). The stripe then tolerates
	// floor((N-K)/C) rack failures. Default 1.
	C int
	// TargetRacks is R', the number of racks a stripe may occupy after
	// encoding (paper Section III-D). 0 means all racks are targets.
	// If set, TargetRacks*C must be at least N.
	TargetRacks int
	// SpreadReplicas places every replica in its own rack instead of the
	// HDFS default (first replica in one rack, the remaining r-1 replicas
	// on distinct nodes of one other rack). Used by Experiment B.2(f).
	SpreadReplicas bool
	// Preliminary disables EAR's max-flow feasibility check, yielding the
	// paper's "preliminary EAR" whose rack-fault-tolerance violation
	// probability is Equation (1).
	Preliminary bool
	// MaxRetries bounds layout regeneration per block (safety net around
	// Theorem 1's small expected iteration count). Default 10000.
	MaxRetries int
}

// withDefaults returns a copy with defaults applied.
func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.C == 0 {
		c.C = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10000
	}
	return c
}

// Validate checks the configuration. It applies defaults first, so a Config
// only needs Topology, K, and N.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Topology == nil {
		return fmt.Errorf("%w: nil topology", ErrInvalidConfig)
	}
	if c.K <= 0 || c.N <= c.K {
		return fmt.Errorf("%w: (n, k) = (%d, %d)", ErrInvalidConfig, c.N, c.K)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("%w: %d replicas", ErrInvalidConfig, c.Replicas)
	}
	r := c.Topology.Racks()
	if c.SpreadReplicas {
		if c.Replicas > r {
			return fmt.Errorf("%w: %d replicas cannot spread over %d racks", ErrInvalidConfig, c.Replicas, r)
		}
	} else {
		if c.Replicas > 1 && r < 2 {
			return fmt.Errorf("%w: HDFS-style placement needs at least 2 racks", ErrInvalidConfig)
		}
		if c.Replicas-1 > c.Topology.NodesPerRack() {
			return fmt.Errorf("%w: %d replicas need %d nodes in the remote rack, have %d",
				ErrInvalidConfig, c.Replicas, c.Replicas-1, c.Topology.NodesPerRack())
		}
	}
	targets := c.TargetRacks
	if targets == 0 {
		targets = r
	}
	if targets < 0 || targets > r {
		return fmt.Errorf("%w: %d target racks of %d", ErrInvalidConfig, c.TargetRacks, r)
	}
	// Section III-B: R*c >= n so that a stripe of n blocks fits.
	if targets*c.C < c.N {
		return fmt.Errorf("%w: %d target racks x c=%d cannot hold a stripe of n=%d blocks",
			ErrInvalidConfig, targets, c.C, c.N)
	}
	// Node-level fault tolerance puts every stripe block on its own node.
	if c.N > targets*c.Topology.NodesPerRack() {
		return fmt.Errorf("%w: stripe of n=%d blocks needs %d distinct nodes, %d target racks hold %d",
			ErrInvalidConfig, c.N, c.N, targets, targets*c.Topology.NodesPerRack())
	}
	if c.K > targets*c.C {
		return fmt.Errorf("%w: k=%d data blocks cannot satisfy c=%d over %d racks",
			ErrInvalidConfig, c.K, c.C, targets)
	}
	return nil
}

// StripeInfo describes a sealed stripe: the k data blocks to be encoded
// together, their replica placements, and the core rack that holds one
// replica of each block.
type StripeInfo struct {
	ID       topology.StripeID
	CoreRack topology.RackID
	// Targets lists the stripe's target racks (Section III-D); nil when all
	// racks are eligible.
	Targets []topology.RackID
	Blocks  []topology.BlockID
	// Placements[i] holds the replica locations of Blocks[i]; the first
	// entry of each placement is the core-rack replica under EAR.
	Placements []topology.Placement
	// Iterations[i] is the number of candidate layouts EAR generated for
	// block i before finding a feasible one (Theorem 1 measures this).
	Iterations []int
}

// Clone returns a deep copy.
func (s *StripeInfo) Clone() *StripeInfo {
	c := &StripeInfo{ID: s.ID, CoreRack: s.CoreRack}
	c.Targets = append([]topology.RackID(nil), s.Targets...)
	c.Blocks = append([]topology.BlockID(nil), s.Blocks...)
	c.Placements = make([]topology.Placement, len(s.Placements))
	for i, p := range s.Placements {
		c.Placements[i] = p.Clone()
	}
	c.Iterations = append([]int(nil), s.Iterations...)
	return c
}

// NoWriter is the writer argument of PlaceFrom when the writing node is not
// known (metadata-only allocations): the first replica is drawn at random.
const NoWriter topology.NodeID = -1

// InFlight is a ledger of the writes under way: how many replicas are being
// written to each node, and how many writes enter each rack. A steered draw
// reads it (SetInFlight); its owner, the NameNode, moves the counts with Add.
// They are atomics, so the counts can be read without the owner's lock.
type InFlight struct {
	top   *topology.Topology
	nodes []atomic.Int32
	racks []atomic.Int32
}

// NewInFlight returns a ledger of the topology with every count at zero.
func NewInFlight(top *topology.Topology) *InFlight {
	return &InFlight{top: top, nodes: make([]atomic.Int32, top.Nodes()), racks: make([]atomic.Int32, top.Racks())}
}

// Add moves by delta the count of every node of a write's pipeline and of
// every rack it enters: consecutive nodes of one rack count the rack once, as
// the write crosses the rack's downlink once however many of them it holds.
// A node outside the topology counts nowhere.
func (l *InFlight) Add(nodes []topology.NodeID, delta int32) {
	prev := topology.RackID(-1)
	for _, n := range nodes {
		r, err := l.top.RackOf(n)
		if err != nil {
			continue
		}
		l.nodes[n].Add(delta)
		if r != prev {
			l.racks[r].Add(delta)
		}
		prev = r
	}
}

// Node reports the replicas in flight to node n.
func (l *InFlight) Node(n topology.NodeID) int { return int(l.nodes[n].Load()) }

// Rack reports the writes in flight that enter rack r.
func (l *InFlight) Rack(r topology.RackID) int { return int(l.racks[r].Load()) }

// nodeCounts and rackCounts are what pickLeast indexes: nil for no ledger.
func (l *InFlight) nodeCounts() []atomic.Int32 {
	if l == nil {
		return nil
	}
	return l.nodes
}

func (l *InFlight) rackCounts() []atomic.Int32 {
	if l == nil {
		return nil
	}
	return l.racks
}

// Policy is a replica placement policy. Implementations are not safe for
// concurrent use; callers serialize access (the NameNode holds a lock, the
// simulator is single-threaded per event).
type Policy interface {
	// Name identifies the policy ("rr" or "ear").
	Name() string
	// Place decides the replica locations for a new block no writer is
	// known for.
	Place(block topology.BlockID) (topology.Placement, error)
	// PlaceFrom decides the replica locations for a block written by the
	// given node, which keeps the first replica; NoWriter is Place.
	PlaceFrom(block topology.BlockID, writer topology.NodeID) (topology.Placement, error)
	// TakeSealed drains the stripes completed since the previous call.
	// RR performs no write-time grouping and always returns nil; callers
	// group RR blocks into stripes at encoding time (as HDFS-RAID does).
	TakeSealed() []*StripeInfo
}

// CrossRackDownloads counts how many of the stripe's data blocks the given
// encoding node must fetch from a different rack: a block costs a cross-rack
// download when no replica of it lives in the encoder's rack (Section II-B).
func CrossRackDownloads(top *topology.Topology, placements []topology.Placement, encoder topology.NodeID) (int, error) {
	encRack, err := top.RackOf(encoder)
	if err != nil {
		return 0, err
	}
	downloads := 0
	for _, p := range placements {
		inRack := false
		for _, n := range p.Nodes {
			r, err := top.RackOf(n)
			if err != nil {
				return 0, err
			}
			if r == encRack {
				inRack = true
				break
			}
		}
		if !inRack {
			downloads++
		}
	}
	return downloads, nil
}

// RandomEncoderNode picks an encoding node uniformly at random, the paper's
// model for the baseline ("the CFS randomly selects a node to perform the
// encoding operation", Section II-A).
func RandomEncoderNode(top *topology.Topology, rng *rand.Rand) topology.NodeID {
	return topology.NodeID(rng.Intn(top.Nodes()))
}

// sampleRacksExcluding returns count distinct racks drawn uniformly from the
// eligible set minus the excluded rack.
func sampleRacksExcluding(eligible []topology.RackID, exclude topology.RackID, count int, rng *rand.Rand) ([]topology.RackID, error) {
	pool := make([]topology.RackID, 0, len(eligible))
	for _, r := range eligible {
		if r != exclude {
			pool = append(pool, r)
		}
	}
	if count > len(pool) {
		return nil, fmt.Errorf("placement: need %d racks, only %d eligible", count, len(pool))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:count], nil
}

// allRacks returns the full rack ID list of the topology.
func allRacks(top *topology.Topology) []topology.RackID {
	racks := make([]topology.RackID, top.Racks())
	for i := range racks {
		racks[i] = topology.RackID(i)
	}
	return racks
}
