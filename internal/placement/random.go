package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"ear/internal/topology"
)

// Random implements RR, the HDFS default replica placement (paper Section
// II-A): the first replica goes to the writing node (PlaceFrom) or, when no
// writer is known, to a node in a randomly chosen rack (Place), and the
// remaining r-1 replicas go to distinct nodes in one different randomly
// chosen rack, protecting against a two-node failure or a single-rack
// failure. With Config.SpreadReplicas every replica instead lands in its own
// rack.
type Random struct {
	cfg      Config
	rng      *rand.Rand
	racks    []topology.RackID
	scratch  layoutScratch
	inFlight *InFlight
}

var _ Policy = (*Random)(nil)

// NewRandom returns an RR policy. The rng drives all randomized choices and
// makes runs reproducible.
func NewRandom(cfg Config, rng *rand.Rand) (*Random, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	return &Random{cfg: cfg, rng: rng, racks: allRacks(cfg.Topology)}, nil
}

// Name returns "rr".
func (p *Random) Name() string { return "rr" }

// SetInFlight steers replicas 2..r to the eligible racks, then nodes, with
// the fewest replicas in flight, uniformly among those (nil: uniformly among
// all, the default).
func (p *Random) SetInFlight(l *InFlight) { p.inFlight = l }

// Place chooses replica locations for a block no writer is known for.
func (p *Random) Place(block topology.BlockID) (topology.Placement, error) {
	return p.PlaceFrom(block, NoWriter)
}

// PlaceFrom chooses replica locations for a block written by the given node:
// the first replica is the writer's own (the same rule EAR applies, so the
// two policies differ only in where replicas 2..r go). NoWriter draws the
// first replica's rack and node uniformly.
func (p *Random) PlaceFrom(block topology.BlockID, writer topology.NodeID) (topology.Placement, error) {
	nodes, err := localLayoutInto(p.cfg, writer, topology.RackID(-1), p.racks, nil, p.inFlight, p.rng, &p.scratch)
	if err != nil {
		return topology.Placement{}, err
	}
	return topology.Placement{Block: block, Nodes: cloneNodes(nodes)}, nil
}

// TakeSealed always returns nil: RR groups blocks into stripes only at
// encoding time.
func (p *Random) TakeSealed() []*StripeInfo { return nil }

// layoutScratch holds the reusable buffers of candidate layout generation so
// that, at steady state, producing a layout allocates nothing. The slice
// returned by randomLayoutInto aliases scratch memory and is only valid until
// the next call with the same scratch.
type layoutScratch struct {
	nodes []topology.NodeID // layout under construction
	racks []topology.RackID // rack sampling pool
	pool  []topology.NodeID // node sampling pool
	ties  []int             // least-loaded candidates of one draw
}

// cloneNodes copies a scratch-backed layout into freshly owned memory.
func cloneNodes(nodes []topology.NodeID) []topology.NodeID {
	return append([]topology.NodeID(nil), nodes...)
}

// stripeRoom is where an open EAR stripe's flow graph can still take a block
// without rerouting, rebuilt from the stripe's placements (EAR.roomOf). The
// flow through a rack's sink edge never exceeds the blocks that reach the
// rack, so a rack with fewer than c has residual capacity whatever matching
// the graph holds: the steered draw and the direct admission read only this.
type stripeRoom struct {
	taken  []bool // by node
	nodes  []int  // by rack: nodes taken
	blocks []int  // by rack: blocks of the stripe with a replica there
}

// add records a layout the stripe has admitted, which has checked its nodes.
// A layout lists the replicas of one rack together; one that did not would
// count as more blocks, the safe side.
func (m *stripeRoom) add(top *topology.Topology, nodes []topology.NodeID) {
	prev := topology.RackID(-1)
	for _, n := range nodes {
		r, _ := top.RackOf(n)
		if !m.taken[n] {
			m.taken[n] = true
			m.nodes[r]++
		}
		if r != prev {
			m.blocks[r]++
		}
		prev = r
	}
}

// admits reports whether the candidate layout reaches the sink of the
// stripe's flow graph by the direct path: some replica on a node the stripe
// does not occupy, in a target rack fewer than c of its blocks reach, so
// source -> block -> node -> rack -> sink has spare capacity whatever
// matching the graph holds. Every node is checked against the topology.
func (m *stripeRoom) admits(cfg Config, info *StripeInfo, nodes []topology.NodeID) (bool, error) {
	direct := false
	for _, n := range nodes {
		r, err := cfg.Topology.RackOf(n)
		if err != nil {
			return false, err
		}
		direct = direct || !m.taken[n] && m.blocks[r] < cfg.C && info.isTarget(r)
	}
	return direct, nil
}

// randomLayoutInto generates one replica layout using the scratch buffers. If
// coreRack >= 0 the first replica is pinned to a random node of that rack
// (the EAR case) and the remaining replicas avoid it; otherwise the first
// replica's rack is chosen uniformly. remoteRacks is the eligible set for the
// non-first replicas, room the open stripe they are steered into and load the
// writes in flight they are steered away from (nil: none). The returned slice
// aliases s.nodes.
func randomLayoutInto(cfg Config, coreRack topology.RackID, remoteRacks []topology.RackID, room *stripeRoom, load *InFlight, rng *rand.Rand, s *layoutScratch) ([]topology.NodeID, error) {
	s.nodes = s.nodes[:0]
	firstRack := coreRack
	if firstRack < 0 {
		firstRack = topology.RackID(rng.Intn(cfg.Topology.Racks()))
	}
	if err := sampleNodesInRackInto(cfg.Topology, firstRack, 1, nil, nil, rng, s); err != nil {
		return nil, err
	}
	return remoteReplicasInto(cfg, firstRack, remoteRacks, room, load, rng, s)
}

// localLayoutInto generates one replica layout whose first replica is the
// writing node itself (HDFS writes the first replica locally); the remaining
// replicas are drawn exactly as in randomLayoutInto, which NoWriter falls back
// to with the given coreRack. The returned slice aliases s.nodes.
func localLayoutInto(cfg Config, writer topology.NodeID, coreRack topology.RackID, remoteRacks []topology.RackID, room *stripeRoom, load *InFlight, rng *rand.Rand, s *layoutScratch) ([]topology.NodeID, error) {
	if writer == NoWriter {
		return randomLayoutInto(cfg, coreRack, remoteRacks, room, load, rng, s)
	}
	rack, err := cfg.Topology.RackOf(writer)
	if err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes[:0], writer)
	return remoteReplicasInto(cfg, rack, remoteRacks, room, load, rng, s)
}

// remoteReplicasInto appends replicas 2..r to s.nodes, which holds the first
// replica: every one in its own rack with Config.SpreadReplicas, otherwise on
// distinct nodes of one rack, always outside firstRack. With a room the racks
// are drawn among those fewer than c of the stripe's blocks reach and that
// have enough untaken nodes, and the nodes among the untaken ones, so the
// stripe's flow graph admits the layout by the direct path block -> node ->
// rack -> sink; when too few such racks are left the draw is the uniform one,
// load ignored. With a load each rack, then each node, is drawn among the
// eligible ones with the fewest replicas in flight (pickLeast).
func remoteReplicasInto(cfg Config, firstRack topology.RackID, remoteRacks []topology.RackID, room *stripeRoom, load *InFlight, rng *rand.Rand, s *layoutScratch) ([]topology.NodeID, error) {
	if cfg.Replicas == 1 {
		return s.nodes, nil
	}
	count, perRack := 1, cfg.Replicas-1
	if cfg.SpreadReplicas {
		count, perRack = cfg.Replicas-1, 1
	}
	pool := s.racks[:0]
	for {
		for _, r := range remoteRacks {
			if r != firstRack && (room == nil ||
				room.blocks[r] < cfg.C && cfg.Topology.NodesPerRack()-room.nodes[r] >= perRack) {
				pool = append(pool, r)
			}
		}
		if room == nil || len(pool) >= count {
			break
		}
		pool, room, load = pool[:0], nil, nil
	}
	s.racks = pool
	if count > len(pool) {
		return nil, fmt.Errorf("placement: need %d racks, only %d eligible", count, len(pool))
	}
	for i := 0; i < count; i++ {
		pickLeast(pool, i, load.rackCounts(), rng, s)
	}
	for _, r := range pool[:count] {
		nodeLoad := load
		if load != nil && load.Rack(r) == 0 {
			nodeLoad = nil // no node of an idle rack has a write in flight
		}
		if err := sampleNodesInRackInto(cfg.Topology, r, perRack, room, nodeLoad, rng, s); err != nil {
			return nil, err
		}
	}
	return s.nodes, nil
}

// sampleNodesInRackInto appends count distinct nodes of rack r (with a room:
// of its untaken nodes) to s.nodes, drawn as pickLeast draws, using s.pool as
// the sampling pool.
func sampleNodesInRackInto(top *topology.Topology, r topology.RackID, count int, room *stripeRoom, load *InFlight, rng *rand.Rand, s *layoutScratch) error {
	pool, err := top.AppendNodesInRack(r, s.pool[:0])
	if err != nil {
		return err
	}
	if room != nil {
		pool = slices.DeleteFunc(pool, func(n topology.NodeID) bool { return room.taken[n] })
	}
	s.pool = pool
	if count > len(pool) {
		return fmt.Errorf("placement: need %d nodes in rack %d, have %d", count, r, len(pool))
	}
	for i := 0; i < count; i++ {
		pickLeast(pool, i, load.nodeCounts(), rng, s)
		s.nodes = append(s.nodes, pool[i])
	}
	return nil
}

// pickLeast is one step of a partial Fisher-Yates shuffle: it swaps into
// pool[i] an entry of pool[i:] drawn uniformly, with one rng.Intn. With the
// ledger's counts for the pool's kind (load, indexed by ID) the draw is among
// the entries with the fewest replicas in flight, listed in pool order in
// s.ties as the one pass over them reads each count once (the ledger's owner
// may move the counts while a draw reads them), so counts that are zero
// everywhere draw what no counts do.
func pickLeast[T topology.NodeID | topology.RackID](pool []T, i int, load []atomic.Int32, rng *rand.Rand, s *layoutScratch) {
	j := i
	if load == nil {
		j += rng.Intn(len(pool) - i)
	} else {
		s.ties = slices.Grow(s.ties[:0], len(pool)-i)[:len(pool)-i]
		ties, t, least := s.ties, 0, int32(math.MaxInt32)
		for k, x := range pool[i:] {
			l := load[x].Load()
			if l < least {
				t, least = 0, l
			}
			ties[t] = k
			if l == least {
				t++
			}
		}
		j += ties[rng.Intn(t)]
	}
	pool[i], pool[j] = pool[j], pool[i]
}
