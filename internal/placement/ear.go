package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ear/internal/maxflow"
	"ear/internal/topology"
)

// sortStripesByCore orders stripes by core rack (at most one open stripe per
// rack, so the order is total) for deterministic serialization.
func sortStripesByCore(s []*StripeInfo) {
	sort.Slice(s, func(i, j int) bool { return s[i].CoreRack < s[j].CoreRack })
}

// EAR implements encoding-aware replication (paper Section III). It keeps
// one open stripe per core rack at a time; a block's first replica lands in
// the writer's rack (the stripe's core rack; a random rack when no writer is
// known) and the remaining replicas are placed randomly — where the stripe's
// flow graph has room, while it has any (stripeRoom) — regenerated until the
// stripe's flow graph keeps a maximum flow equal to the number of blocks
// placed so far (Section III-C, admits). Once a stripe accumulates k blocks it
// is sealed and handed to the encoding pipeline via TakeSealed.
type EAR struct {
	cfg Config
	rng *rand.Rand

	nextStripe topology.StripeID
	// open maps core rack to the stripe currently accumulating blocks there.
	// Its placements are all the admission of its next block reads.
	open map[topology.RackID]*StripeInfo
	// sealed holds completed stripes not yet drained by TakeSealed.
	sealed []*StripeInfo
	// racks caches the full rack list; scratch backs candidate layout
	// generation so rejected candidates allocate nothing. room and flow are
	// rebuilt from an open stripe's placements for each block it admits.
	racks        []topology.RackID
	scratch      layoutScratch
	room         stripeRoom
	flow         *stripeFlow
	lastAttempts int
	lastTargets  []topology.RackID
	// inFlight, when set, steers the first candidate's room-steered draw
	// (SetInFlight).
	inFlight *InFlight
}

var _ Policy = (*EAR)(nil)

// NewEAR returns an EAR policy (or the paper's "preliminary EAR" when
// cfg.Preliminary is set).
func NewEAR(cfg Config, rng *rand.Rand) (*EAR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	flow, err := newStripeFlow(cfg)
	if err != nil {
		return nil, err
	}
	top := cfg.Topology
	return &EAR{
		cfg:   cfg,
		rng:   rng,
		open:  make(map[topology.RackID]*StripeInfo),
		racks: allRacks(top),
		room:  stripeRoom{taken: make([]bool, top.Nodes()), nodes: make([]int, top.Racks()), blocks: make([]int, top.Racks())},
		flow:  flow,
	}, nil
}

// LastPlaceAttempts reports how many candidate layouts the most recent
// Place/PlaceAt call generated before accepting one (Theorem 1's iteration
// count); 0 before the first call.
func (p *EAR) LastPlaceAttempts() int { return p.lastAttempts }

// LastPlaceTargets returns the target-rack set of the stripe the most recent
// Place/PlaceAt call placed into (nil when TargetRacks is unset). The
// write-ahead op layer records it so replay can reopen the stripe with the
// same targets instead of re-drawing them from the rng.
func (p *EAR) LastPlaceTargets() []topology.RackID { return p.lastTargets }

// SetInFlight steers the draw that cannot be rejected — the first candidate
// of a block while its stripe has room — to the eligible racks, then nodes,
// with the fewest replicas in flight, uniformly among those. Every other draw
// (the uniform fallback, the retries, preliminary EAR) ignores it, and nil,
// the default, steers nothing.
func (p *EAR) SetInFlight(l *InFlight) { p.inFlight = l }

// Name returns "ear" (or "ear-preliminary").
func (p *EAR) Name() string {
	if p.cfg.Preliminary {
		return "ear-preliminary"
	}
	return "ear"
}

// Place decides the replica locations for a new block no writer is known
// for. The first replica's rack is chosen uniformly at random, mirroring RR's
// load balancing; that rack becomes (or already is) the core rack of the
// stripe the block joins.
func (p *EAR) Place(block topology.BlockID) (topology.Placement, error) {
	core := topology.RackID(p.rng.Intn(p.cfg.Topology.Racks()))
	return p.PlaceAt(block, core)
}

// PlaceAt places a block whose first replica must land on some node of the
// given rack: the caller chose the core rack but names no writing node.
func (p *EAR) PlaceAt(block topology.BlockID, core topology.RackID) (topology.Placement, error) {
	return p.placeAt(block, core, NoWriter)
}

// PlaceFrom places a block written by the given node. HDFS writes the first
// replica locally, so the writer's rack is the core rack of the stripe the
// block joins and the first candidate layout puts replica 1 on the writer
// itself; when the stripe's flow graph rejects that candidate (a hot writer
// already holds the one block of the stripe a node may keep, and the other
// replicas do not fit either) the remaining candidates draw replica 1 from
// the whole core rack, exactly as PlaceAt does. NoWriter is Place.
func (p *EAR) PlaceFrom(block topology.BlockID, writer topology.NodeID) (topology.Placement, error) {
	if writer == NoWriter {
		return p.Place(block)
	}
	core, err := p.cfg.Topology.RackOf(writer)
	if err != nil {
		return topology.Placement{}, err
	}
	return p.placeAt(block, core, writer)
}

// placeAt is PlaceAt with an optional writer (NoWriter: none) in the core
// rack.
func (p *EAR) placeAt(block topology.BlockID, core topology.RackID, writer topology.NodeID) (topology.Placement, error) {
	if int(core) < 0 || int(core) >= p.cfg.Topology.Racks() {
		return topology.Placement{}, fmt.Errorf("%w: %d", topology.ErrUnknownRack, core)
	}
	info, err := p.openFor(core)
	if err != nil {
		return topology.Placement{}, err
	}
	nodes, iters, err := p.placeInStripe(info, block, writer)
	if err != nil {
		return topology.Placement{}, err
	}
	pl := topology.Placement{Block: block, Nodes: nodes}
	p.commitPlacement(info, pl, iters)
	return pl, nil
}

// commitPlacement records an admitted placement on its open stripe and seals
// the stripe once it reaches k blocks. Shared by the live path (placeAt) and
// the replay path (RestorePlacement).
func (p *EAR) commitPlacement(info *StripeInfo, pl topology.Placement, iters int) {
	info.Blocks = append(info.Blocks, pl.Block)
	info.Placements = append(info.Placements, pl.Clone())
	info.Iterations = append(info.Iterations, iters)
	p.lastTargets = info.Targets
	if len(info.Blocks) == p.cfg.K {
		p.sealed = append(p.sealed, info)
		delete(p.open, info.CoreRack)
	}
}

// RestorePlacement re-applies a placement decision recorded in the op log:
// the block joins the open stripe of the given core rack (created with the
// recorded target racks if absent — no rng draw), its recorded layout is
// checked by the admission rule and committed, and the stripe seals at k
// blocks exactly as on the live path. The layout was admitted when it was
// recorded, so a rejection here means the log does not match the topology
// and is reported as an error rather than retried.
func (p *EAR) RestorePlacement(block topology.BlockID, core topology.RackID, nodes []topology.NodeID, targets []topology.RackID, iterations int) error {
	if int(core) < 0 || int(core) >= p.cfg.Topology.Racks() {
		return fmt.Errorf("%w: %d", topology.ErrUnknownRack, core)
	}
	info, ok := p.open[core]
	if !ok {
		info = p.openWith(core, append([]topology.RackID(nil), targets...))
	}
	if ok, err := p.admits(info, p.roomOf(info), nodes); err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("placement: recorded layout for block %d rejected by stripe %d flow — log and topology disagree", block, info.ID)
		}
		return err
	}
	p.lastAttempts = iterations
	p.commitPlacement(info, topology.Placement{Block: block, Nodes: nodes}, iterations)
	return nil
}

// DropOpen removes and returns the open stripe of the given core rack
// without sealing it (nil when the rack has none) — the replay counterpart
// of FlushOpen, driven one recorded stripe at a time so the flush order in
// the op log is reproduced exactly.
func (p *EAR) DropOpen(core topology.RackID) *StripeInfo {
	info := p.open[core]
	delete(p.open, core)
	return info
}

// OpenState exports the policy's replayable state: the stripe-ID counter and
// clones of the open stripes sorted by core rack, whose placements a
// NameNode's snapshot records as the allocations that rebuild them; the rng
// is deliberately excluded (randomness is consumed at propose time and its
// outcomes are what the ops record). Sealed-but-undrained stripes are not
// exported — the NameNode drains TakeSealed under the same lock as PlaceAt,
// so none exist when a snapshot runs.
func (p *EAR) OpenState() (next topology.StripeID, open []*StripeInfo) {
	open = make([]*StripeInfo, 0, len(p.open))
	for _, info := range p.open {
		open = append(open, info.Clone())
	}
	sortStripesByCore(open)
	return p.nextStripe, open
}

// TakeSealed drains and returns stripes completed since the previous call.
func (p *EAR) TakeSealed() []*StripeInfo {
	s := p.sealed
	p.sealed = nil
	return s
}

// FlushOpen seals and returns every in-progress stripe regardless of how
// many blocks it holds (short stripes at end of workload), sorted by core
// rack. Open state is cleared.
func (p *EAR) FlushOpen() []*StripeInfo {
	out := make([]*StripeInfo, 0, len(p.open))
	for _, info := range p.open {
		out = append(out, info)
	}
	clear(p.open)
	sortStripesByCore(out)
	return out
}

// openFor returns the open stripe for the rack, creating one (and drawing
// its target racks, Section III-D) on first use.
func (p *EAR) openFor(core topology.RackID) (*StripeInfo, error) {
	if info, ok := p.open[core]; ok {
		return info, nil
	}
	var targets []topology.RackID
	if p.cfg.TargetRacks > 0 && p.cfg.TargetRacks < p.cfg.Topology.Racks() {
		others, err := sampleRacksExcluding(allRacks(p.cfg.Topology), core, p.cfg.TargetRacks-1, p.rng)
		if err != nil {
			return nil, err
		}
		targets = append([]topology.RackID{core}, others...)
	}
	return p.openWith(core, targets), nil
}

// openWith opens a stripe for the rack with an already-decided target set —
// the rng-free tail of openFor, called directly by RestorePlacement with the
// targets recorded in the op log.
func (p *EAR) openWith(core topology.RackID, targets []topology.RackID) *StripeInfo {
	info := &StripeInfo{
		ID:       p.nextStripe,
		CoreRack: core,
		Targets:  targets,
	}
	p.nextStripe++
	p.open[core] = info
	return info
}

// remoteRacks returns the racks eligible for a stripe's non-first replicas:
// the stripe's target racks when configured, otherwise every rack. The core
// rack is excluded by randomLayout.
func (p *EAR) remoteRacks(info *StripeInfo) []topology.RackID {
	if len(info.Targets) > 0 {
		return info.Targets
	}
	return p.racks
}

// placeInStripe generates candidate layouts for the block until the
// stripe's flow graph admits one (Section III-C step 5), returning the
// layout and the number of candidates generated (Theorem 1's iteration
// count). With a writer, the first candidate pins replica 1 to it; every
// later one draws replica 1 from the core rack. While the stripe has room
// (remoteReplicasInto) the first candidate is admitted by construction and
// the core rack's places stay free for the stripe's parity (PlanPostEncoding);
// that candidate alone reads the writes in flight (SetInFlight).
// Candidate layouts live in p.scratch; the admitted one is cloned once into
// owned memory, so a rejected candidate costs no allocation at steady state.
func (p *EAR) placeInStripe(info *StripeInfo, block topology.BlockID, writer topology.NodeID) ([]topology.NodeID, int, error) {
	i := len(info.Blocks) + 1 // this block's 1-based index within the stripe
	remote := p.remoteRacks(info)
	room := p.roomOf(info)
	p.lastAttempts = 0
	for attempt := 1; attempt <= p.cfg.MaxRetries; attempt++ {
		p.lastAttempts = attempt
		load := p.inFlight
		if attempt > 1 || room == nil { // a retry, or preliminary EAR
			load = nil
		}
		if attempt > 1 {
			writer = NoWriter
		}
		nodes, err := localLayoutInto(p.cfg, writer, info.CoreRack, remote, room, load, p.rng, &p.scratch)
		if err != nil {
			return nil, 0, err
		}
		ok, err := p.admits(info, room, nodes)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return cloneNodes(nodes), attempt, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: block %d of stripe %d after %d attempts",
		ErrRetriesExhausted, i, info.ID, p.cfg.MaxRetries)
}

// roomOf rebuilds the policy's room from the stripe's placements; nil for
// preliminary EAR, which neither steers nor checks.
func (p *EAR) roomOf(info *StripeInfo) *stripeRoom {
	if p.cfg.Preliminary {
		return nil
	}
	clear(p.room.taken)
	clear(p.room.nodes)
	clear(p.room.blocks)
	for _, pl := range info.Placements {
		p.room.add(p.cfg.Topology, pl.Nodes)
	}
	return &p.room
}

// admits reports whether the stripe's flow graph, with the candidate layout
// added, still carries one unit of flow per block (Section III-C); room is
// roomOf(info), and nil admits every layout. The stripe's placements were all
// admitted, so its graph carries one unit less: the direct path decides most
// candidates, and one from-scratch solve the rest.
func (p *EAR) admits(info *StripeInfo, room *stripeRoom, nodes []topology.NodeID) (bool, error) {
	if room == nil {
		return true, nil
	}
	if ok, err := room.admits(p.cfg, info, nodes); ok || err != nil {
		return ok, err
	}
	f := p.flow
	if err := f.build(info, 0); err != nil {
		return false, err
	}
	if err := f.addBlock(nodes); err != nil {
		return false, err
	}
	flow, err := f.graph.MaxFlow(f.source, f.sink)
	return flow == int64(len(info.Placements)+1), err
}

// isTarget reports whether rack r may hold the stripe's post-encoding blocks.
func (s *StripeInfo) isTarget(r topology.RackID) bool {
	return len(s.Targets) == 0 || slices.Contains(s.Targets, r)
}

// stripeFlow is the paper's Section III-B flow graph for one stripe:
// source -> block vertices -> node vertices -> rack vertices -> sink, with
// unit capacities except rack->sink edges which carry capacity c and exist
// only for target racks. build rebuilds it in place, so one stripeFlow serves
// every solve of its owner.
type stripeFlow struct {
	cfg   Config
	info  *StripeInfo
	graph *maxflow.Graph
	// reserve is withheld from the core rack's sink edge: the places the
	// post-encoding planner keeps for parity (0 for admission).
	reserve int
	// withheld are core-rack nodes wired in without their node->rack edge:
	// the parity homes the post-encoding planner was asked for (none for
	// admission). build keeps them.
	withheld []topology.NodeID
	// vertex ids
	source, sink int
	nodeVertex   map[topology.NodeID]int
	rackVertex   map[topology.RackID]int
	nextVertex   int
	// blockEdges[i] records the block->node edges of block i so the
	// post-encoding planner can read the matching back out of the flow.
	blockEdges [][]blockEdge
}

// blockEdge pairs a replica node with its block->node edge id.
type blockEdge struct {
	node   topology.NodeID
	edgeID int
}

// newStripeFlow returns an empty stripeFlow sized for a stripe of k blocks:
// source + sink + k blocks + up to k*r replica nodes + up to R racks.
func newStripeFlow(cfg Config) (*stripeFlow, error) {
	g, err := maxflow.NewGraph(2 + cfg.K + cfg.K*cfg.Replicas + cfg.Topology.Racks())
	if err != nil {
		return nil, err
	}
	return &stripeFlow{
		cfg:        cfg,
		graph:      g,
		source:     0,
		sink:       1,
		nodeVertex: make(map[topology.NodeID]int),
		rackVertex: make(map[topology.RackID]int),
	}, nil
}

// build empties the graph and wires in the stripe's placements with reserve
// places of the core rack withheld, keeping the buffers of earlier builds.
func (f *stripeFlow) build(info *StripeInfo, reserve int) error {
	f.info, f.reserve = info, reserve
	f.graph.Reset()
	f.nextVertex = 2
	clear(f.nodeVertex)
	clear(f.rackVertex)
	f.blockEdges = f.blockEdges[:0]
	for _, pl := range info.Placements {
		if err := f.addBlock(pl.Nodes); err != nil {
			return err
		}
	}
	return nil
}

// addBlock wires one block's replica nodes into the graph.
func (f *stripeFlow) addBlock(nodes []topology.NodeID) error {
	if f.nextVertex >= f.graph.N() {
		return fmt.Errorf("placement: flow graph vertex budget exceeded")
	}
	blockV := f.nextVertex
	f.nextVertex++
	if _, err := f.graph.AddEdge(f.source, blockV, 1); err != nil {
		return err
	}
	// Block b's edge list reuses the array of the block b of an earlier build.
	b := len(f.blockEdges)
	f.blockEdges = slices.Grow(f.blockEdges, 1)[:b+1]
	edges := f.blockEdges[b][:0]
	for _, n := range nodes {
		nv, ok := f.nodeVertex[n]
		if !ok {
			nv = f.nextVertex
			f.nextVertex++
			f.nodeVertex[n] = nv
			r, err := f.cfg.Topology.RackOf(n)
			if err != nil {
				return err
			}
			rv, ok := f.rackVertex[r]
			if !ok {
				rv = f.nextVertex
				f.nextVertex++
				f.rackVertex[r] = rv
				if f.info.isTarget(r) {
					capacity := f.cfg.C
					if r == f.info.CoreRack {
						capacity -= f.reserve
					}
					if _, err := f.graph.AddEdge(rv, f.sink, int64(capacity)); err != nil {
						return err
					}
				}
			}
			if !slices.Contains(f.withheld, n) {
				if _, err := f.graph.AddEdge(nv, rv, 1); err != nil {
					return err
				}
			}
		}
		id, err := f.graph.AddEdge(blockV, nv, 1)
		if err != nil {
			return err
		}
		edges = append(edges, blockEdge{node: n, edgeID: id})
	}
	f.blockEdges[b] = edges
	return nil
}
