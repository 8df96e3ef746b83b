package placement

import (
	"fmt"
	"math/rand"
	"sort"

	"ear/internal/maxflow"
	"ear/internal/topology"
)

// sortStripesByCore orders stripes by core rack (at most one open stripe per
// rack, so the order is total) for deterministic serialization.
func sortStripesByCore(s []*StripeInfo) {
	sort.Slice(s, func(i, j int) bool { return s[i].CoreRack < s[j].CoreRack })
}

// EAR implements encoding-aware replication (paper Section III). Each rack
// owns one open stripe at a time; a block's first replica lands in the
// writer's rack (the stripe's core rack; a random rack when no writer is
// known) and the remaining replicas are placed randomly — where the stripe's
// flow graph has room, while it has any (stripeRoom) — regenerated until the
// stripe's flow graph keeps a maximum flow equal to the number of blocks
// placed so far (Section III-C). Once a stripe accumulates k blocks it is
// sealed and handed to the encoding pipeline via TakeSealed.
type EAR struct {
	cfg Config
	rng *rand.Rand

	nextStripe topology.StripeID
	// open maps core rack to the stripe currently accumulating blocks there.
	open map[topology.RackID]*openStripe
	// sealed holds completed stripes not yet drained by TakeSealed.
	sealed []*StripeInfo
	// racks caches the full rack list; scratch backs candidate layout
	// generation so rejected candidates allocate nothing.
	racks        []topology.RackID
	scratch      layoutScratch
	lastAttempts int
	lastTargets  []topology.RackID
	// flowPool and roomPool recycle the flow state and the room of sealed
	// stripes: once a stripe seals, nothing reads either again, so the next
	// open stripe reuses the storage instead of rebuilding it from zero.
	flowPool []*stripeFlow
	roomPool []*stripeRoom
	// fullRecompute makes accept rebuild the flow graph from scratch for
	// every candidate layout instead of extending the incremental flow in
	// place: the reference the package's equivalence tests compare the
	// incremental admission against. Only those tests set it, on a fresh
	// policy.
	fullRecompute bool
	// inFlight, when set, steers the first candidate's room-steered draw
	// (SetInFlight).
	inFlight *InFlight
}

// openStripe tracks an in-progress stripe together with its incremental
// flow state.
type openStripe struct {
	info *StripeInfo
	// flow is the feasibility graph over all blocks accepted so far, with
	// flow equal to len(info.Blocks) already pushed. Nil in preliminary or
	// full-recompute modes.
	flow *stripeFlow
	// room is what the steered replica draw reads. Nil in preliminary mode.
	room *stripeRoom
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
	return &EAR{
		cfg:   cfg,
		rng:   rng,
		open:  make(map[topology.RackID]*openStripe),
		racks: allRacks(cfg.Topology),
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
	os, err := p.openFor(core)
	if err != nil {
		return topology.Placement{}, err
	}
	nodes, iters, err := p.placeInStripe(os, block, writer)
	if err != nil {
		return topology.Placement{}, err
	}
	pl := topology.Placement{Block: block, Nodes: nodes}
	p.commitPlacement(os, pl, iters)
	return pl, nil
}

// commitPlacement records an accepted placement on its open stripe and seals
// the stripe once it reaches k blocks. Shared by the live path (placeAt) and
// the replay path (RestorePlacement).
func (p *EAR) commitPlacement(os *openStripe, pl topology.Placement, iters int) {
	os.room.add(p.cfg.Topology, pl.Nodes)
	os.info.Blocks = append(os.info.Blocks, pl.Block)
	os.info.Placements = append(os.info.Placements, pl.Clone())
	os.info.Iterations = append(os.info.Iterations, iters)
	p.lastTargets = os.info.Targets
	if len(os.info.Blocks) == p.cfg.K {
		p.sealed = append(p.sealed, os.info)
		p.recycleFlow(os)
		delete(p.open, os.info.CoreRack)
	}
}

// RestorePlacement re-applies a placement decision recorded in the op log:
// the block joins the open stripe of the given core rack (created with the
// recorded target racks if absent — no rng draw), its recorded layout is
// committed into the incremental flow state, and the stripe seals at k
// blocks exactly as on the live path. The layout was accepted when it was
// recorded, so a rejection here means the log does not match the topology
// and is reported as an error rather than retried.
func (p *EAR) RestorePlacement(block topology.BlockID, core topology.RackID, nodes []topology.NodeID, targets []topology.RackID, iterations int) error {
	if int(core) < 0 || int(core) >= p.cfg.Topology.Racks() {
		return fmt.Errorf("%w: %d", topology.ErrUnknownRack, core)
	}
	os, ok := p.open[core]
	if !ok {
		var err error
		os, err = p.openWith(core, append([]topology.RackID(nil), targets...))
		if err != nil {
			return err
		}
	}
	if !p.cfg.Preliminary && !p.fullRecompute {
		ok, err := os.flow.tryAdd(nodes)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("placement: recorded layout for block %d rejected by stripe %d flow — log and topology disagree", block, os.info.ID)
		}
	}
	p.lastAttempts = iterations
	p.commitPlacement(os, topology.Placement{Block: block, Nodes: cloneNodes(nodes)}, iterations)
	return nil
}

// DropOpen removes and returns the open stripe of the given core rack
// without sealing it (nil when the rack has none) — the replay counterpart
// of FlushOpen, driven one recorded stripe at a time so the flush order in
// the op log is reproduced exactly.
func (p *EAR) DropOpen(core topology.RackID) *StripeInfo {
	os, ok := p.open[core]
	if !ok {
		return nil
	}
	p.recycleFlow(os)
	delete(p.open, core)
	return os.info
}

// OpenState exports the policy's replayable state: the stripe-ID counter and
// clones of the open stripes sorted by core rack. It is the deterministic
// serialization surface for NameNode snapshots; the rng is deliberately
// excluded (randomness is consumed at propose time and its outcomes are what
// the ops record). Sealed-but-undrained stripes are not exported — the
// NameNode drains TakeSealed under the same lock as PlaceAt, so none exist
// when a snapshot runs.
func (p *EAR) OpenState() (next topology.StripeID, open []*StripeInfo) {
	open = make([]*StripeInfo, 0, len(p.open))
	for _, os := range p.open {
		open = append(open, os.info.Clone())
	}
	sortStripesByCore(open)
	return p.nextStripe, open
}

// RestoreOpenState resets the policy to a snapshot exported by OpenState,
// rebuilding each open stripe's incremental flow graph by re-admitting its
// recorded placements. A placement the flow rejects means the snapshot does
// not match the topology and is an error.
func (p *EAR) RestoreOpenState(next topology.StripeID, open []*StripeInfo) error {
	for r, os := range p.open {
		p.recycleFlow(os)
		delete(p.open, r)
	}
	p.sealed = nil
	p.nextStripe = next
	for _, info := range open {
		if len(info.Blocks) >= p.cfg.K {
			return fmt.Errorf("placement: snapshot open stripe %d already holds %d >= k blocks", info.ID, len(info.Blocks))
		}
		os := &openStripe{info: &StripeInfo{ID: info.ID, CoreRack: info.CoreRack,
			Targets: append([]topology.RackID(nil), info.Targets...)}}
		if err := p.attachFlow(os); err != nil {
			return err
		}
		for i, pl := range info.Placements {
			if !p.cfg.Preliminary && !p.fullRecompute {
				ok, err := os.flow.tryAdd(pl.Nodes)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("placement: snapshot layout for block %d rejected by stripe %d flow", pl.Block, info.ID)
				}
			}
			os.room.add(p.cfg.Topology, pl.Nodes)
			os.info.Blocks = append(os.info.Blocks, info.Blocks[i])
			os.info.Placements = append(os.info.Placements, pl.Clone())
			os.info.Iterations = append(os.info.Iterations, info.Iterations[i])
		}
		p.open[info.CoreRack] = os
	}
	return nil
}

// recycleFlow returns a sealed stripe's flow state and room to their pools.
func (p *EAR) recycleFlow(os *openStripe) {
	if os.flow != nil {
		p.flowPool = append(p.flowPool, os.flow)
		os.flow = nil
	}
	if os.room != nil {
		p.roomPool = append(p.roomPool, os.room)
		os.room = nil
	}
}

// TakeSealed drains and returns stripes completed since the previous call.
func (p *EAR) TakeSealed() []*StripeInfo {
	s := p.sealed
	p.sealed = nil
	return s
}

// FlushOpen seals and returns every in-progress stripe regardless of how
// many blocks it holds (short stripes at end of workload). Open state is
// cleared.
func (p *EAR) FlushOpen() []*StripeInfo {
	out := make([]*StripeInfo, 0, len(p.open))
	for r, os := range p.open {
		out = append(out, os.info)
		p.recycleFlow(os)
		delete(p.open, r)
	}
	return out
}

// openFor returns the open stripe for the rack, creating one (and drawing
// its target racks, Section III-D) on first use.
func (p *EAR) openFor(core topology.RackID) (*openStripe, error) {
	if os, ok := p.open[core]; ok {
		return os, nil
	}
	var targets []topology.RackID
	if p.cfg.TargetRacks > 0 && p.cfg.TargetRacks < p.cfg.Topology.Racks() {
		others, err := sampleRacksExcluding(allRacks(p.cfg.Topology), core, p.cfg.TargetRacks-1, p.rng)
		if err != nil {
			return nil, err
		}
		targets = append([]topology.RackID{core}, others...)
	}
	return p.openWith(core, targets)
}

// openWith opens a stripe for the rack with an already-decided target set —
// the rng-free tail of openFor, called directly by RestorePlacement with the
// targets recorded in the op log.
func (p *EAR) openWith(core topology.RackID, targets []topology.RackID) (*openStripe, error) {
	info := &StripeInfo{
		ID:       p.nextStripe,
		CoreRack: core,
		Targets:  targets,
	}
	p.nextStripe++
	os := &openStripe{info: info}
	if err := p.attachFlow(os); err != nil {
		return nil, err
	}
	p.open[core] = os
	return os, nil
}

// attachFlow gives an open stripe its room and its incremental flow state
// (pooled when available): neither in preliminary mode, no flow state in
// full-recompute mode.
func (p *EAR) attachFlow(os *openStripe) error {
	if p.cfg.Preliminary {
		return nil
	}
	if n := len(p.roomPool); n > 0 {
		os.room, p.roomPool = p.roomPool[n-1], p.roomPool[:n-1]
		clear(os.room.taken)
		clear(os.room.nodes)
		clear(os.room.blocks)
	} else {
		top := p.cfg.Topology
		os.room = &stripeRoom{taken: make([]bool, top.Nodes()), nodes: make([]int, top.Racks()), blocks: make([]int, top.Racks())}
	}
	if p.fullRecompute {
		return nil
	}
	if n := len(p.flowPool); n > 0 {
		f := p.flowPool[n-1]
		p.flowPool[n-1] = nil
		p.flowPool = p.flowPool[:n-1]
		f.reset(os.info)
		os.flow = f
	} else {
		f, err := newStripeFlow(p.cfg, os.info)
		if err != nil {
			return err
		}
		os.flow = f
	}
	return nil
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
// stripe's flow graph accepts one (Section III-C step 5), returning the
// layout and the number of candidates generated (Theorem 1's iteration
// count). With a writer, the first candidate pins replica 1 to it; every
// later one draws replica 1 from the core rack. While the stripe has room
// (remoteReplicasInto) the first candidate is admitted by construction and
// the core rack's places stay free for the stripe's parity (PlanPostEncoding);
// that candidate alone reads the writes in flight (SetInFlight).
// Candidate layouts live in p.scratch; the accepted one is cloned once into
// owned memory, so a rejected candidate costs no allocation at steady state.
func (p *EAR) placeInStripe(os *openStripe, block topology.BlockID, writer topology.NodeID) ([]topology.NodeID, int, error) {
	info := os.info
	i := len(info.Blocks) + 1 // this block's 1-based index within the stripe
	remote := p.remoteRacks(info)
	p.lastAttempts = 0
	for attempt := 1; attempt <= p.cfg.MaxRetries; attempt++ {
		p.lastAttempts = attempt
		load := p.inFlight
		if attempt > 1 || os.room == nil { // a retry, or preliminary EAR
			load = nil
		}
		if attempt > 1 {
			writer = NoWriter
		}
		nodes, err := localLayoutInto(p.cfg, writer, info.CoreRack, remote, os.room, load, p.rng, &p.scratch)
		if err != nil {
			return nil, 0, err
		}
		if p.cfg.Preliminary {
			return cloneNodes(nodes), attempt, nil
		}
		ok, err := p.accept(os, nodes, i)
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

// accept checks whether adding the candidate layout keeps the stripe
// feasible (max flow == i) and, if so, commits it to the incremental flow
// state.
func (p *EAR) accept(os *openStripe, nodes []topology.NodeID, i int) (bool, error) {
	if p.fullRecompute {
		layouts := make([][]topology.NodeID, 0, i)
		for _, pl := range os.info.Placements {
			layouts = append(layouts, pl.Nodes)
		}
		layouts = append(layouts, nodes)
		flow, err := solveStripeFlow(p.cfg, os.info, layouts, 0)
		if err != nil {
			return false, err
		}
		return flow == int64(i), nil
	}
	return os.flow.tryAdd(nodes)
}

// stripeFlow is the paper's Section III-B flow graph for one stripe:
// source -> block vertices -> node vertices -> rack vertices -> sink, with
// unit capacities except rack->sink edges which carry capacity c and exist
// only for target racks. The struct supports incremental extension: tryAdd
// checkpoints the graph, wires a new block's replicas in, pushes a single
// augmenting path, and rolls the mutation back in place when the candidate
// is rejected — no cloning.
type stripeFlow struct {
	cfg    Config
	info   *StripeInfo
	graph  *maxflow.Graph
	blocks int
	// reserve is withheld from the core rack's sink edge: the places the
	// post-encoding planner keeps for parity (0 for admission).
	reserve int
	// vertex ids
	source, sink int
	nodeVertex   map[topology.NodeID]int
	rackVertex   map[topology.RackID]int
	nextVertex   int
	// blockEdges[i] records the block->node edges of block i so the
	// post-encoding planner can read the matching back out of the flow.
	blockEdges [][]blockEdge
	// addedNodes/addedRacks log the vertex-map keys the in-flight addBlock
	// inserted, so a rejected candidate's entries can be deleted again.
	addedNodes []topology.NodeID
	addedRacks []topology.RackID
	// edgeScratch is the spare backing array for the next block's edge list,
	// reclaimed from rolled-back attempts; edgePool holds further spares
	// reclaimed when a recycled stripeFlow is reset.
	edgeScratch []blockEdge
	edgePool    [][]blockEdge
}

// blockEdge pairs a replica node with its block->node edge id.
type blockEdge struct {
	node   topology.NodeID
	edgeID int
}

// flowVertexBudget sizes the graph: source + sink + k blocks + up to k*r
// replica nodes + up to R racks.
func flowVertexBudget(cfg Config) int {
	return 2 + cfg.K + cfg.K*cfg.Replicas + cfg.Topology.Racks()
}

func newStripeFlow(cfg Config, info *StripeInfo) (*stripeFlow, error) {
	n := flowVertexBudget(cfg)
	g, err := maxflow.NewGraph(n)
	if err != nil {
		return nil, err
	}
	return &stripeFlow{
		cfg:        cfg,
		info:       info,
		graph:      g,
		source:     0,
		sink:       1,
		nodeVertex: make(map[topology.NodeID]int),
		rackVertex: make(map[topology.RackID]int),
		nextVertex: 2,
	}, nil
}

// reset re-targets a recycled stripeFlow at a fresh stripe, keeping every
// allocated buffer: the graph's adjacency storage, the vertex maps' buckets,
// and the per-block edge arrays (parked in edgePool for addBlock to reuse).
func (f *stripeFlow) reset(info *StripeInfo) {
	f.info = info
	f.graph.Reset()
	f.blocks = 0
	f.nextVertex = 2
	clear(f.nodeVertex)
	clear(f.rackVertex)
	for i, e := range f.blockEdges {
		f.edgePool = append(f.edgePool, e[:0])
		f.blockEdges[i] = nil
	}
	f.blockEdges = f.blockEdges[:0]
	f.addedNodes = f.addedNodes[:0]
	f.addedRacks = f.addedRacks[:0]
}

// isTarget reports whether rack r may hold post-encoding blocks.
func (f *stripeFlow) isTarget(r topology.RackID) bool {
	if len(f.info.Targets) == 0 {
		return true
	}
	for _, t := range f.info.Targets {
		if t == r {
			return true
		}
	}
	return false
}

// addBlock wires one block's replica nodes into the graph, logging inserted
// vertex-map keys so tryAdd can undo a rejected attempt.
func (f *stripeFlow) addBlock(nodes []topology.NodeID) error {
	if f.nextVertex >= f.graph.N() {
		return fmt.Errorf("placement: flow graph vertex budget exceeded")
	}
	blockV := f.nextVertex
	f.nextVertex++
	if _, err := f.graph.AddEdge(f.source, blockV, 1); err != nil {
		return err
	}
	edges := f.edgeScratch
	if edges == nil {
		if n := len(f.edgePool); n > 0 {
			edges = f.edgePool[n-1]
			f.edgePool[n-1] = nil
			f.edgePool = f.edgePool[:n-1]
		}
	}
	edges = edges[:0]
	for _, n := range nodes {
		nv, ok := f.nodeVertex[n]
		if !ok {
			nv = f.nextVertex
			f.nextVertex++
			f.nodeVertex[n] = nv
			f.addedNodes = append(f.addedNodes, n)
			r, err := f.cfg.Topology.RackOf(n)
			if err != nil {
				return err
			}
			rv, ok := f.rackVertex[r]
			if !ok {
				rv = f.nextVertex
				f.nextVertex++
				f.rackVertex[r] = rv
				f.addedRacks = append(f.addedRacks, r)
				if f.isTarget(r) {
					capacity := f.cfg.C
					if r == f.info.CoreRack {
						capacity -= f.reserve
					}
					if _, err := f.graph.AddEdge(rv, f.sink, int64(capacity)); err != nil {
						return err
					}
				}
			}
			if _, err := f.graph.AddEdge(nv, rv, 1); err != nil {
				return err
			}
		}
		id, err := f.graph.AddEdge(blockV, nv, 1)
		if err != nil {
			return err
		}
		edges = append(edges, blockEdge{node: n, edgeID: id})
	}
	f.blockEdges = append(f.blockEdges, edges)
	f.edgeScratch = nil // ownership moved into blockEdges
	f.blocks++
	return nil
}

// tryAdd tentatively wires the candidate layout into the flow graph and
// pushes a single augmenting path (the source->block edge has capacity 1, so
// the max flow grows by at most one per block — paper Section III-C).
// Acceptance commits the mutation in place; rejection rolls the graph, the
// vertex maps, and the scratch buffers back so the attempt leaves no trace
// and, at steady state, allocates nothing.
func (f *stripeFlow) tryAdd(nodes []topology.NodeID) (bool, error) {
	ck := f.graph.Checkpoint()
	prevVertex, prevBlocks := f.nextVertex, f.blocks
	f.addedNodes = f.addedNodes[:0]
	f.addedRacks = f.addedRacks[:0]
	if err := f.addBlock(nodes); err != nil {
		f.rollbackAdd(ck, prevVertex, prevBlocks)
		return false, err
	}
	gain, err := f.graph.AugmentOne(f.source, f.sink)
	if err != nil {
		f.rollbackAdd(ck, prevVertex, prevBlocks)
		return false, err
	}
	if gain == 1 {
		return true, f.graph.Commit(ck)
	}
	return false, f.rollbackAdd(ck, prevVertex, prevBlocks)
}

// rollbackAdd undoes a tentative addBlock: graph edges and pushed flow via
// the checkpoint, vertex-map entries via the added-key logs, and the
// blockEdges tail, whose backing array is reclaimed as edge scratch.
func (f *stripeFlow) rollbackAdd(ck maxflow.Checkpoint, prevVertex, prevBlocks int) error {
	err := f.graph.Rollback(ck)
	for _, n := range f.addedNodes {
		delete(f.nodeVertex, n)
	}
	for _, r := range f.addedRacks {
		delete(f.rackVertex, r)
	}
	f.addedNodes = f.addedNodes[:0]
	f.addedRacks = f.addedRacks[:0]
	f.nextVertex = prevVertex
	if f.blocks > prevBlocks {
		last := len(f.blockEdges) - 1
		f.edgeScratch = f.blockEdges[last][:0]
		f.blockEdges[last] = nil
		f.blockEdges = f.blockEdges[:last]
		f.blocks = prevBlocks
	}
	return err
}

// solveStripeFlow builds the flow graph for the given layouts from scratch,
// with reserve places of the core rack withheld, and returns its maximum flow
// (the from-scratch reference of the admission and planner tests).
func solveStripeFlow(cfg Config, info *StripeInfo, layouts [][]topology.NodeID, reserve int) (int64, error) {
	f, err := newStripeFlow(cfg, info)
	if err != nil {
		return 0, err
	}
	f.reserve = reserve
	for _, nodes := range layouts {
		if err := f.addBlock(nodes); err != nil {
			return 0, err
		}
	}
	return f.graph.MaxFlow(f.source, f.sink)
}
