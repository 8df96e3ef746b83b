package placement

import (
	"fmt"
	"math/rand"
	"slices"

	"ear/internal/topology"
)

// PostEncodingPlan is the output of the post-encoding layout planner: which
// replica of each data block survives the encoding operation, where the
// parity blocks go, and whether the fault-tolerance requirement forces block
// relocation (the availability issue of Section II-B, impossible under
// complete EAR by construction).
type PostEncodingPlan struct {
	// Keep[i] is the node retaining data block i. When Violation is set,
	// unmatched blocks keep their first replica and appear in Relocated.
	Keep []topology.NodeID
	// Parity[j] is the node assigned parity block j.
	Parity []topology.NodeID
	// Violation reports that no deletion choice satisfies the rack-level
	// fault-tolerance requirement, so the blocks listed in Relocated must
	// move after encoding (HDFS-RAID's PlacementMonitor + BlockMover).
	Violation bool
	// Relocated lists the indices of data blocks requiring relocation.
	Relocated []int
}

// Clone returns a deep copy of the plan.
func (p *PostEncodingPlan) Clone() *PostEncodingPlan {
	if p == nil {
		return nil
	}
	return &PostEncodingPlan{
		Keep:      append([]topology.NodeID(nil), p.Keep...),
		Parity:    append([]topology.NodeID(nil), p.Parity...),
		Violation: p.Violation,
		Relocated: append([]int(nil), p.Relocated...),
	}
}

// Layout converts the plan into a StripeLayout for validation.
func (p *PostEncodingPlan) Layout(id topology.StripeID) topology.StripeLayout {
	return topology.StripeLayout{
		Stripe: id,
		Data:   append([]topology.NodeID(nil), p.Keep...),
		Parity: append([]topology.NodeID(nil), p.Parity...),
	}
}

// PlanPostEncoding decides the post-encoding layout for a stripe. It solves
// the Section III-B maximum-matching problem over the replica locations; if
// a full matching exists the kept replicas and parity placements satisfy
// node-level and rack-level fault tolerance with no relocation. Otherwise it
// keeps first replicas for the unmatched blocks, marks them for relocation,
// and still places parity as well as possible.
//
// For stripes produced by EAR the matching always exists (the policy
// enforced feasibility at write time); for RR-placed blocks grouped into a
// stripe at encoding time, a violation is the common case the paper's
// Figure 3 and motivating example describe.
//
// A stripe with a core rack keeps that rack's places for its parity, which
// then crosses no rack on its way there: the matching is solved with
// min(n-k, c) of the core rack's c places withheld and gets them back one at a
// time only while it is incomplete, and placeParity fills the free places at
// home first. A stripe without a core rack (RR) reserves nothing and plans as
// the paper does.
//
// homes, when given, names the core-rack nodes the caller wants the stripe's
// parity on, parity 0 first (the encoder takes turns among the rack's nodes).
// They keep no data block while the matching completes without them: each is
// given back, the last one first, before any withheld place is, so homes move
// where parity lands at home but never how much of it does.
func PlanPostEncoding(cfg Config, info *StripeInfo, rng *rand.Rand, homes ...topology.NodeID) (*PostEncodingPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(info.Blocks) == 0 || len(info.Blocks) != len(info.Placements) {
		return nil, fmt.Errorf("%w: stripe %d has %d blocks and %d placements",
			ErrInvalidConfig, info.ID, len(info.Blocks), len(info.Placements))
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrInvalidConfig)
	}

	f, err := newStripeFlow(cfg)
	if err != nil {
		return nil, err
	}
	// Only here is it decided whether the stripe has a home (RR: no core rack,
	// reserve 0).
	reserve := 0
	if info.CoreRack >= 0 && info.isTarget(info.CoreRack) {
		reserve = min(cfg.N-cfg.K, cfg.C)
		homes = homes[:min(len(homes), reserve)]
		for _, n := range homes {
			if r, err := cfg.Topology.RackOf(n); err == nil && r == info.CoreRack {
				f.withheld = append(f.withheld, n)
			}
		}
	}
	if err := f.build(info, reserve); err != nil {
		return nil, err
	}
	// A stripe whose home replicas are all lost has no vertex at home and
	// nothing to give a withheld place back to. A home that holds no replica
	// has nothing to give back either.
	coreV, atHome := f.rackVertex[info.CoreRack]
	withheld := slices.DeleteFunc(f.withheld, func(n topology.NodeID) bool {
		_, ok := f.nodeVertex[n]
		return !ok
	})
	var flow int64
	for back := 0; ; {
		more, err := f.graph.MaxFlow(f.source, f.sink)
		if err != nil {
			return nil, err
		}
		flow += more
		if flow == int64(len(info.Blocks)) || !atHome {
			break
		}
		if last := len(withheld) - 1; last >= 0 {
			if _, err := f.graph.AddEdge(f.nodeVertex[withheld[last]], coreV, 1); err != nil {
				return nil, err
			}
			withheld = withheld[:last]
			continue
		}
		if back == f.reserve {
			break
		}
		if _, err := f.graph.AddEdge(coreV, f.sink, 1); err != nil {
			return nil, err
		}
		back++
	}
	match, err := f.matching()
	if err != nil {
		return nil, err
	}

	plan := &PostEncodingPlan{Keep: make([]topology.NodeID, len(info.Blocks))}
	for i, node := range match {
		if node >= 0 {
			plan.Keep[i] = node
			continue
		}
		// Unmatched: fall back to the first replica and schedule relocation.
		plan.Keep[i] = info.Placements[i].Nodes[0]
		plan.Relocated = append(plan.Relocated, i)
	}
	plan.Violation = flow < int64(len(info.Blocks))

	parity, err := placeParity(cfg, info, plan.Keep, f.reserve, homes, rng)
	if err != nil {
		return nil, err
	}
	plan.Parity = parity
	return plan, nil
}

// matching extracts, after MaxFlow, the node matched to each block (or -1).
func (f *stripeFlow) matching() ([]topology.NodeID, error) {
	out := make([]topology.NodeID, len(f.blockEdges))
	for i := range out {
		out[i] = -1
	}
	for i, edges := range f.blockEdges {
		for _, be := range edges {
			fl, err := f.graph.EdgeFlow(be.edgeID)
			if err != nil {
				return nil, err
			}
			if fl > 0 {
				out[i] = be.node
				break
			}
		}
	}
	return out, nil
}

// placeParity assigns the n-k parity blocks to nodes of target racks that
// still have spare stripe capacity (fewer than c stripe blocks), never
// reusing a node that keeps a data block. Up to home (the planner's reserve)
// of the core rack's spare places come first: the caller's homes in their
// order, then its nodes that hold a replica of the stripe (hops of the encode
// chain already) before those that do not, in drawn order, so that the chain's
// tail rotates from stripe to stripe. For the rest, racks and nodes are drawn
// uniformly among the eligible.
func placeParity(cfg Config, info *StripeInfo, keep []topology.NodeID, home int, homes []topology.NodeID, rng *rand.Rand) ([]topology.NodeID, error) {
	top := cfg.Topology
	used := make(map[topology.NodeID]bool, len(keep))
	rackCount := make(map[topology.RackID]int)
	for _, n := range keep {
		used[n] = true
		r, err := top.RackOf(n)
		if err != nil {
			return nil, err
		}
		rackCount[r]++
	}
	eligible := info.Targets
	if len(eligible) == 0 {
		eligible = allRacks(top)
	}

	// Short stripes are zero-padded to k blocks before encoding, so the
	// parity count is always n-k.
	m := cfg.N - cfg.K
	parity := make([]topology.NodeID, 0, m)
	if core := info.CoreRack; home > 0 {
		free, err := top.NodesInRack(core)
		if err != nil {
			return nil, err
		}
		free = slices.DeleteFunc(free, func(n topology.NodeID) bool { return used[n] })
		rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
		rank := func(n topology.NodeID) int {
			if i := slices.Index(homes, n); i >= 0 {
				return i - len(homes)
			}
			if slices.ContainsFunc(info.Placements, func(pl topology.Placement) bool { return pl.Contains(n) }) {
				return 0
			}
			return 1
		}
		slices.SortStableFunc(free, func(a, b topology.NodeID) int { return rank(a) - rank(b) })
		for _, n := range free[:min(len(free), home, max(0, cfg.C-rackCount[core]))] {
			parity = append(parity, n)
			used[n] = true
			rackCount[core]++
		}
	}
	for j := len(parity); j < m; j++ {
		// Racks with spare capacity, uniformly shuffled.
		candidates := make([]topology.RackID, 0, len(eligible))
		for _, r := range eligible {
			if rackCount[r] < cfg.C {
				candidates = append(candidates, r)
			}
		}
		rng.Shuffle(len(candidates), func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
		placed := false
		for _, r := range candidates {
			nodes, err := top.NodesInRack(r)
			if err != nil {
				return nil, err
			}
			free := make([]topology.NodeID, 0, len(nodes))
			for _, n := range nodes {
				if !used[n] {
					free = append(free, n)
				}
			}
			if len(free) == 0 {
				continue
			}
			n := free[rng.Intn(len(free))]
			parity = append(parity, n)
			used[n] = true
			rackCount[r]++
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("placement: no eligible node for parity block %d of stripe %d", j, info.ID)
		}
	}
	return parity, nil
}

// GroupIntoStripes partitions RR-placed blocks into stripes of k, the way
// HDFS-RAID's RaidNode groups blocks at encoding time with no knowledge of
// placement. Leftover blocks (fewer than k) are not grouped.
func GroupIntoStripes(k int, blocks []topology.BlockID, placements map[topology.BlockID]topology.Placement, firstID topology.StripeID) ([]*StripeInfo, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrInvalidConfig, k)
	}
	var out []*StripeInfo
	for start := 0; start+k <= len(blocks); start += k {
		info := &StripeInfo{ID: firstID + topology.StripeID(len(out)), CoreRack: -1}
		for _, b := range blocks[start : start+k] {
			pl, ok := placements[b]
			if !ok {
				return nil, fmt.Errorf("placement: block %d has no recorded placement", b)
			}
			info.Blocks = append(info.Blocks, b)
			info.Placements = append(info.Placements, pl.Clone())
		}
		out = append(out, info)
	}
	return out, nil
}
