package placement

import (
	"fmt"
	"slices"
	"sort"

	"ear/internal/topology"
)

// PipelineHop is one stage of a RapidRAID-style pipelined encode: the node
// that folds its local stripe members into the partial parity sums as they
// stream through, and the data positions it contributes.
type PipelineHop struct {
	Node topology.NodeID
	Rack topology.RackID
	// Positions lists the stripe data positions (indices into the stripe's
	// block list) whose bytes this hop reads locally, sorted ascending.
	Positions []int
}

// PlanPipeline orders the replica holders of a stripe into an encode
// pipeline ending at the sink (the encoding node). replicas[i] lists the
// live holders of stripe position i; an empty entry means the position
// contributes zeros (aborted member or short-stripe padding) and needs no
// hop. The plan is a minimal-ish cover of the positions by holders (greedy
// set cover: each chosen node folds every still-uncovered position it
// holds), ordered so that hops in the same rack are adjacent and the sink's
// rack comes last. Partial sums therefore aggregate within each rack before
// crossing the core once per rack boundary, and the final hop-to-sink
// transfer is intra-rack whenever the sink's rack holds any member.
//
// The cover exhausts the holders in the sink's rack before it considers a
// remote one, however many positions the remote holder would add: a
// position the sink's rack can serve never costs a core crossing. Under EAR
// the core rack holds a replica of every member, so a chain planned toward
// a core-rack sink never leaves that rack.
//
// The cover is ordered toward sink by OrderPipeline.
//
// The plan is deterministic: among the candidates of one class (sink rack,
// then remote) the largest gain wins, ties prefer the sink itself, then the
// lowest node ID, so two calls with the same inputs yield the same chain
// (the differential tests rely on this).
func PlanPipeline(top *topology.Topology, replicas [][]topology.NodeID, sink topology.NodeID) ([]PipelineHop, error) {
	sinkRack, err := top.RackOf(sink)
	if err != nil {
		return nil, err
	}
	// holders: node -> positions it can serve, racks resolved once.
	holds := make(map[topology.NodeID][]int)
	rackOf := make(map[topology.NodeID]topology.RackID)
	uncovered := 0
	for i, nodes := range replicas {
		if len(nodes) == 0 {
			continue
		}
		uncovered++
		for _, n := range nodes {
			if _, ok := rackOf[n]; !ok {
				r, err := top.RackOf(n)
				if err != nil {
					return nil, err
				}
				rackOf[n] = r
			}
			holds[n] = append(holds[n], i)
		}
	}
	covered := make(map[int]bool, uncovered)
	var hops []PipelineHop
	for len(covered) < uncovered {
		var best topology.NodeID = -1
		bestGain, bestRank := 0, -1 // rank: 2 the sink, 1 its rack peers, 0 remote
		for n, positions := range holds {
			gain := 0
			for _, p := range positions {
				if !covered[p] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			rank := 0
			switch {
			case n == sink:
				rank = 2
			case rackOf[n] == sinkRack:
				rank = 1
			}
			// Any sink-rack holder beats any remote one; within a class the
			// larger gain wins, then the sink itself, then the lowest ID.
			local, bestLocal := rank > 0, bestRank > 0
			if (local && !bestLocal) || (local == bestLocal && (gain > bestGain ||
				(gain == bestGain && (rank > bestRank || (rank == bestRank && n < best))))) {
				best, bestGain, bestRank = n, gain, rank
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("placement: pipeline cover stuck with %d of %d positions uncovered",
				uncovered-len(covered), uncovered)
		}
		hop := PipelineHop{Node: best, Rack: rackOf[best]}
		for _, p := range holds[best] {
			if !covered[p] {
				covered[p] = true
				hop.Positions = append(hop.Positions, p)
			}
		}
		sort.Ints(hop.Positions)
		hops = append(hops, hop)
		delete(holds, best)
	}
	return OrderPipeline(hops, sink, sinkRack), nil
}

// OrderPipeline returns a copy of the cover hops ordered as a chain toward
// sink, which lives in sinkRack: racks contiguous with the sink's rack last,
// the sink itself terminal when it is a hop, so the chain ends there without
// a delivery, and each of others that is a hop leading its rack's segment.
// Everything else orders by (rack, node) for determinism. A fold with several
// rows orders one cover once per row, toward that row's sink with the other
// rows' sinks as others: a sink then heads its rack's segment in every chain
// but its own, where it is the last hop, so it takes partial sums from a
// rack-mate in its own chain only.
func OrderPipeline(hops []PipelineHop, sink topology.NodeID, sinkRack topology.RackID, others ...topology.NodeID) []PipelineHop {
	hops = slices.Clone(hops)
	sort.SliceStable(hops, func(a, b int) bool {
		ra, rb := hops[a].Rack, hops[b].Rack
		if (ra == sinkRack) != (rb == sinkRack) {
			return rb == sinkRack
		}
		if ra != rb {
			return ra < rb
		}
		if (hops[a].Node == sink) != (hops[b].Node == sink) {
			return hops[b].Node == sink
		}
		if la, lb := slices.Contains(others, hops[a].Node), slices.Contains(others, hops[b].Node); la != lb {
			return la
		}
		return hops[a].Node < hops[b].Node
	})
	return hops
}

// PipelineRackBoundaries counts the cross-rack transitions a pipeline plan
// incurs, including the final hop-to-sink transfer. Each boundary ships one
// set of partial parity sums across the core.
func PipelineRackBoundaries(hops []PipelineHop, sinkRack topology.RackID) int {
	if len(hops) == 0 {
		return 0
	}
	boundaries := 0
	for i := 1; i < len(hops); i++ {
		if hops[i].Rack != hops[i-1].Rack {
			boundaries++
		}
	}
	if hops[len(hops)-1].Rack != sinkRack {
		boundaries++
	}
	return boundaries
}
