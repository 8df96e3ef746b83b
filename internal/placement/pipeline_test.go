package placement

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ear/internal/topology"
)

// checkPipeline validates the structural invariants of a pipeline plan:
// every non-empty position covered exactly once by a node that holds it,
// rack-contiguous hop order with the sink's rack last, and the sink node
// itself terminal when it participates.
func checkPipeline(t *testing.T, top *topology.Topology, replicas [][]topology.NodeID, sink topology.NodeID, hops []PipelineHop) {
	t.Helper()
	covered := make(map[int]int)
	for _, h := range hops {
		rk, err := top.RackOf(h.Node)
		if err != nil {
			t.Fatalf("hop node %d: %v", h.Node, err)
		}
		if rk != h.Rack {
			t.Errorf("hop node %d labeled rack %d, actual %d", h.Node, h.Rack, rk)
		}
		if len(h.Positions) == 0 {
			t.Errorf("hop node %d contributes no positions", h.Node)
		}
		for _, p := range h.Positions {
			covered[p]++
			holds := false
			for _, n := range replicas[p] {
				if n == h.Node {
					holds = true
					break
				}
			}
			if !holds {
				t.Errorf("hop node %d assigned position %d it does not hold", h.Node, p)
			}
		}
	}
	for p, nodes := range replicas {
		want := 0
		if len(nodes) > 0 {
			want = 1
		}
		if covered[p] != want {
			t.Errorf("position %d covered %d times, want %d", p, covered[p], want)
		}
	}
	// Rack contiguity: once the chain leaves a rack it never returns, and
	// the sink's rack, when present, is the final run.
	sinkRack, err := top.RackOf(sink)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topology.RackID]bool)
	for i, h := range hops {
		if i > 0 && h.Rack == hops[i-1].Rack {
			continue
		}
		if seen[h.Rack] {
			t.Errorf("rack %d appears in two separate runs: %v", h.Rack, hops)
		}
		seen[h.Rack] = true
	}
	for i, h := range hops {
		if h.Rack == sinkRack && i < len(hops)-1 && hops[len(hops)-1].Rack != sinkRack {
			t.Errorf("sink rack %d not last in chain: %v", sinkRack, hops)
		}
		if h.Node == sink && i != len(hops)-1 {
			t.Errorf("sink node %d not terminal: %v", sink, hops)
		}
	}
}

func TestPlanPipelineStructure(t *testing.T) {
	top, err := topology.New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Positions spread over three racks, one aborted (empty) entry, sink in
	// rack 0 holding position 3. Nodes 0-2 rack 0, 3-5 rack 1, 6-8 rack 2.
	replicas := [][]topology.NodeID{
		{3, 6}, // racks 1 and 2
		{4, 0}, // racks 1 and 0
		{},     // aborted: contributes zeros
		{1, 7}, // racks 0 and 2
		{5},    // rack 1 only
	}
	sink := topology.NodeID(1)
	hops, err := PlanPipeline(top, replicas, sink)
	if err != nil {
		t.Fatal(err)
	}
	checkPipeline(t, top, replicas, sink, hops)
	if last := hops[len(hops)-1]; last.Rack != 0 {
		t.Errorf("chain ends in rack %d, want the sink's rack 0: %v", last.Rack, hops)
	}
	// The sink holds position 3, so the chain must terminate at the sink
	// itself and need no extra receive-only stage.
	if last := hops[len(hops)-1]; last.Node != sink {
		t.Errorf("chain ends at node %d, want sink %d: %v", last.Node, sink, hops)
	}
	if b := PipelineRackBoundaries(hops, 0); b < 1 || b > 2 {
		t.Errorf("rack boundaries = %d, want 1 or 2 for a 3-rack chain ending at the sink", b)
	}
}

func TestPlanPipelineAllAborted(t *testing.T) {
	top, err := topology.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := PlanPipeline(top, make([][]topology.NodeID, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 0 {
		t.Errorf("all-aborted stripe planned %d hops, want 0", len(hops))
	}
	if b := PipelineRackBoundaries(hops, 0); b != 0 {
		t.Errorf("empty chain has %d boundaries, want 0", b)
	}
}

func TestPlanPipelineIntraRackAggregation(t *testing.T) {
	// All members in the sink's rack: no boundary is ever crossed.
	top, err := topology.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	replicas := [][]topology.NodeID{{0}, {1}, {2}, {3}, {0, 2}}
	hops, err := PlanPipeline(top, replicas, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPipeline(t, top, replicas, 1, hops)
	if b := PipelineRackBoundaries(hops, 0); b != 0 {
		t.Errorf("single-rack stripe crossed %d boundaries, want 0", b)
	}
}

func TestPlanPipelineRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// plans fingerprints every one-sink plan below: a fold with one sink
	// (repair, degraded read, relocation) plans as it did before PlanPipeline
	// learnt about the other sinks of an encode.
	plans := fnv.New64a()
	for trial := 0; trial < 200; trial++ {
		racks := 2 + rng.Intn(5)
		npr := 1 + rng.Intn(4)
		top, err := topology.New(racks, npr)
		if err != nil {
			t.Fatal(err)
		}
		nodes := top.Nodes()
		k := 1 + rng.Intn(12)
		replicas := make([][]topology.NodeID, k)
		for i := range replicas {
			r := rng.Intn(4) // 0 = aborted member
			seen := make(map[topology.NodeID]bool)
			for len(replicas[i]) < r && len(seen) < nodes {
				n := topology.NodeID(rng.Intn(nodes))
				if !seen[n] {
					seen[n] = true
					replicas[i] = append(replicas[i], n)
				}
			}
		}
		sink := topology.NodeID(rng.Intn(nodes))
		hops, err := PlanPipeline(top, replicas, sink)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPipeline(t, top, replicas, sink, hops)
		again, err := PlanPipeline(top, replicas, sink)
		if err != nil {
			t.Fatalf("trial %d replan: %v", trial, err)
		}
		if !reflect.DeepEqual(hops, again) {
			t.Fatalf("trial %d: plan not deterministic:\n%v\n%v", trial, hops, again)
		}
		// What a one-sink fold orders: the cover toward the sink, with the
		// sink again as its only other sink.
		sinkRack, _ := top.RackOf(sink)
		if same := OrderPipeline(hops, sink, sinkRack, nil, 0, sink); !reflect.DeepEqual(hops, same) {
			t.Fatalf("trial %d: naming the sink twice changed the plan:\n%v\n%v", trial, hops, same)
		}
		fmt.Fprint(plans, hops)
	}
	if got := plans.Sum64(); got != 0xea3f5432c4dcfe88 {
		t.Errorf("one-sink plans fingerprint %#x, want the pre-change 0xea3f5432c4dcfe88", got)
	}
}

// TestPlanPipelineOtherSinksLead: with sinks {a, b} both holding members in
// the last rack, the cover ordered toward a is a chain whose last hop is a
// and whose rack segment b leads, wherever their IDs would sort them; another
// sink leads a remote rack's segment too, and a sink that holds nothing
// changes nothing.
func TestPlanPipelineOtherSinksLead(t *testing.T) {
	top, err := topology.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rack 1 (nodes 4..7) holds positions 0..3, one a node; positions 4 and 5
	// live only on nodes 9 and 8 of rack 2.
	replicas := [][]topology.NodeID{{4}, {5}, {6}, {7}, {9}, {8}}
	for _, tc := range []struct{ a, b topology.NodeID }{{5, 7}, {7, 5}, {4, 6}, {6, 4}} {
		cover, err := PlanPipeline(top, replicas, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		hops := OrderPipeline(cover, tc.a, 1, nil, 0, tc.a, tc.b, 9, 0)
		checkPipeline(t, top, replicas, tc.a, hops)
		if len(hops) != 6 || hops[0].Node != 9 || hops[1].Node != 8 {
			t.Fatalf("sinks %v: chain %v, want the remote segment led by node 9, then node 8", tc, hops)
		}
		if hops[2].Node != tc.b || hops[5].Node != tc.a {
			t.Fatalf("sinks %v: rack segment %v, want it to start at %d and end at %d", tc, hops[2:], tc.b, tc.a)
		}
		if lo, hi := hops[3].Node, hops[4].Node; lo >= hi {
			t.Fatalf("sinks %v: the other hops %d, %d are not in ID order", tc, lo, hi)
		}
	}
}

// TestOrderPipelineOneCoverPerRow orders one cover toward each of three
// sinks, as a three-row fold does: every order keeps the cover's hops and
// their positions, keeps racks contiguous with the row's sink's rack last,
// ends on the row's sink where it is a hop, and has the other sinks lead
// their racks' segments (two in one rack, as sinks 1 and 2 are, lead it
// together); the cover itself is left as it was.
func TestOrderPipelineOneCoverPerRow(t *testing.T) {
	top, err := topology.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	replicas := [][]topology.NodeID{{0}, {1}, {2}, {5}, {6}, {9}, {10}}
	sinks := []topology.NodeID{1, 2, 6}
	cover, err := PlanPipeline(top, replicas, sinks[0])
	if err != nil {
		t.Fatal(err)
	}
	planned := slices.Clone(cover)
	for _, sink := range sinks {
		sinkRack, _ := top.RackOf(sink)
		chain := OrderPipeline(cover, sink, sinkRack, nil, 0, sinks...)
		checkPipeline(t, top, replicas, sink, chain)
		if chain[len(chain)-1].Node != sink {
			t.Errorf("chain toward %d ends at %d: %v", sink, chain[len(chain)-1].Node, chain)
		}
		for i, h := range chain {
			if h.Node == sink || !slices.Contains(sinks, h.Node) {
				continue
			}
			if prev := i - 1; prev >= 0 && chain[prev].Rack == h.Rack && !slices.Contains(sinks, chain[prev].Node) {
				t.Errorf("chain toward %d: sink %d does not lead rack %d's segment: %v", sink, h.Node, h.Rack, chain)
			}
		}
	}
	if !reflect.DeepEqual(cover, planned) {
		t.Errorf("ordering changed the cover: %v, was %v", cover, planned)
	}
}

// TestOrderPipelineRowsWalkTiesOppositely orders one cover toward the two
// sinks of a two-row fold, as an encode does, with nodes 6 and 7 of the
// sinks' rack and nodes 8, 9 and 10 of a remote rack tied on their downlinks:
// row 0 walks each rack's tied middle by ID ascending and row 1 descending,
// so a node that receives third in one row receives second in the other,
// while racks stay contiguous with the sinks' rack last, each row ends on its
// sink and the other sink leads the rack. A tally that breaks the tie orders
// both rows alike, most-loaded downlink first.
func TestOrderPipelineRowsWalkTiesOppositely(t *testing.T) {
	top, err := topology.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	replicas := [][]topology.NodeID{{4}, {5}, {6}, {7}, {8}, {9}, {10}}
	sinks := []topology.NodeID{4, 5}
	cover, err := PlanPipeline(top, replicas, sinks[0])
	if err != nil {
		t.Fatal(err)
	}
	// middles lists the nodes of the chain toward sinks[row] in rack r that
	// are no sink, in chain order.
	middles := func(load LinkLoad, row int, r topology.RackID) []topology.NodeID {
		chain := OrderPipeline(cover, sinks[row], 1, load, row, sinks...)
		checkPipeline(t, top, replicas, sinks[row], chain)
		if last := chain[len(chain)-1].Node; last != sinks[row] {
			t.Errorf("row %d: chain %v ends at %d, want its sink", row, chain, last)
		}
		if lead := chain[3].Node; lead != sinks[1-row] {
			t.Errorf("row %d: chain %v: the sinks' rack is led by %d, want the other sink %d", row, chain, lead, sinks[1-row])
		}
		var out []topology.NodeID
		for _, h := range chain {
			if h.Rack == r && !slices.Contains(sinks, h.Node) {
				out = append(out, h.Node)
			}
		}
		return out
	}
	for _, tc := range []struct {
		rack      topology.RackID
		even, odd []topology.NodeID
		what      string
	}{
		{1, []topology.NodeID{6, 7}, []topology.NodeID{7, 6}, "the sinks' rack"},
		{2, []topology.NodeID{8, 9, 10}, []topology.NodeID{10, 9, 8}, "the remote rack"},
	} {
		if got := middles(nil, 0, tc.rack); !slices.Equal(got, tc.even) {
			t.Errorf("%s, row 0: tied middle %v, want %v", tc.what, got, tc.even)
		}
		if got := middles(nil, 1, tc.rack); !slices.Equal(got, tc.odd) {
			t.Errorf("%s, row 1: tied middle %v, want %v", tc.what, got, tc.odd)
		}
	}
	load := LinkLoad{}
	load.Add(top, 0, 7)
	for row := range sinks {
		if got := middles(load, row, 1); !slices.Equal(got, []topology.NodeID{7, 6}) {
			t.Errorf("row %d with node 7's downlink loaded: middle %v, want [7 6] in both rows", row, got)
		}
	}
}

// TestPlanPipelineStaysInSinkRack pins the property the chain encode rests
// on: a position the sink's rack can serve is folded in the sink's rack,
// however many positions a remote holder would add to the cover. When every
// position has a holder there the whole chain stays in that rack and crosses
// no boundary; a position without one is still covered, remotely, and drags
// no other position out with it. Replica sets are EAR-shaped (one replica in
// the core rack, the others piled onto few remote nodes so that a remote
// holder always offers the larger gain) and RR-shaped (random nodes plus one
// in the sink's rack).
func TestPlanPipelineStaysInSinkRack(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		racks := 2 + rng.Intn(5)
		npr := 1 + rng.Intn(4)
		top, err := topology.New(racks, npr)
		if err != nil {
			t.Fatal(err)
		}
		sink := topology.NodeID(rng.Intn(top.Nodes()))
		sinkRack, _ := top.RackOf(sink)
		local, _ := top.NodesInRack(sinkRack)
		var remote []topology.NodeID
		for n := topology.NodeID(0); int(n) < top.Nodes(); n++ {
			if r, _ := top.RackOf(n); r != sinkRack {
				remote = append(remote, n)
			}
		}
		earShaped := trial%2 == 0
		k := 2 + rng.Intn(11)
		replicas := make([][]topology.NodeID, k)
		for i := range replicas {
			replicas[i] = []topology.NodeID{local[rng.Intn(len(local))]}
			for r := rng.Intn(3); r > 0; r-- {
				n := remote[0] // EAR-shaped: one remote node holds everything
				if !earShaped {
					n = topology.NodeID(rng.Intn(top.Nodes()))
				}
				if !slices.Contains(replicas[i], n) {
					replicas[i] = append(replicas[i], n)
				}
			}
		}
		hops, err := PlanPipeline(top, replicas, sink)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPipeline(t, top, replicas, sink, hops)
		for _, h := range hops {
			if h.Rack != sinkRack {
				t.Fatalf("trial %d: hop on node %d leaves sink rack %d: %v", trial, h.Node, sinkRack, hops)
			}
		}
		if b := PipelineRackBoundaries(hops, sinkRack); b != 0 {
			t.Fatalf("trial %d: %d rack boundaries with every position held in the sink's rack", trial, b)
		}
		again, _ := PlanPipeline(top, replicas, sink)
		if !reflect.DeepEqual(hops, again) {
			t.Fatalf("trial %d: plan not deterministic:\n%v\n%v", trial, hops, again)
		}

		// Strip one position of its sink-rack holders: it alone goes remote.
		orphan := rng.Intn(k)
		replicas[orphan] = []topology.NodeID{remote[rng.Intn(len(remote))]}
		hops, err = PlanPipeline(top, replicas, sink)
		if err != nil {
			t.Fatalf("trial %d orphaned: %v", trial, err)
		}
		checkPipeline(t, top, replicas, sink, hops)
		for _, h := range hops {
			if h.Rack != sinkRack && !reflect.DeepEqual(h.Positions, []int{orphan}) {
				t.Fatalf("trial %d: remote hop %v folds more than the orphaned position %d", trial, h, orphan)
			}
		}
		if b := PipelineRackBoundaries(hops, sinkRack); b != 1 {
			t.Fatalf("trial %d: %d rack boundaries for one remote position, want 1", trial, b)
		}
	}
}
