package placement

import (
	"math/rand"
	"testing"

	"ear/internal/topology"
)

// solveStripeFlow solves from scratch the flow graph of the stripe's core rack
// and target racks over the given layouts, with reserve places of the core
// rack withheld: the reference the admission and planner tests check against.
func solveStripeFlow(cfg Config, info *StripeInfo, layouts [][]topology.NodeID, reserve int) (int64, error) {
	f, err := newStripeFlow(cfg)
	if err != nil {
		return 0, err
	}
	if err := f.build(&StripeInfo{ID: info.ID, CoreRack: info.CoreRack, Targets: info.Targets}, reserve); err != nil {
		return 0, err
	}
	for _, nodes := range layouts {
		if err := f.addBlock(nodes); err != nil {
			return 0, err
		}
	}
	return f.graph.MaxFlow(f.source, f.sink)
}

// randomLayout draws one uniform candidate layout, as EAR draws one for a
// stripe without room, into fresh memory.
func randomLayout(cfg Config, coreRack topology.RackID, remoteRacks []topology.RackID, rng *rand.Rand) ([]topology.NodeID, error) {
	var s layoutScratch
	nodes, err := randomLayoutInto(cfg, coreRack, remoteRacks, nil, nil, rng, &s)
	if err != nil {
		return nil, err
	}
	return cloneNodes(nodes), nil
}

// TestPropertyDirectAdmissionImpliesFlow checks EAR's admission rule against
// a flow graph solved from scratch. On the geometries the repo runs it fills
// open stripes from seeded writers, a hot one among them, and after every
// placement draws uniform candidates over every rack for every open stripe,
// so every fill level is seen. A candidate the direct path admits (stripeRoom.admits) must
// keep the stripe's maximum flow at one unit per block; EAR.admits, which
// falls back to the policy's reused graph, must give the from-scratch
// verdict on every candidate; and some candidates must need that fallback,
// so that both branches run.
func TestPropertyDirectAdmissionImpliesFlow(t *testing.T) {
	const candidates = 32
	var direct, solved, rejected int
	for _, g := range []struct {
		name                              string
		racks, nodes, n, k, c, r, targets int
		spread                            bool
	}{
		{name: "benchmark", racks: 4, nodes: 4, n: 14, k: 12, c: 4, r: 2},
		{name: "c1", racks: 20, nodes: 20, n: 14, k: 10, c: 1, r: 3},
		{name: "testbed", racks: 12, nodes: 1, n: 10, k: 8, c: 1, r: 2},
		{name: "hot-writer", racks: 3, nodes: 4, n: 12, k: 10, c: 4, r: 2},
		{name: "target-racks", racks: 20, nodes: 20, n: 14, k: 10, c: 4, r: 3, targets: 5},
		{name: "spread", racks: 8, nodes: 4, n: 9, k: 6, c: 2, r: 3, spread: true},
		{name: "c2", racks: 6, nodes: 4, n: 9, k: 6, c: 2, r: 3},
	} {
		cfg := Config{Topology: mustTop(t, g.racks, g.nodes), K: g.k, N: g.n, C: g.c,
			Replicas: g.r, TargetRacks: g.targets, SpreadReplicas: g.spread}
		top := cfg.Topology
		levels := make([]bool, g.k)
		var gd, gs, gr int
		for seed := int64(0); seed < 4; seed++ {
			pol, err := NewEAR(cfg, rand.New(rand.NewSource(300+seed)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(400 + seed))
			hot := topology.NodeID(rng.Intn(top.Nodes()))
			for b := 0; b < 4*g.k; b++ {
				writer := topology.NodeID(rng.Intn(top.Nodes()))
				if b%(2*g.k) < g.k {
					writer = hot
				}
				if _, err := pol.PlaceFrom(topology.BlockID(b), writer); err != nil {
					t.Fatalf("%s seed %d block %d: %v", g.name, seed, b, err)
				}
				pol.TakeSealed()
				for _, core := range pol.racks {
					info := pol.open[core]
					if info == nil {
						continue
					}
					levels[len(info.Blocks)] = true
					for j := 0; j < candidates; j++ {
						cand, err := randomLayout(pol.cfg, core, pol.racks, rng)
						if err != nil {
							t.Fatal(err)
						}
						room := pol.roomOf(info)
						ok, err := room.admits(pol.cfg, info, cand)
						if err != nil {
							t.Fatal(err)
						}
						flow, err := solveStripeFlow(pol.cfg, info, append(layoutsOf(info), cand), 0)
						if err != nil {
							t.Fatal(err)
						}
						exact := flow == int64(len(info.Blocks)+1)
						if ok && !exact {
							t.Fatalf("%s seed %d: candidate %v admitted by the direct path after %v, the flow graph carries %d of %d",
								g.name, seed, cand, layoutsOf(info), flow, len(info.Blocks)+1)
						}
						if got, err := pol.admits(info, room, cand); err != nil || got != exact {
							t.Fatalf("%s seed %d: candidate %v after %v: admits = %v (%v), the from-scratch solve says %v",
								g.name, seed, cand, layoutsOf(info), got, err, exact)
						}
						switch {
						case ok:
							gd++
						case exact:
							gs++
						default:
							gr++
						}
					}
				}
			}
		}
		for i, seen := range levels[1:] {
			if !seen {
				t.Errorf("%s: no open stripe held %d blocks", g.name, i+1)
			}
		}
		t.Logf("%s: %d candidates admitted by the direct path, %d by the solve alone, %d rejected", g.name, gd, gs, gr)
		direct, solved, rejected = direct+gd, solved+gs, rejected+gr
	}
	t.Logf("%d candidates: %d direct, %d solved, %d rejected", direct+solved+rejected, direct, solved, rejected)
	if direct == 0 || solved == 0 {
		t.Errorf("%d candidates admitted by the direct path, %d by the solve alone: want both branches run", direct, solved)
	}
}

// TestDirectAdmissionNeedsAFreeTargetNode: two blocks on nodes 0 and 2 leave
// racks 0 and 1 below c, yet the direct path takes neither a candidate on
// those two nodes nor one whose free node is outside the stripe's targets;
// both would break the stripe, as the from-scratch solve says.
func TestDirectAdmissionNeedsAFreeTargetNode(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 4, 2), K: 3, N: 4, C: 3, Replicas: 2, TargetRacks: 3}
	p, err := NewEAR(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	info := handBuilt(0, []topology.NodeID{0, 2}, []topology.NodeID{0, 2})
	info.Targets = []topology.RackID{0, 1, 2}
	for _, tc := range []struct {
		cand []topology.NodeID
		want bool
	}{
		{[]topology.NodeID{0, 2}, false}, // both nodes taken
		{[]topology.NodeID{0, 6}, false}, // node 6 is free, in rack 3, no target
		{[]topology.NodeID{1, 3}, true},
	} {
		direct, err := p.roomOf(info).admits(p.cfg, info, tc.cand)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := solveStripeFlow(p.cfg, info, append(layoutsOf(info), tc.cand), 0)
		if err != nil {
			t.Fatal(err)
		}
		if direct != tc.want || (flow == 3) != tc.want {
			t.Errorf("candidate %v: direct path %v, flow %d of 3; want both to say %v", tc.cand, direct, flow, tc.want)
		}
	}
}

// TestRejectedCandidateAllocatesNothing: once the policy's room and flow
// graph are warm, a candidate that only the from-scratch solve can decide,
// and that it rejects, costs no heap allocation.
func TestRejectedCandidateAllocatesNothing(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 4, 4), Replicas: 2, K: 3, N: 4, C: 1}
	p, err := NewEAR(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	info := handBuilt(0, []topology.NodeID{0, 4}, []topology.NodeID{1, 5})
	cand := []topology.NodeID{2, 6} // free nodes, in racks 0 and 1, both at c
	allocs := testing.AllocsPerRun(200, func() {
		if ok, err := p.admits(info, p.roomOf(info), cand); err != nil || ok {
			t.Fatalf("candidate %v: admits = %v, %v; want a rejection", cand, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a rejected candidate allocates %.1f objects per run, want 0", allocs)
	}
}

// TestRandomLayoutIntoAllocatesNothing checks the candidate generator itself
// is allocation-free with a warm scratch.
func TestRandomLayoutIntoAllocatesNothing(t *testing.T) {
	top, err := topology.New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: top, Replicas: 3, K: 4, N: 6, C: 1}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(11))
	racks := allRacks(top)
	var s layoutScratch
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := randomLayoutInto(cfg, 0, racks, nil, nil, rng, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("randomLayoutInto allocates %.1f objects per run, want 0", allocs)
	}
	// The steered draw, from a writer into a stripe two blocks full: it reads
	// the stripe's room and filters in the same scratch.
	room := &stripeRoom{taken: make([]bool, top.Nodes()), nodes: make([]int, top.Racks()), blocks: make([]int, top.Racks())}
	room.add(top, []topology.NodeID{0, 4, 5})
	room.add(top, []topology.NodeID{1, 8, 9})
	allocs = testing.AllocsPerRun(200, func() {
		nodes, err := localLayoutInto(cfg, 2, 0, racks, room, nil, rng, &s)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			if r, _ := top.RackOf(n); room.taken[n] || room.blocks[r] >= cfg.C {
				t.Fatalf("steered replica on node %d: taken or in a rack without room", n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("the steered localLayoutInto allocates %.1f objects per run, want 0", allocs)
	}
	// Steered away from the writes in flight too: the loads go to scratch.
	ledger := shuffledInFlight(top, rng)
	for _, room := range []*stripeRoom{room, nil} {
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := localLayoutInto(cfg, 2, 0, racks, room, ledger, rng, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("localLayoutInto reading a ledger (room %v) allocates %.1f objects per run, want 0", room != nil, allocs)
		}
	}
}
