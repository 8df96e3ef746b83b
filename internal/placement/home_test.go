package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ear/internal/topology"
)

// Tests of "parity stays home": the steered replica draw, the planner's
// reservation of the core rack's places, and where the parity lands.

// layoutsOf lists the replica layouts of a stripe's blocks.
func layoutsOf(s *StripeInfo) [][]topology.NodeID {
	layouts := make([][]topology.NodeID, len(s.Placements))
	for i, pl := range s.Placements {
		layouts[i] = pl.Nodes
	}
	return layouts
}

// handBuilt returns a stripe of the given core rack whose block i has the
// replica layout layouts[i].
func handBuilt(core topology.RackID, layouts ...[]topology.NodeID) *StripeInfo {
	info := &StripeInfo{ID: 1, CoreRack: core}
	for b, nodes := range layouts {
		info.Blocks = append(info.Blocks, topology.BlockID(b))
		info.Placements = append(info.Placements, topology.Placement{Block: topology.BlockID(b), Nodes: nodes})
	}
	return info
}

// homeParity counts the plan's parity blocks in the stripe's core rack.
func homeParity(t *testing.T, cfg Config, s *StripeInfo, plan *PostEncodingPlan) int {
	t.Helper()
	home := 0
	for _, n := range plan.Parity {
		r, err := cfg.Topology.RackOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if r == s.CoreRack {
			home++
		}
	}
	return home
}

// TestPropertyParityStaysHome drives EAR from seeded writers, a hot one among
// them, over the geometries the repo runs and checks every stripe's plan: no
// violation, at most c members a rack on distinct nodes, every kept node a
// real replica, and as many parity blocks in the core rack as the from-scratch
// reference allows — the largest rho' <= min(n-k, c) for which the stripe's
// flow graph, solved with the core rack's sink edge at c - rho', still matches
// every block.
func TestPropertyParityStaysHome(t *testing.T) {
	for _, tc := range []struct {
		racks, nodes, n, k, c, r, targets int
		spread                            bool
	}{
		{racks: 4, nodes: 4, n: 14, k: 12, c: 4, r: 2},
		{racks: 4, nodes: 4, n: 9, k: 6, c: 3, r: 2},
		{racks: 5, nodes: 6, n: 9, k: 6, c: 3, r: 3},
		{racks: 12, nodes: 1, n: 6, k: 4, c: 1, r: 2},
		{racks: 20, nodes: 20, n: 14, k: 10, c: 4, r: 3, targets: 5},
		{racks: 8, nodes: 4, n: 9, k: 6, c: 2, r: 3, spread: true},
	} {
		name := fmt.Sprintf("%dx%d(%d,%d)c%dr%d", tc.racks, tc.nodes, tc.n, tc.k, tc.c, tc.r)
		t.Run(name, func(t *testing.T) {
			cfg := Config{Topology: mustTop(t, tc.racks, tc.nodes), K: tc.k, N: tc.n, C: tc.c,
				Replicas: tc.r, TargetRacks: tc.targets, SpreadReplicas: tc.spread}
			top := cfg.Topology
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(100 + seed))
				pol, err := NewEAR(cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				writers := rand.New(rand.NewSource(200 + seed))
				hot := topology.NodeID(writers.Intn(top.Nodes()))
				for b := 0; b < 12*tc.k; b++ {
					writer := topology.NodeID(writers.Intn(top.Nodes()))
					if b%(2*tc.k) < tc.k {
						writer = hot
					}
					if _, err := pol.PlaceFrom(topology.BlockID(b), writer); err != nil {
						t.Fatalf("seed %d block %d: %v", seed, b, err)
					}
				}
				rho := min(tc.n-tc.k, tc.c)
				for _, s := range append(pol.TakeSealed(), pol.FlushOpen()...) {
					plan, err := PlanPostEncoding(cfg, s, rng)
					if err != nil {
						t.Fatalf("seed %d stripe %d: %v", seed, s.ID, err)
					}
					if plan.Violation || len(plan.Relocated) > 0 {
						t.Fatalf("seed %d stripe %d needs relocation", seed, s.ID)
					}
					if err := plan.Layout(s.ID).Validate(top, tc.c); err != nil {
						t.Fatalf("seed %d stripe %d: %v", seed, s.ID, err)
					}
					for i, keep := range plan.Keep {
						if !s.Placements[i].Contains(keep) {
							t.Fatalf("seed %d stripe %d: kept node %d holds no replica of block %d", seed, s.ID, keep, i)
						}
					}
					want := 0
					for back := rho; back > 0 && want == 0; back-- {
						flow, err := solveStripeFlow(cfg.withDefaults(), s, layoutsOf(s), back)
						if err != nil {
							t.Fatal(err)
						}
						if flow == int64(len(s.Blocks)) {
							want = back
						}
					}
					if got := homeParity(t, cfg, s, plan); got != want {
						t.Fatalf("seed %d stripe %d (%d blocks): %d parity blocks in the core rack, the flow graph has room for %d",
							seed, s.ID, len(s.Blocks), got, want)
					}
				}
			}
		})
	}
}

// TestPlanKeepsWhatFitsAtHome hand-builds a stripe whose remote replicas
// collide: 3 racks x 3 nodes, (6,4), c = 2, core rack 0. Blocks 0 and 1 share
// remote node 3, so one of them has to stay home and only one of the core
// rack's two places is left for parity: exactly one parity block at home, the
// other elsewhere, no violation.
func TestPlanKeepsWhatFitsAtHome(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 3, 3), K: 4, N: 6, C: 2, Replicas: 2}
	info := handBuilt(0, []topology.NodeID{0, 3}, []topology.NodeID{1, 3}, []topology.NodeID{2, 6}, []topology.NodeID{0, 7})
	for seed := int64(0); seed < 20; seed++ {
		plan, err := PlanPostEncoding(cfg, info, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation {
			t.Fatalf("seed %d: violation", seed)
		}
		if err := plan.Layout(info.ID).Validate(cfg.Topology, cfg.C); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := homeParity(t, cfg, info, plan); got != 1 {
			t.Fatalf("seed %d: %d parity blocks at home, want 1 (plan %+v)", seed, got, plan)
		}
		if r, _ := cfg.Topology.RackOf(plan.Parity[0]); r != info.CoreRack {
			t.Fatalf("seed %d: parity 0 on node %d, want the home place first", seed, plan.Parity[0])
		}
	}
}

// TestPlanWithNoReplicaLeftAtHome: a stripe whose core-rack replicas were all
// lost (re-replicated elsewhere) crowds one remote rack beyond c. There is no
// home vertex to give a withheld place back to, so the plan must report the
// violation the flow finds and must not invent a match.
func TestPlanWithNoReplicaLeftAtHome(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 3, 3), K: 3, N: 5, C: 2, Replicas: 1}
	info := handBuilt(0, []topology.NodeID{3}, []topology.NodeID{4}, []topology.NodeID{5})
	plan, err := PlanPostEncoding(cfg, info, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Violation || len(plan.Relocated) != 1 {
		t.Fatalf("three blocks in one rack at c = 2: violation=%v relocated=%v, want one block to relocate", plan.Violation, plan.Relocated)
	}
	if got := homeParity(t, cfg, info, plan); got != 2 {
		t.Fatalf("%d parity blocks at home, want both: the core rack is empty (plan %+v)", got, plan)
	}
}

// TestHomeParityPrefersHoldersAndRotates: the core rack's places go to nodes
// that hold a replica of the stripe (hops of the encode chain) before nodes
// that do not, and which holder gets parity 0 — the chain's tail — is drawn,
// not the lowest ID.
func TestHomeParityPrefersHoldersAndRotates(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 4, 6), K: 6, N: 8, C: 4, Replicas: 2}
	// Nodes 1 to 5 of the core rack hold replicas, node 0 none. The matching
	// keeps at most c - 2 = 2 blocks at home, so at least three holders are
	// free for the two parity blocks.
	info := handBuilt(0, []topology.NodeID{1, 6}, []topology.NodeID{2, 7}, []topology.NodeID{3, 12},
		[]topology.NodeID{4, 13}, []topology.NodeID{5, 18}, []topology.NodeID{1, 19})
	tails := map[topology.NodeID]int{}
	for seed := int64(0); seed < 60; seed++ {
		plan, err := PlanPostEncoding(cfg, info, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Layout(info.ID).Validate(cfg.Topology, cfg.C); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, n := range plan.Parity {
			if n < 1 || n > 5 {
				t.Fatalf("seed %d: parity on node %d, want replica holders of the core rack (plan %+v)", seed, n, plan)
			}
		}
		tails[plan.Parity[0]]++
	}
	if len(tails) < 3 {
		t.Errorf("parity 0 landed on %v over 60 seeds, want every free holder in turn", tails)
	}
}

// TestPlanHonorsHomes asks the planner for every ordered pair of core-rack
// nodes as a stripe's parity homes, over EAR stripes of two geometries with
// n - k = 2. The parity lands on exactly those homes, in order, whenever the
// from-scratch flow graph with the homes' places withheld as well as the
// parity's still matches every block; otherwise a home is given back. Either
// way the plan is valid and keeps as many parity blocks at home as the plan
// asked for no homes.
func TestPlanHonorsHomes(t *testing.T) {
	for _, tc := range []struct{ racks, nodes, n, k, c int }{
		{racks: 4, nodes: 4, n: 14, k: 12, c: 4},
		{racks: 4, nodes: 4, n: 8, k: 6, c: 3},
	} {
		cfg := Config{Topology: mustTop(t, tc.racks, tc.nodes), K: tc.k, N: tc.n, C: tc.c, Replicas: 2}
		top := cfg.Topology
		honored, asked := 0, 0
		for seed := int64(0); seed < 4; seed++ {
			pol, err := NewEAR(cfg, rand.New(rand.NewSource(300+seed)))
			if err != nil {
				t.Fatal(err)
			}
			writers := rand.New(rand.NewSource(400 + seed))
			for b := 0; b < 8*tc.k; b++ {
				if _, err := pol.PlaceFrom(topology.BlockID(b), topology.NodeID(writers.Intn(top.Nodes()))); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range append(pol.TakeSealed(), pol.FlushOpen()...) {
				base, err := PlanPostEncoding(cfg, s, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				core, err := top.NodesInRack(s.CoreRack)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range core {
					for _, b := range core {
						if a == b {
							continue
						}
						homes := []topology.NodeID{a, b}
						plan, err := PlanPostEncoding(cfg, s, rand.New(rand.NewSource(seed)), homes...)
						if err != nil {
							t.Fatal(err)
						}
						if plan.Violation {
							t.Fatalf("stripe %d, homes %v: violation", s.ID, homes)
						}
						if err := plan.Layout(s.ID).Validate(top, tc.c); err != nil {
							t.Fatalf("stripe %d, homes %v: %v", s.ID, homes, err)
						}
						if got, want := homeParity(t, cfg, s, plan), homeParity(t, cfg, s, base); got != want {
							t.Fatalf("stripe %d, homes %v: %d parity blocks at home, %d without homes", s.ID, homes, got, want)
						}
						flow, err := solveStripeFlow(cfg.withDefaults(), s, layoutsOf(s), 2, homes...)
						if err != nil {
							t.Fatal(err)
						}
						asked++
						if flow == int64(len(s.Blocks)) {
							honored++
							if !reflect.DeepEqual(plan.Parity, homes) {
								t.Fatalf("stripe %d: parity on %v, want the homes %v, which the matching leaves free", s.ID, plan.Parity, homes)
							}
						}
					}
				}
			}
		}
		t.Logf("(%d,%d) on %dx%d: homes honored for %d of %d asks", tc.n, tc.k, tc.racks, tc.nodes, honored, asked)
		if honored == 0 {
			t.Errorf("(%d,%d): no ask left both homes free", tc.n, tc.k)
		}
	}
}

// TestPlanGivesBackHomes: the stripe of TestPlanKeepsWhatFitsAtHome must keep
// block 0 or block 1 on its core-rack replica (nodes 0 and 1). Asked for
// homes 1 then 2, the planner gives node 2 back first, then node 1, and only
// then a parity place: one parity block stays home, on a home the matching
// left free.
func TestPlanGivesBackHomes(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 3, 3), K: 4, N: 6, C: 2, Replicas: 2}
	info := handBuilt(0, []topology.NodeID{0, 3}, []topology.NodeID{1, 3}, []topology.NodeID{2, 6}, []topology.NodeID{0, 7})
	for seed := int64(0); seed < 20; seed++ {
		plan, err := PlanPostEncoding(cfg, info, rand.New(rand.NewSource(seed)), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation {
			t.Fatalf("seed %d: violation", seed)
		}
		if err := plan.Layout(info.ID).Validate(cfg.Topology, cfg.C); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := homeParity(t, cfg, info, plan); got != 1 {
			t.Fatalf("seed %d: %d parity blocks at home, want 1 (plan %+v)", seed, got, plan)
		}
		if p := plan.Parity[0]; p != 1 && p != 2 || slices.Contains(plan.Keep, p) {
			t.Fatalf("seed %d: parity 0 on node %d, want a free home (plan %+v)", seed, p, plan)
		}
	}
}

// rrGolden is what the commit before the reservation planned for the stripes
// of TestRRPlanUnchanged.
var rrGolden = []PostEncodingPlan{
	{Keep: []topology.NodeID{4, 19, 9, 31, 38, 43}, Parity: []topology.NodeID{15, 48, 24}},
	{Keep: []topology.NodeID{30, 22, 24, 57, 15, 47}, Parity: []topology.NodeID{5, 11, 41}},
	{Keep: []topology.NodeID{28, 11, 35, 38, 26, 42}, Parity: []topology.NodeID{20, 56, 2}, Violation: true, Relocated: []int{4}},
	{Keep: []topology.NodeID{49, 14, 34, 59, 4, 8}, Parity: []topology.NodeID{43, 26, 20}},
	{Keep: []topology.NodeID{9, 30, 24, 4, 43, 17}, Parity: []topology.NodeID{56, 37, 49}},
}

// TestRRPlanUnchanged: a stripe grouped from RR placements has no core rack,
// so nothing is reserved and the plan is, draw for draw, the one the planner
// made before it knew about home parity.
func TestRRPlanUnchanged(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 10, 6), K: 6, N: 9, C: 1}
	rr, err := NewRandom(cfg, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	placements := map[topology.BlockID]topology.Placement{}
	var blocks []topology.BlockID
	for b := 0; b < len(rrGolden)*cfg.K; b++ {
		pl, err := rr.Place(topology.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		placements[pl.Block] = pl
		blocks = append(blocks, pl.Block)
	}
	stripes, err := GroupIntoStripes(cfg.K, blocks, placements, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	for i, s := range stripes {
		plan, err := PlanPostEncoding(cfg, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*plan, rrGolden[i]) {
			t.Errorf("stripe %d: plan %+v, want %+v", i, *plan, rrGolden[i])
		}
	}
}

// TestPreliminaryPlanUnchanged: preliminary EAR is the paper's strawman and
// Figure 3 counts its violations. Its stripes keep a place at home for their
// parity like any other stripe with a core rack, and that changes no count: a
// withheld place is given back while the matching is incomplete. Per stripe,
// Violation and the number of relocated blocks are what the from-scratch
// maximum flow at capacity c says, and over 400 seeds the totals are those of
// the planner that reserved nothing.
func TestPreliminaryPlanUnchanged(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 20, 6), K: 8, N: 9, C: 1, Preliminary: true}
	violations, relocated := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pol, err := NewEAR(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < cfg.K; b++ {
			if _, err := pol.PlaceAt(topology.BlockID(b), 3); err != nil {
				t.Fatal(err)
			}
		}
		s := pol.TakeSealed()[0]
		plan, err := PlanPostEncoding(cfg, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := solveStripeFlow(cfg.withDefaults(), s, layoutsOf(s), 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation != (flow < int64(cfg.K)) || len(plan.Relocated) != cfg.K-int(flow) {
			t.Fatalf("seed %d: violation %v with %d relocated, the flow graph matches %d of %d",
				seed, plan.Violation, len(plan.Relocated), flow, cfg.K)
		}
		if plan.Violation {
			violations++
		}
		relocated += len(plan.Relocated)
	}
	if violations != 159 || relocated != 202 {
		t.Errorf("%d violations, %d relocated blocks over 400 seeds; 159 and 202 with nothing reserved", violations, relocated)
	}
}

// TestSteeredDrawKeepsBalance: per-node counts of replica 2 over 2,000 stripes
// from uniform writers are no more skewed under EAR's steered draw than under
// RR fed the same writers (Figures 14 and 15 rest on it) — less, in fact: a
// stripe covers its remote nodes once each.
func TestSteeredDrawKeepsBalance(t *testing.T) {
	cfg := baseConfig(t, 4, 4, 14, 12)
	cfg.Replicas, cfg.C = 2, 4
	top := cfg.Topology
	ear, err := NewEAR(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRandom(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	skew := func(counts []int) float64 {
		hi, sum := 0, 0
		for _, c := range counts {
			hi = max(hi, c)
			sum += c
		}
		return float64(hi) * float64(len(counts)) / float64(sum)
	}
	earCounts, rrCounts := make([]int, top.Nodes()), make([]int, top.Nodes())
	writers := rand.New(rand.NewSource(32))
	for b := 0; b < 2000*cfg.K; b++ {
		writer := topology.NodeID(writers.Intn(top.Nodes()))
		pl, err := ear.PlaceFrom(topology.BlockID(b), writer)
		if err != nil {
			t.Fatal(err)
		}
		earCounts[pl.Nodes[1]]++
		ear.TakeSealed()
		if pl, err = rr.PlaceFrom(topology.BlockID(b), writer); err != nil {
			t.Fatal(err)
		}
		rrCounts[pl.Nodes[1]]++
	}
	if e, r := skew(earCounts), skew(rrCounts); e > r {
		t.Errorf("replica 2 max/mean per node: EAR %.4f, RR %.4f; want EAR no larger", e, r)
	} else {
		t.Logf("replica 2 max/mean per node: EAR %.4f, RR %.4f", e, r)
	}
}
