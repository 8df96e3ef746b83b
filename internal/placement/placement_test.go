package placement

import (
	"errors"
	"math/rand"
	"testing"

	"ear/internal/topology"
)

func mustTop(t *testing.T, racks, nodes int) *topology.Topology {
	t.Helper()
	top, err := topology.New(racks, nodes)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return top
}

func baseConfig(t *testing.T, racks, nodesPerRack, n, k int) Config {
	t.Helper()
	return Config{Topology: mustTop(t, racks, nodesPerRack), K: k, N: n}
}

func TestConfigValidate(t *testing.T) {
	top := mustTop(t, 5, 6)
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid default", Config{Topology: top, K: 4, N: 5}, true},
		{"nil topology", Config{K: 4, N: 5}, false},
		{"k <= 0", Config{Topology: top, K: 0, N: 5}, false},
		{"n <= k", Config{Topology: top, K: 5, N: 5}, false},
		{"replicas negative", Config{Topology: top, K: 4, N: 5, Replicas: -1}, false},
		{"spread too wide", Config{Topology: top, K: 3, N: 4, Replicas: 6, SpreadReplicas: true}, false},
		{"remote rack too small", Config{Topology: top, K: 3, N: 4, Replicas: 8}, false},
		{"stripe does not fit", Config{Topology: top, K: 4, N: 6, TargetRacks: 2, C: 1}, false},
		{"stripe fits with c", Config{Topology: top, K: 4, N: 6, TargetRacks: 2, C: 3}, true},
		{"too many target racks", Config{Topology: top, K: 4, N: 5, TargetRacks: 9}, false},
		{"c too small for k", Config{Topology: mustTop(t, 3, 10), K: 8, N: 9, C: 2}, false},
		{"too few nodes for stripe", Config{Topology: mustTop(t, 5, 2), K: 8, N: 12, C: 3}, false},
		{"just enough nodes", Config{Topology: mustTop(t, 5, 2), K: 6, N: 10, C: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate: %v, want nil", err)
			}
			if !tt.ok && !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("Validate: %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestNewPolicyNilRNG(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	if _, err := NewRandom(cfg, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewRandom(nil rng): %v", err)
	}
	if _, err := NewEAR(cfg, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewEAR(nil rng): %v", err)
	}
}

func TestRandomPlacementShape(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	rng := rand.New(rand.NewSource(1))
	p, err := NewRandom(cfg, rng)
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	if p.Name() != "rr" {
		t.Errorf("Name() = %q", p.Name())
	}
	if got := p.TakeSealed(); got != nil {
		t.Errorf("RR TakeSealed = %v, want nil", got)
	}
	top := cfg.Topology
	for b := 0; b < 500; b++ {
		pl, err := p.Place(topology.BlockID(b))
		if err != nil {
			t.Fatalf("Place: %v", err)
		}
		if len(pl.Nodes) != 3 {
			t.Fatalf("placement has %d replicas, want 3", len(pl.Nodes))
		}
		// Distinct nodes.
		seen := map[topology.NodeID]bool{}
		for _, n := range pl.Nodes {
			if seen[n] {
				t.Fatalf("duplicate node %d in placement %v", n, pl.Nodes)
			}
			seen[n] = true
		}
		// HDFS default: exactly two racks, replicas 2 and 3 share a rack
		// different from replica 1's.
		set, err := pl.RackSet(top)
		if err != nil {
			t.Fatalf("RackSet: %v", err)
		}
		if len(set) != 2 {
			t.Fatalf("placement spans %d racks, want 2: %v", len(set), pl.Nodes)
		}
		r1, _ := top.RackOf(pl.Nodes[0])
		r2, _ := top.RackOf(pl.Nodes[1])
		r3, _ := top.RackOf(pl.Nodes[2])
		if r2 != r3 || r1 == r2 {
			t.Fatalf("replica racks (%d, %d, %d) violate HDFS default", r1, r2, r3)
		}
	}
}

func TestRandomPlacementSpreadReplicas(t *testing.T) {
	cfg := baseConfig(t, 12, 4, 10, 8)
	cfg.Replicas = 4
	cfg.SpreadReplicas = true
	rng := rand.New(rand.NewSource(2))
	p, err := NewRandom(cfg, rng)
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	for b := 0; b < 200; b++ {
		pl, err := p.Place(topology.BlockID(b))
		if err != nil {
			t.Fatalf("Place: %v", err)
		}
		set, err := pl.RackSet(cfg.Topology)
		if err != nil {
			t.Fatalf("RackSet: %v", err)
		}
		if len(set) != 4 {
			t.Fatalf("spread placement spans %d racks, want 4", len(set))
		}
	}
}

func TestRandomSingleReplica(t *testing.T) {
	cfg := baseConfig(t, 5, 2, 4, 3)
	cfg.Replicas = 1
	p, err := NewRandom(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	pl, err := p.Place(1)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(pl.Nodes) != 1 {
		t.Fatalf("placement has %d replicas, want 1", len(pl.Nodes))
	}
}

func TestEARCoreRackInvariant(t *testing.T) {
	// Every block of a sealed stripe must keep one replica (the first) in
	// the stripe's core rack, so the encoding node downloads nothing
	// cross-rack (design goal 1, Section III-A).
	cfg := baseConfig(t, 20, 5, 14, 10)
	rng := rand.New(rand.NewSource(4))
	p, err := NewEAR(cfg, rng)
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	if p.Name() != "ear" {
		t.Errorf("Name() = %q", p.Name())
	}
	for b := 0; b < 400; b++ {
		if _, err := p.Place(topology.BlockID(b)); err != nil {
			t.Fatalf("Place(%d): %v", b, err)
		}
	}
	sealed := p.TakeSealed()
	if len(sealed) == 0 {
		t.Fatal("no sealed stripes after 400 blocks with k=10")
	}
	if again := p.TakeSealed(); again != nil {
		t.Fatalf("second TakeSealed returned %d stripes, want none", len(again))
	}
	top := cfg.Topology
	for _, s := range sealed {
		if len(s.Blocks) != 10 {
			t.Fatalf("stripe %d sealed with %d blocks", s.ID, len(s.Blocks))
		}
		for i, pl := range s.Placements {
			r, err := top.RackOf(pl.Nodes[0])
			if err != nil {
				t.Fatalf("RackOf: %v", err)
			}
			if r != s.CoreRack {
				t.Fatalf("stripe %d block %d first replica in rack %d, core rack %d", s.ID, i, r, s.CoreRack)
			}
			// Any node in the core rack can encode with zero cross-rack
			// downloads.
			coreNodes, _ := top.NodesInRack(s.CoreRack)
			dl, err := CrossRackDownloads(top, s.Placements, coreNodes[0])
			if err != nil {
				t.Fatalf("CrossRackDownloads: %v", err)
			}
			if dl != 0 {
				t.Fatalf("stripe %d: %d cross-rack downloads from core rack", s.ID, dl)
			}
		}
	}
}

func TestEARPostEncodingNeverViolates(t *testing.T) {
	// Design goal 2 (Section III-B): the complete EAR never requires block
	// relocation, and the resulting layout tolerates n-k node failures and
	// floor((n-k)/c) rack failures.
	for _, tc := range []struct {
		racks, nodes, n, k, c int
	}{
		{20, 20, 14, 10, 1},
		{16, 10, 12, 10, 1},
		{6, 10, 6, 3, 3},
		{8, 10, 14, 10, 2},
	} {
		cfg := Config{Topology: mustTop(t, tc.racks, tc.nodes), K: tc.k, N: tc.n, C: tc.c}
		rng := rand.New(rand.NewSource(5))
		p, err := NewEAR(cfg, rng)
		if err != nil {
			t.Fatalf("NewEAR(%+v): %v", tc, err)
		}
		for b := 0; b < tc.k*20; b++ {
			if _, err := p.Place(topology.BlockID(b)); err != nil {
				t.Fatalf("Place: %v", err)
			}
		}
		for _, s := range p.TakeSealed() {
			plan, err := PlanPostEncoding(cfg, s, rng)
			if err != nil {
				t.Fatalf("PlanPostEncoding: %v", err)
			}
			if plan.Violation || len(plan.Relocated) > 0 {
				t.Fatalf("%+v: EAR stripe %d requires relocation", tc, s.ID)
			}
			layout := plan.Layout(s.ID)
			if err := layout.Validate(cfg.Topology, tc.c); err != nil {
				t.Fatalf("%+v: layout invalid: %v", tc, err)
			}
			// Every kept replica must be one of the block's replicas.
			for i, keep := range plan.Keep {
				if !s.Placements[i].Contains(keep) {
					t.Fatalf("kept node %d is not a replica of block %d", keep, i)
				}
			}
			ft, err := layout.TolerableRackFailures(cfg.Topology, tc.k)
			if err != nil {
				t.Fatalf("TolerableRackFailures: %v", err)
			}
			if want := (tc.n - tc.k) / tc.c; ft < want {
				t.Fatalf("%+v: layout tolerates %d rack failures, want >= %d", tc, ft, want)
			}
		}
	}
}

func TestEARTargetRacks(t *testing.T) {
	// Section III-D: with c = n-k and R' target racks, all post-encoding
	// blocks stay inside the stripe's target racks.
	cfg := baseConfig(t, 6, 6, 6, 3)
	cfg.C = 3
	cfg.TargetRacks = 2
	rng := rand.New(rand.NewSource(6))
	p, err := NewEAR(cfg, rng)
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	for b := 0; b < 60; b++ {
		if _, err := p.Place(topology.BlockID(b)); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	sealed := p.TakeSealed()
	if len(sealed) == 0 {
		t.Fatal("no sealed stripes")
	}
	for _, s := range sealed {
		if len(s.Targets) != 2 {
			t.Fatalf("stripe %d has %d target racks, want 2", s.ID, len(s.Targets))
		}
		if s.Targets[0] != s.CoreRack {
			t.Fatalf("core rack %d not first target %v", s.CoreRack, s.Targets)
		}
		plan, err := PlanPostEncoding(cfg, s, rng)
		if err != nil {
			t.Fatalf("PlanPostEncoding: %v", err)
		}
		if plan.Violation {
			t.Fatalf("stripe %d violated with target racks", s.ID)
		}
		targets := map[topology.RackID]bool{}
		for _, r := range s.Targets {
			targets[r] = true
		}
		for _, n := range plan.Layout(s.ID).AllNodes() {
			r, _ := cfg.Topology.RackOf(n)
			if !targets[r] {
				t.Fatalf("stripe %d places a block in non-target rack %d", s.ID, r)
			}
		}
	}
}

func TestEARFlushOpen(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	p, err := NewEAR(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	// Place 2 blocks into one stripe (fewer than k=4), pinned to rack 0.
	for b := 0; b < 2; b++ {
		if _, err := p.PlaceAt(topology.BlockID(b), 0); err != nil {
			t.Fatalf("PlaceAt: %v", err)
		}
	}
	if got := p.TakeSealed(); len(got) != 0 {
		t.Fatalf("TakeSealed = %d stripes, want 0", len(got))
	}
	open := p.FlushOpen()
	if len(open) != 1 || len(open[0].Blocks) != 2 {
		t.Fatalf("FlushOpen = %+v, want one stripe of 2 blocks", open)
	}
	if again := p.FlushOpen(); len(again) != 0 {
		t.Fatal("second FlushOpen should be empty")
	}
}

// TestEARFlushOpenSortsByCore: with an open stripe on every one of twelve
// racks, FlushOpen returns them in ascending core-rack order, as OpenState
// does, on every fresh policy — not in the open map's order.
func TestEARFlushOpenSortsByCore(t *testing.T) {
	cfg := baseConfig(t, 12, 2, 6, 4)
	for seed := int64(0); seed < 20; seed++ {
		p, err := NewEAR(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.Topology.Racks(); r++ {
			if _, err := p.PlaceAt(topology.BlockID(r), topology.RackID(r)); err != nil {
				t.Fatal(err)
			}
		}
		open := p.FlushOpen()
		if len(open) != cfg.Topology.Racks() {
			t.Fatalf("seed %d: FlushOpen returned %d stripes, want %d", seed, len(open), cfg.Topology.Racks())
		}
		for i, s := range open {
			if s.CoreRack != topology.RackID(i) {
				t.Fatalf("seed %d: stripe %d of the flush has core rack %d, want %d", seed, i, s.CoreRack, i)
			}
		}
	}
}

func TestEARPlaceAtValidatesRack(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	p, err := NewEAR(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	if _, err := p.PlaceAt(1, 99); !errors.Is(err, topology.ErrUnknownRack) {
		t.Errorf("PlaceAt bad rack: %v", err)
	}
}

// TestPlaceFromPinsFirstReplica: with a writer, both policies put replica 1
// on the writer. On the benchmark's geometry a stripe's twelve blocks find
// twelve remote nodes the stripe does not occupy yet, so EAR's first candidate
// is admitted for every block, a hot writer's included, and nothing leaves the
// writer; the post-encoding plans stay violation-free.
func TestPlaceFromPinsFirstReplica(t *testing.T) {
	cfg := baseConfig(t, 4, 4, 14, 12)
	cfg.Replicas, cfg.C = 2, 4
	top := cfg.Topology
	rr, err := NewRandom(cfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	ear, err := NewEAR(cfg, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	writers := rand.New(rand.NewSource(23))
	for b := 0; b < 40*cfg.K; b++ {
		// Bursts from one writer, so some stripes fill from a single node.
		writer := topology.NodeID(writers.Intn(top.Nodes()))
		if b%(2*cfg.K) < cfg.K {
			writer = 5
		}
		rack, _ := top.RackOf(writer)
		pl, err := rr.PlaceFrom(topology.BlockID(b), writer)
		if err != nil || pl.Nodes[0] != writer {
			t.Fatalf("RR PlaceFrom(%d, node %d) = %v, %v; want replica 1 on the writer", b, writer, pl.Nodes, err)
		}
		if r, _ := top.RackOf(pl.Nodes[1]); r == rack {
			t.Fatalf("RR block %d: replica 2 on node %d shares rack %d with the writer", b, pl.Nodes[1], rack)
		}
		pl, err = ear.PlaceFrom(topology.BlockID(b), writer)
		if err != nil {
			t.Fatalf("EAR PlaceFrom(%d, node %d): %v", b, writer, err)
		}
		if pl.Nodes[0] != writer || ear.LastPlaceAttempts() != 1 {
			t.Fatalf("EAR block %d from node %d: replica 1 on node %d after %d candidates, want the writer and 1",
				b, writer, pl.Nodes[0], ear.LastPlaceAttempts())
		}
	}
	sealed := append(ear.TakeSealed(), ear.FlushOpen()...)
	for _, s := range sealed {
		for i, pl := range s.Placements {
			if r, _ := top.RackOf(pl.Nodes[0]); r != s.CoreRack {
				t.Fatalf("stripe %d block %d: replica 1 in rack %d, core rack %d", s.ID, i, r, s.CoreRack)
			}
		}
		plan, err := PlanPostEncoding(cfg, s, rand.New(rand.NewSource(int64(s.ID))))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation {
			t.Fatalf("stripe %d needs relocation after writer-local placement", s.ID)
		}
	}
	if _, err := ear.PlaceFrom(0, topology.NodeID(top.Nodes())); !errors.Is(err, topology.ErrUnknownNode) {
		t.Errorf("EAR PlaceFrom an unknown node: %v", err)
	}
	if _, err := rr.PlaceFrom(0, topology.NodeID(top.Nodes())); !errors.Is(err, topology.ErrUnknownNode) {
		t.Errorf("RR PlaceFrom an unknown node: %v", err)
	}
}

// TestPlaceFromFallsBackInsideTheRack covers the branch the geometry above no
// longer reaches. On 3 racks x 4 nodes with (12,10), c = 4, the eight remote
// nodes take a hot writer's first eight blocks, the ninth is matched to the
// writer itself, and the tenth must leave it: the flow graph rejects the
// writer-pinned candidate and a later one, drawn from the whole core rack,
// puts replica 1 on a rack-mate. The plan still needs no relocation.
func TestPlaceFromFallsBackInsideTheRack(t *testing.T) {
	cfg := baseConfig(t, 3, 4, 12, 10)
	cfg.Replicas, cfg.C = 2, 4
	top := cfg.Topology
	ear, err := NewEAR(cfg, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	const writer = topology.NodeID(6)
	rack, _ := top.RackOf(writer)
	for b := 0; b < 20*cfg.K; b++ {
		pl, err := ear.PlaceFrom(topology.BlockID(b), writer)
		if err != nil {
			t.Fatalf("PlaceFrom(%d): %v", b, err)
		}
		attempts := ear.LastPlaceAttempts()
		if b%cfg.K < cfg.K-1 {
			if pl.Nodes[0] != writer || attempts != 1 {
				t.Fatalf("block %d of its stripe: replica 1 on node %d after %d candidates, want the writer and 1",
					b%cfg.K+1, pl.Nodes[0], attempts)
			}
			continue
		}
		if r, _ := top.RackOf(pl.Nodes[0]); pl.Nodes[0] == writer || r != rack || attempts < 2 {
			t.Fatalf("last block of its stripe: replica 1 on node %d (rack %d) after %d candidates, want a rack-mate of node %d after a rejection",
				pl.Nodes[0], r, attempts, writer)
		}
	}
	sealed := ear.TakeSealed()
	if len(sealed) != 20 {
		t.Fatalf("%d stripes sealed, want 20", len(sealed))
	}
	for _, s := range sealed {
		plan, err := PlanPostEncoding(cfg, s, rand.New(rand.NewSource(int64(s.ID))))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation {
			t.Fatalf("stripe %d needs relocation", s.ID)
		}
		if err := plan.Layout(s.ID).Validate(top, cfg.C); err != nil {
			t.Fatalf("stripe %d: %v", s.ID, err)
		}
	}
}

func TestPreliminaryEARSkipsFlowCheck(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	cfg.Preliminary = true
	p, err := NewEAR(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	if p.Name() != "ear-preliminary" {
		t.Errorf("Name() = %q", p.Name())
	}
	for b := 0; b < 200; b++ {
		if _, err := p.Place(topology.BlockID(b)); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	for _, s := range p.TakeSealed() {
		for _, it := range s.Iterations {
			if it != 1 {
				t.Fatalf("preliminary EAR retried a layout (iterations = %d)", it)
			}
		}
	}
}

func TestTheorem1IterationBound(t *testing.T) {
	// Theorem 1: E_i <= (1 - floor((i-1)/c)/(R-1))^-1. With R=20, c=1,
	// k=10 the worst bound is ~1.9. Check the empirical mean with slack.
	cfg := baseConfig(t, 20, 20, 14, 10)
	rng := rand.New(rand.NewSource(11))
	p, err := NewEAR(cfg, rng)
	if err != nil {
		t.Fatalf("NewEAR: %v", err)
	}
	for b := 0; b < 10*200; b++ {
		if _, err := p.Place(topology.BlockID(b)); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	var sum, count float64
	maxMean := 0.0
	perIndex := make([]float64, 10)
	perCount := make([]float64, 10)
	for _, s := range p.TakeSealed() {
		for i, it := range s.Iterations {
			sum += float64(it)
			count++
			perIndex[i] += float64(it)
			perCount[i]++
		}
	}
	if count == 0 {
		t.Fatal("no iterations recorded")
	}
	for i := range perIndex {
		if perCount[i] == 0 {
			continue
		}
		mean := perIndex[i] / perCount[i]
		if mean > maxMean {
			maxMean = mean
		}
		// Bound for index i (1-based i+1): (1 - i/(R-1))^-1 with c=1.
		bound := 1.0 / (1.0 - float64(i)/19.0)
		if mean > bound*1.5 { // generous sampling slack
			t.Errorf("block index %d: mean iterations %.3f exceeds bound %.3f", i+1, mean, bound)
		}
	}
	if avg := sum / count; avg > 1.6 {
		t.Errorf("overall mean iterations %.3f unexpectedly high", avg)
	}
}

func TestMotivatingExampleRR(t *testing.T) {
	// Figure 2(a): 5 racks x 6 nodes, 4 blocks, (5,4) code. Reproduce the
	// exact layout of the figure and confirm RR's two problems: every
	// encoder suffers a cross-rack download, and rack-level fault
	// tolerance cannot be met without relocation.
	top := mustTop(t, 5, 6)
	cfg := Config{Topology: top, K: 4, N: 5, C: 1}
	node := func(rack, idx int) topology.NodeID {
		return topology.NodeID(rack*6 + idx)
	}
	// Block 1 replicas in racks 1 and 2 (figure numbering is 1-based;
	// ours 0-based): blocks 2, 3, 4 all have a replica in rack 3 (ours 2).
	placements := []topology.Placement{
		{Block: 1, Nodes: []topology.NodeID{node(0, 0), node(1, 0), node(1, 1)}},
		{Block: 2, Nodes: []topology.NodeID{node(2, 0), node(1, 2), node(1, 3)}},
		{Block: 3, Nodes: []topology.NodeID{node(2, 1), node(3, 0), node(3, 1)}},
		{Block: 4, Nodes: []topology.NodeID{node(2, 2), node(1, 4), node(1, 5)}},
	}
	info := &StripeInfo{ID: 1, CoreRack: -1, Blocks: []topology.BlockID{1, 2, 3, 4}, Placements: placements}

	// No node anywhere reaches all four blocks within its rack; the best
	// encoders, in racks 1 and 2 (each covers 3 blocks), download one.
	for n := 0; n < top.Nodes(); n++ {
		dl, err := CrossRackDownloads(top, placements, topology.NodeID(n))
		if err != nil {
			t.Fatalf("CrossRackDownloads: %v", err)
		}
		if dl == 0 {
			t.Fatalf("node %d encodes without cross-rack downloads; figure says impossible", n)
		}
		if rack, _ := top.RackOf(topology.NodeID(n)); (rack == 1 || rack == 2) != (dl == 1) {
			t.Fatalf("node %d in rack %d downloads %d blocks across racks, want 1 exactly in racks 1 and 2", n, rack, dl)
		}
	}
	rng := rand.New(rand.NewSource(12))

	// The availability issue: blocks 1, 2, 4 replicas span only racks
	// {0,1,2}; keeping one replica each with c=1 is impossible over 3 racks
	// for... actually 3 blocks fit 3 racks; but block 3 must then use rack 3,
	// and with blocks 2,4 confined to racks 1,2 minus block 1's options the
	// matching exists or not depending on structure. The paper's figure
	// deletes specific replicas and shows rack 2 (ours 1) ends with two
	// blocks. Verify our planner instead finds whether any valid deletion
	// exists; with this layout it does not for c=1 over 5 blocks including
	// parity on rack 5: blocks 2 and 4 share racks {1, 2} with block 1
	// (racks {0, 1}), block 3 ({2, 3}): a system of distinct representatives
	// exists (1->0, 2->1, 3->3, 4->2), so no violation — matching saves RR
	// here, matching the paper's note that relocation is needed only for
	// specific deletion choices. Force the figure's naive deletion instead.
	plan, err := PlanPostEncoding(cfg, info, rng)
	if err != nil {
		t.Fatalf("PlanPostEncoding: %v", err)
	}
	if plan.Violation {
		t.Fatal("matching-based deletion should avoid relocation for this layout")
	}
	if err := plan.Layout(info.ID).Validate(top, 1); err != nil {
		t.Fatalf("layout invalid: %v", err)
	}
}

func TestMotivatingExampleRRViolation(t *testing.T) {
	// A layout where even optimal deletion cannot satisfy c=1: three blocks
	// whose replicas all live in the same two racks (the Section III-A
	// "availability violation" example with (4,3)).
	top := mustTop(t, 4, 6)
	cfg := Config{Topology: top, K: 3, N: 4, C: 1}
	node := func(rack, idx int) topology.NodeID {
		return topology.NodeID(rack*6 + idx)
	}
	placements := []topology.Placement{
		{Block: 1, Nodes: []topology.NodeID{node(0, 0), node(1, 0), node(1, 1)}},
		{Block: 2, Nodes: []topology.NodeID{node(0, 1), node(1, 2), node(1, 3)}},
		{Block: 3, Nodes: []topology.NodeID{node(0, 2), node(1, 4), node(1, 5)}},
	}
	info := &StripeInfo{ID: 2, CoreRack: -1, Blocks: []topology.BlockID{1, 2, 3}, Placements: placements}
	rng := rand.New(rand.NewSource(13))
	plan, err := PlanPostEncoding(cfg, info, rng)
	if err != nil {
		t.Fatalf("PlanPostEncoding: %v", err)
	}
	if !plan.Violation {
		t.Fatal("three blocks across two racks with c=1 must violate")
	}
	if len(plan.Relocated) == 0 {
		t.Fatal("violation without relocation plan")
	}
}

func TestCrossRackDownloadsErrors(t *testing.T) {
	top := mustTop(t, 2, 2)
	if _, err := CrossRackDownloads(top, nil, 99); err == nil {
		t.Error("bad encoder node: expected error")
	}
	bad := []topology.Placement{{Block: 1, Nodes: []topology.NodeID{77}}}
	if _, err := CrossRackDownloads(top, bad, 0); err == nil {
		t.Error("bad replica node: expected error")
	}
}

func TestGroupIntoStripes(t *testing.T) {
	blocks := []topology.BlockID{1, 2, 3, 4, 5}
	placements := map[topology.BlockID]topology.Placement{}
	for _, b := range blocks {
		placements[b] = topology.Placement{Block: b, Nodes: []topology.NodeID{0}}
	}
	stripes, err := GroupIntoStripes(2, blocks, placements, 10)
	if err != nil {
		t.Fatalf("GroupIntoStripes: %v", err)
	}
	if len(stripes) != 2 {
		t.Fatalf("got %d stripes, want 2 (block 5 left over)", len(stripes))
	}
	if stripes[0].ID != 10 || stripes[1].ID != 11 {
		t.Fatalf("stripe IDs = %d, %d", stripes[0].ID, stripes[1].ID)
	}
	if stripes[1].Blocks[0] != 3 {
		t.Fatalf("stripe 1 starts at block %d, want 3", stripes[1].Blocks[0])
	}
	if _, err := GroupIntoStripes(0, blocks, placements, 0); err == nil {
		t.Error("k=0: expected error")
	}
	delete(placements, 2)
	if _, err := GroupIntoStripes(2, blocks, placements, 0); err == nil {
		t.Error("missing placement: expected error")
	}
}

func TestRRFrequentlyNeedsCrossRackDownloads(t *testing.T) {
	// Section II-B analysis: under RR with k blocks over R racks, a random
	// encoder downloads ~ k - 2k/R blocks cross-rack. Sanity-check the
	// Monte-Carlo mean is near the closed form.
	cfg := baseConfig(t, 20, 20, 14, 10)
	rng := rand.New(rand.NewSource(14))
	p, err := NewRandom(cfg, rng)
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	total := 0.0
	const stripes = 200
	for s := 0; s < stripes; s++ {
		placements := make([]topology.Placement, 10)
		for i := range placements {
			pl, err := p.Place(topology.BlockID(s*10 + i))
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			placements[i] = pl
		}
		enc := RandomEncoderNode(cfg.Topology, rng)
		dl, err := CrossRackDownloads(cfg.Topology, placements, enc)
		if err != nil {
			t.Fatalf("CrossRackDownloads: %v", err)
		}
		total += float64(dl)
	}
	mean := total / stripes
	want := 10.0 - 2.0*10.0/20.0 // k - 2k/R = 9
	if mean < want-1.0 || mean > want+1.0 {
		t.Errorf("mean cross-rack downloads %.2f, analysis predicts %.2f", mean, want)
	}
}

func TestPlanPostEncodingValidation(t *testing.T) {
	cfg := baseConfig(t, 5, 6, 5, 4)
	rng := rand.New(rand.NewSource(15))
	if _, err := PlanPostEncoding(cfg, &StripeInfo{ID: 1}, rng); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty stripe: %v", err)
	}
	info := &StripeInfo{ID: 1, Blocks: []topology.BlockID{1}, Placements: []topology.Placement{{Block: 1, Nodes: []topology.NodeID{0}}}}
	if _, err := PlanPostEncoding(cfg, info, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil rng: %v", err)
	}
	bad := cfg
	bad.Topology = nil
	if _, err := PlanPostEncoding(bad, info, rng); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad config: %v", err)
	}
}
