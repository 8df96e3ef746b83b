package hdfs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ear/internal/placement"
	"ear/internal/topology"
)

// testPlacementConfig mirrors testConfig's geometry at the placement layer.
func testPlacementConfig(t *testing.T) placement.Config {
	t.Helper()
	top, err := topology.New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	return placement.Config{Topology: top, Replicas: 3, K: 4, N: 6, C: 1}
}

// encodedStripeFixture builds a sharded EAR NameNode with at least one
// encoded stripe and returns it with the stripe's ID.
func encodedStripeFixture(t *testing.T) (*NameNode, topology.StripeID) {
	t.Helper()
	nn, err := NewShardedNameNode(testPlacementConfig(t), "ear", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		meta, err := nn.AllocateBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.CommitBlock(meta.ID); err != nil {
			t.Fatal(err)
		}
	}
	nn.FlushOpenStripes()
	infos, err := nn.TakePendingStripes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no stripes sealed")
	}
	info := infos[0]
	plan, err := nn.PlanStripe(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.CommitEncoding(info.ID, plan); err != nil {
		t.Fatal(err)
	}
	return nn, info.ID
}

// TestStripeSnapshotRace is the regression test for the data race Stripe
// used to have: it returned the live *StripeMeta while UpdateParityLocation
// mutated Plan.Parity under the NameNode lock, so callers iterating Parity
// raced the mover. With Stripe returning a deep copy, this passes -race.
func TestStripeSnapshotRace(t *testing.T) {
	nn, id := encodedStripeFixture(t)
	sm, err := nn.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Plan == nil || len(sm.Plan.Parity) == 0 {
		t.Fatal("fixture stripe has no parity plan")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				if rng.Intn(2) == 0 {
					node := topology.NodeID(rng.Intn(nn.cfg.Topology.Nodes()))
					if err := nn.UpdateParityLocation(id, rng.Intn(len(sm.Plan.Parity)), node); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				snap, err := nn.Stripe(id)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range snap.Plan.Parity {
					_ = n
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// The snapshot taken before the writers ran is still intact: deep copy
	// means later UpdateParityLocation calls cannot reach it.
	again, err := nn.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	again.Plan.Parity[0] = -99
	check, err := nn.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	if check.Plan.Parity[0] == -99 {
		t.Error("mutating a returned snapshot leaked into NameNode state")
	}
}

// TestConcurrentAllocateBlockGeometry hammers the sharded allocation path
// from many goroutines (run under -race in CI) and then checks every sealed
// stripe kept valid EAR geometry: replica counts, distinct nodes, first
// replica in the stripe's core rack, and block-table consistency.
func TestConcurrentAllocateBlockGeometry(t *testing.T) {
	cfg := testPlacementConfig(t)
	nn, err := NewShardedNameNode(cfg, "ear", 11, false)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	ids := make([][]topology.BlockID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				meta, err := nn.AllocateBlock(1)
				if err != nil {
					t.Error(err)
					return
				}
				if err := nn.CommitBlock(meta.ID); err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], meta.ID)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := nn.BlockCount(); got != goroutines*perG {
		t.Fatalf("BlockCount = %d, want %d", got, goroutines*perG)
	}
	// Every ID allocated exactly once.
	seen := make(map[topology.BlockID]bool, goroutines*perG)
	for _, chunk := range ids {
		for _, id := range chunk {
			if seen[id] {
				t.Fatalf("block ID %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	nn.FlushOpenStripes()
	infos, err := nn.TakePendingStripes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no stripes sealed")
	}
	for _, info := range infos {
		if len(info.Blocks) != len(info.Placements) {
			t.Fatalf("stripe %d: %d blocks vs %d placements", info.ID, len(info.Blocks), len(info.Placements))
		}
		if len(info.Blocks) > cfg.K {
			t.Fatalf("stripe %d holds %d blocks, max k=%d", info.ID, len(info.Blocks), cfg.K)
		}
		for i, pl := range info.Placements {
			if len(pl.Nodes) != cfg.Replicas {
				t.Fatalf("stripe %d block %d: %d replicas", info.ID, pl.Block, len(pl.Nodes))
			}
			distinct := map[topology.NodeID]bool{}
			for _, n := range pl.Nodes {
				if distinct[n] {
					t.Fatalf("stripe %d block %d: duplicate node %d", info.ID, pl.Block, n)
				}
				distinct[n] = true
			}
			r, err := cfg.Topology.RackOf(pl.Nodes[0])
			if err != nil {
				t.Fatal(err)
			}
			if r != info.CoreRack {
				t.Fatalf("stripe %d block %d: first replica in rack %d, core rack %d",
					info.ID, info.Blocks[i], r, info.CoreRack)
			}
			meta, err := nn.Block(pl.Block)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Stripe != info.ID {
				t.Fatalf("block %d records stripe %d, grouped into %d", pl.Block, meta.Stripe, info.ID)
			}
		}
		// The sealed stripe still passes the paper's feasibility check.
		plan, err := nn.PlanStripe(info)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Violation {
			t.Fatalf("stripe %d sealed with infeasible layout", info.ID)
		}
	}
}

// TestConcurrentWritesAuditorClean drives the full client write path from
// many goroutines on an EAR cluster with the live auditor attached; the run
// must end with zero invariant violations, transient or ongoing.
func TestConcurrentWritesAuditorClean(t *testing.T) {
	c := newTestCluster(t, "ear")
	_, a := attachAuditor(c)
	const goroutines = 6
	const perG = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				data := make([]byte, c.Config().BlockSizeBytes)
				rng.Read(data)
				client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
				if _, err := c.WriteBlock(client, data); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	encodeAll(t, c)
	r := a.Report()
	if !r.Clean {
		t.Fatalf("concurrent EAR writes not auditor-clean: ongoing=%+v transient=%+v",
			r.Ongoing, r.Transient)
	}
}

// TestCoreRackSequenceSeeded: the core racks of allocations no writer is
// known for come from a sequence the constructor's seed starts, so two seeds
// differ and one seed repeats.
func TestCoreRackSequenceSeeded(t *testing.T) {
	cfg := testPlacementConfig(t)
	cores := func(seed int64) []topology.RackID {
		nn, err := NewShardedNameNode(cfg, "ear", seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []topology.RackID
		for i := 0; i < 32; i++ {
			meta, err := nn.AllocateBlock(1024)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cfg.Topology.RackOf(meta.Nodes[0])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	a, again, b := cores(3), cores(3), cores(4)
	if !slices.Equal(a, again) {
		t.Errorf("seed 3 drew core racks %v, then %v", a, again)
	}
	if slices.Equal(a, b) {
		t.Errorf("seeds 3 and 4 drew the same core racks %v", a)
	}
}

// TestEncodedStripesSorted encodes stripes out of order and checks the
// listing comes back in ascending stripe-ID order, not map order.
func TestEncodedStripesSorted(t *testing.T) {
	nn, err := NewShardedNameNode(testPlacementConfig(t), "ear", 13, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		meta, err := nn.AllocateBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.CommitBlock(meta.ID); err != nil {
			t.Fatal(err)
		}
	}
	nn.FlushOpenStripes()
	infos, err := nn.TakePendingStripes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 3 {
		t.Fatalf("only %d stripes sealed, want >= 3", len(infos))
	}
	// Encode in scrambled order.
	order := rand.New(rand.NewSource(17)).Perm(len(infos))
	for _, i := range order {
		plan, err := nn.PlanStripe(infos[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.CommitEncoding(infos[i].ID, plan); err != nil {
			t.Fatal(err)
		}
	}
	got := nn.EncodedStripes()
	if len(got) != len(infos) {
		t.Fatalf("EncodedStripes lists %d stripes, want %d", len(got), len(infos))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("EncodedStripes out of order: %v", got)
		}
	}
}
