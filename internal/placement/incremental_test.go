package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ear/internal/topology"
)

// TestPropertyIncrementalMatchesFullRecompute is the equivalence property at
// the policy level: an EAR instance using the rollback-based incremental flow
// and one rebuilding the graph from scratch for every candidate must make
// bit-identical decisions. Both consume the rng only for layout generation,
// so identical accept/reject sequences yield identical placements AND
// identical per-block iteration counts. The writer each block is placed from
// (none for about one block in a stripe) is one more input to both.
func TestPropertyIncrementalMatchesFullRecompute(t *testing.T) {
	f := func(seed int64) bool {
		cfgRng := rand.New(rand.NewSource(seed))
		cfg := randomValidConfig(t, cfgRng)
		inc, err := NewEAR(cfg, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Logf("seed %d: NewEAR: %v", seed, err)
			return false
		}
		rec, err := NewEAR(cfg, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Logf("seed %d: NewEAR full: %v", seed, err)
			return false
		}
		rec.fullRecompute = true
		writers := rand.New(rand.NewSource(seed + 2))
		for b := 0; b < 4*cfg.K; b++ {
			writer := topology.NodeID(writers.Intn(cfg.Topology.Nodes()))
			if writers.Intn(cfg.K) == 0 {
				writer = NoWriter
			}
			pi, errI := inc.PlaceFrom(topology.BlockID(b), writer)
			pf, errF := rec.PlaceFrom(topology.BlockID(b), writer)
			if (errI == nil) != (errF == nil) {
				t.Logf("seed %d block %d: err mismatch %v vs %v", seed, b, errI, errF)
				return false
			}
			if errI != nil {
				continue
			}
			if !reflect.DeepEqual(pi, pf) {
				t.Logf("seed %d block %d: placement %v vs %v", seed, b, pi, pf)
				return false
			}
			if inc.LastPlaceAttempts() != rec.LastPlaceAttempts() {
				t.Logf("seed %d block %d: attempts %d vs %d",
					seed, b, inc.LastPlaceAttempts(), rec.LastPlaceAttempts())
				return false
			}
			si, sf := inc.TakeSealed(), rec.TakeSealed()
			if !reflect.DeepEqual(si, sf) {
				t.Logf("seed %d block %d: sealed stripes diverge", seed, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTryAddMatchesFromScratch drives one stripeFlow through a
// random candidate stream and checks every tryAdd verdict against a flow
// graph rebuilt from scratch over the same layouts — the incremental
// accept/reject decision must match exactly, including after rollbacks (a
// rollback that left residue in the graph or vertex maps would diverge on a
// later candidate).
func TestPropertyTryAddMatchesFromScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomValidConfig(t, rng)
		core := topology.RackID(rng.Intn(cfg.Topology.Racks()))
		info := &StripeInfo{ID: 7, CoreRack: core}
		fl, err := newStripeFlow(cfg, info)
		if err != nil {
			return false
		}
		remote := allRacks(cfg.Topology)
		var accepted [][]topology.NodeID
		for trial := 0; trial < 60 && len(accepted) < cfg.K; trial++ {
			cand, err := randomLayout(cfg, core, remote, rng)
			if err != nil {
				t.Logf("seed %d: layout: %v", seed, err)
				return false
			}
			layouts := append(append([][]topology.NodeID(nil), accepted...), cand)
			flow, err := solveStripeFlow(cfg, info, layouts, 0)
			if err != nil {
				t.Logf("seed %d: solve: %v", seed, err)
				return false
			}
			want := flow == int64(len(layouts))
			got, err := fl.tryAdd(cand)
			if err != nil {
				t.Logf("seed %d: tryAdd: %v", seed, err)
				return false
			}
			if got != want {
				t.Logf("seed %d trial %d: tryAdd=%v, from-scratch=%v (cand %v after %d accepted)",
					seed, trial, got, want, cand, len(accepted))
				return false
			}
			if got {
				accepted = append(accepted, cand)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// rejectionFixture builds a stripe flow holding two accepted blocks that
// saturate racks 0 and 1 (c=1), plus a candidate confined to those same two
// racks — guaranteed rejected, forever, since rollback restores the state.
func rejectionFixture(t *testing.T) (*stripeFlow, []topology.NodeID) {
	t.Helper()
	top, err := topology.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: top, Replicas: 2, K: 3, N: 4, C: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	info := &StripeInfo{ID: 1, CoreRack: 0}
	fl, err := newStripeFlow(cfg, info)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range [][]topology.NodeID{{0, 4}, {1, 5}} {
		ok, err := fl.tryAdd(layout)
		if err != nil || !ok {
			t.Fatalf("fixture layout %v: ok=%v err=%v", layout, ok, err)
		}
	}
	return fl, []topology.NodeID{2, 6} // racks {0,1}: both saturated
}

// TestTryAddRejectedCandidateAllocatesNothing is the zero-clone guarantee:
// once the scratch buffers are warm, a rejected candidate costs zero heap
// allocations — no graph clone, no map copies, nothing.
func TestTryAddRejectedCandidateAllocatesNothing(t *testing.T) {
	fl, cand := rejectionFixture(t)
	allocs := testing.AllocsPerRun(200, func() {
		ok, err := fl.tryAdd(cand)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("candidate unexpectedly accepted")
		}
	})
	if allocs != 0 {
		t.Errorf("rejected tryAdd allocates %.1f objects per run, want 0", allocs)
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

// TestTryAddRollbackKeepsMatchingReadable verifies the post-encoding reader
// still works after interleaved rejections: accepted blocks' edges stay
// addressable and the matching covers every block.
func TestTryAddRollbackKeepsMatchingReadable(t *testing.T) {
	fl, cand := rejectionFixture(t)
	for i := 0; i < 5; i++ {
		if ok, err := fl.tryAdd(cand); err != nil || ok {
			t.Fatalf("rejection run %d: ok=%v err=%v", i, ok, err)
		}
	}
	// A third block over fresh racks is still accepted after the rejections.
	if ok, err := fl.tryAdd([]topology.NodeID{3, 8}); err != nil || !ok {
		t.Fatalf("accepting third block: ok=%v err=%v", ok, err)
	}
	match, err := fl.matching()
	if err != nil {
		t.Fatal(err)
	}
	if len(match) != 3 {
		t.Fatalf("matching covers %d blocks, want 3", len(match))
	}
	seen := map[topology.NodeID]bool{}
	for i, n := range match {
		if n < 0 {
			t.Errorf("block %d unmatched after accepted adds", i)
		}
		if seen[n] {
			t.Errorf("node %d matched twice", n)
		}
		seen[n] = true
	}
}
