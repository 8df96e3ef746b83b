package maxflow

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Error("NewGraph(0): expected error")
	}
	if _, err := NewGraph(-2); err == nil {
		t.Error("NewGraph(-2): expected error")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g, _ := NewGraph(3)
	if _, err := g.AddEdge(0, 5, 1); !errors.Is(err, ErrInvalidVertex) {
		t.Errorf("bad to vertex: error = %v", err)
	}
	if _, err := g.AddEdge(-1, 0, 1); !errors.Is(err, ErrInvalidVertex) {
		t.Errorf("bad from vertex: error = %v", err)
	}
	if _, err := g.AddEdge(0, 1, -3); err == nil {
		t.Error("negative capacity: expected error")
	}
}

func TestMaxFlowSimplePath(t *testing.T) {
	g, _ := NewGraph(3)
	if _, err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	f, err := g.MaxFlow(0, 2)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if f != 3 {
		t.Fatalf("MaxFlow = %d, want 3 (bottleneck)", f)
	}
}

func TestMaxFlowClassicNetwork(t *testing.T) {
	// CLRS-style example with known max flow 23.
	g, _ := NewGraph(6)
	edges := []struct {
		u, v int
		c    int64
	}{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4},
		{1, 3, 12}, {3, 2, 9}, {2, 4, 14}, {4, 3, 7},
		{3, 5, 20}, {4, 5, 4},
	}
	for _, e := range edges {
		if _, err := g.AddEdge(e.u, e.v, e.c); err != nil {
			t.Fatal(err)
		}
	}
	f, err := g.MaxFlow(0, 5)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if f != 23 {
		t.Fatalf("MaxFlow = %d, want 23", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g, _ := NewGraph(4)
	if _, err := g.AddEdge(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	f, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if f != 0 {
		t.Fatalf("MaxFlow disconnected = %d, want 0", f)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g, _ := NewGraph(2)
	if _, err := g.MaxFlow(0, 0); err == nil {
		t.Error("source == sink: expected error")
	}
	if _, err := g.MaxFlow(0, 5); !errors.Is(err, ErrInvalidVertex) {
		t.Errorf("bad sink: error = %v", err)
	}
}

func TestMaxFlowIncremental(t *testing.T) {
	// The EAR algorithm adds one block's edges at a time and re-solves; each
	// call must return only the additional flow.
	g, _ := NewGraph(4)
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	f1, err := g.MaxFlow(0, 3)
	if err != nil || f1 != 1 {
		t.Fatalf("first MaxFlow = (%d, %v), want (1, nil)", f1, err)
	}
	if _, err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	f2, err := g.MaxFlow(0, 3)
	if err != nil || f2 != 1 {
		t.Fatalf("incremental MaxFlow = (%d, %v), want (1, nil)", f2, err)
	}
}

func TestEdgeFlow(t *testing.T) {
	g, _ := NewGraph(3)
	id1, _ := g.AddEdge(0, 1, 4)
	id2, _ := g.AddEdge(1, 2, 2)
	if _, err := g.MaxFlow(0, 2); err != nil {
		t.Fatal(err)
	}
	f1, err := g.EdgeFlow(id1)
	if err != nil || f1 != 2 {
		t.Fatalf("EdgeFlow(id1) = (%d, %v), want (2, nil)", f1, err)
	}
	f2, err := g.EdgeFlow(id2)
	if err != nil || f2 != 2 {
		t.Fatalf("EdgeFlow(id2) = (%d, %v), want (2, nil)", f2, err)
	}
	if _, err := g.EdgeFlow(id1 + 1); err == nil {
		t.Error("odd edge id (reverse edge): expected error")
	}
	if _, err := g.EdgeFlow(9999); err == nil {
		t.Error("out-of-range edge id: expected error")
	}
}

// matchingFlow is the maximum flow of the unit-capacity network source ->
// left -> right -> sink that adj describes: the size of a maximum matching.
func matchingFlow(left, right int, adj [][]int) (int64, error) {
	s, t := 0, left+right+1
	g, err := NewGraph(left + right + 2)
	if err != nil {
		return 0, err
	}
	for l := 0; l < left; l++ {
		if _, err := g.AddEdge(s, 1+l, 1); err != nil {
			return 0, err
		}
		for _, r := range adj[l] {
			if _, err := g.AddEdge(1+l, 1+left+r, 1); err != nil {
				return 0, err
			}
		}
	}
	for r := 0; r < right; r++ {
		if _, err := g.AddEdge(1+left+r, t, 1); err != nil {
			return 0, err
		}
	}
	return g.MaxFlow(s, t)
}

// hungarianSize computes maximum bipartite matching by augmenting paths, an
// independent oracle for the property test.
func hungarianSize(left, right int, adj [][]int) int {
	matchR := make([]int, right)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range adj[l] {
			if seen[r] {
				continue
			}
			seen[r] = true
			if matchR[r] < 0 || try(matchR[r], seen) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := 0; l < left; l++ {
		if try(l, make([]bool, right)) {
			size++
		}
	}
	return size
}

func TestPropertyMatchingAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left := 1 + rng.Intn(8)
		right := 1 + rng.Intn(8)
		adj := make([][]int, left)
		for l := range adj {
			for r := 0; r < right; r++ {
				if rng.Intn(3) == 0 {
					adj[l] = append(adj[l], r)
				}
			}
		}
		size, err := matchingFlow(left, right, adj)
		if err != nil {
			return false
		}
		return size == int64(hungarianSize(left, right, adj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFlowConservation(t *testing.T) {
	// Max flow on a random DAG must not exceed the total capacity out of the
	// source or into the sink, and repeated MaxFlow calls with no new edges
	// must return 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g, err := NewGraph(n)
		if err != nil {
			return false
		}
		var srcCap, sinkCap int64
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					c := int64(rng.Intn(10))
					if _, err := g.AddEdge(u, v, c); err != nil {
						return false
					}
					if u == 0 {
						srcCap += c
					}
					if v == n-1 {
						sinkCap += c
					}
				}
			}
		}
		flow, err := g.MaxFlow(0, n-1)
		if err != nil {
			return false
		}
		if flow > srcCap || flow > sinkCap {
			return false
		}
		again, err := g.MaxFlow(0, n-1)
		return err == nil && again == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// snapshotFlows captures the flow on every forward edge of the graph.
func snapshotFlows(t *testing.T, g *Graph) []int64 {
	t.Helper()
	var out []int64
	for id := 0; ; id += 2 {
		f, err := g.EdgeFlow(id)
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

func TestCheckpointRollbackRestoresFlowAndEdges(t *testing.T) {
	g, err := NewGraph(6)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> {1,2} -> {3,4} -> 5 with unit capacities: max flow 2.
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 5}} {
		if _, err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := g.MaxFlow(0, 5); err != nil || f != 2 {
		t.Fatalf("MaxFlow = %d, %v; want 2", f, err)
	}
	before := snapshotFlows(t, g)

	ck := g.Checkpoint()
	// Tentatively wire in a new path 0 -> 1 ... 1 -> 5 and push flow.
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 5, 1); err != nil {
		t.Fatal(err)
	}
	if gain, err := g.AugmentOne(0, 5); err != nil || gain != 1 {
		t.Fatalf("AugmentOne = %d, %v; want 1", gain, err)
	}
	if err := g.Rollback(ck); err != nil {
		t.Fatal(err)
	}

	after := snapshotFlows(t, g)
	if len(after) != len(before) {
		t.Fatalf("edge count after rollback = %d, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("edge %d flow = %d after rollback, want %d", 2*i, after[i], before[i])
		}
	}
	// The rolled-back graph is fully functional: no extra flow possible, and
	// new edges can still be added and committed.
	if f, err := g.MaxFlow(0, 5); err != nil || f != 0 {
		t.Fatalf("MaxFlow after rollback = %d, %v; want 0", f, err)
	}
	ck2 := g.Checkpoint()
	if _, err := g.AddEdge(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if gain, err := g.AugmentOne(0, 5); err != nil || gain != 0 {
		t.Fatalf("AugmentOne over saturated sink edges = %d, %v; want 0", gain, err)
	}
	if err := g.Commit(ck2); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(ck2); err == nil {
		t.Fatal("double release of checkpoint not rejected")
	}
}

func TestCheckpointNestingLIFO(t *testing.T) {
	g, err := NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	id, err := g.AddEdge(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	outer := g.Checkpoint()
	if gain, err := g.AugmentOne(0, 2); err != nil || gain != 2 {
		t.Fatalf("AugmentOne = %d, %v; want 2", gain, err)
	}
	inner := g.Checkpoint()
	if _, err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if gain, err := g.AugmentOne(0, 2); err != nil || gain != 1 {
		t.Fatalf("AugmentOne = %d, %v; want 1", gain, err)
	}
	if err := g.Commit(inner); err != nil {
		t.Fatal(err)
	}
	// Rolling back the outer checkpoint undoes the inner committed changes
	// too: LIFO nesting, commit only pins changes relative to inner scopes.
	if err := g.Rollback(outer); err != nil {
		t.Fatal(err)
	}
	if f, err := g.EdgeFlow(id); err != nil || f != 0 {
		t.Fatalf("edge flow after outer rollback = %d, %v; want 0", f, err)
	}
	if f, err := g.MaxFlow(0, 2); err != nil || f != 2 {
		t.Fatalf("MaxFlow after outer rollback = %d, %v; want 2", f, err)
	}
}

// TestAugmentOneMatchesMaxFlowIncrement grows a random bipartite-ish graph
// edge by edge and checks, at every step, that repeated AugmentOne calls push
// the same additional flow as one MaxFlow call, which a checkpoint then undoes.
func TestAugmentOneMatchesMaxFlowIncrement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(10)
		g, err := NewGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			from, to := rng.Intn(n-1), 1+rng.Intn(n-1)
			if from == to {
				continue
			}
			if _, err := g.AddEdge(from, to, int64(1+rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
			ck := g.Checkpoint()
			want, err := g.MaxFlow(0, n-1)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Rollback(ck); err != nil {
				t.Fatal(err)
			}
			var got int64
			for {
				gain, err := g.AugmentOne(0, n-1)
				if err != nil {
					t.Fatal(err)
				}
				if gain == 0 {
					break
				}
				got += gain
			}
			if got != want {
				t.Fatalf("trial %d step %d: AugmentOne total gain %d, MaxFlow gain %d", trial, step, got, want)
			}
		}
	}
}

// TestMaxFlowScratchReuse verifies repeated solves on a warm graph allocate
// nothing: the level/iter/queue scratch is cleared in place, not reallocated.
func TestMaxFlowScratchReuse(t *testing.T) {
	g, err := NewGraph(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := g.AddEdge(i, i+1, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.MaxFlow(0, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.MaxFlow(0, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MaxFlow on a warm graph allocates %.1f times per run, want 0", allocs)
	}
	ck := g.Checkpoint()
	defer g.Rollback(ck)
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := g.AugmentOne(0, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AugmentOne on a warm graph allocates %.1f times per run, want 0", allocs)
	}
}

func TestRollbackWithoutCheckpointErrors(t *testing.T) {
	g, err := NewGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Rollback(Checkpoint{}); err == nil {
		t.Error("Rollback with no outstanding checkpoint not rejected")
	}
	if err := g.Commit(Checkpoint{}); err == nil {
		t.Error("Commit with no outstanding checkpoint not rejected")
	}
}
