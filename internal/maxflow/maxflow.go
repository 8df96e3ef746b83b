// Package maxflow provides a Dinic maximum-flow solver. The EAR placement
// algorithm (paper Section III-B) determines whether a replica layout admits
// a post-encoding block layout satisfying rack-level fault tolerance by
// solving a maximum-flow problem on a four-layer graph: source -> blocks ->
// nodes -> racks -> sink.
package maxflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidVertex indicates an edge endpoint outside the graph.
var ErrInvalidVertex = errors.New("maxflow: invalid vertex")

// Graph is a flow network on vertices 0..n-1 using adjacency lists with
// paired residual edges (the classic Dinic representation).
type Graph struct {
	n     int
	heads [][]int // heads[v] lists indices into edges
	edges []edge

	// scratch reused across MaxFlow/AugmentOne calls
	level  []int
	iter   []int
	queue  []int
	parent []int // incoming edge id per vertex during AugmentOne's BFS

	// undo journals capacity mutations while a checkpoint is outstanding so
	// Rollback can restore flow pushed since Checkpoint. recording counts
	// outstanding checkpoints.
	undo      []undoEntry
	recording int
}

type edge struct {
	to  int
	cap int64
	rev int // index of the reverse edge in heads[to]
}

// undoEntry records one edge's capacity before a mutation.
type undoEntry struct {
	id  int
	cap int64
}

// NewGraph returns an empty flow network with n vertices.
func NewGraph(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("maxflow: graph must have positive vertex count, got %d", n)
	}
	return &Graph{
		n:      n,
		heads:  make([][]int, n),
		level:  make([]int, n),
		iter:   make([]int, n),
		parent: make([]int, n),
	}, nil
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Reset empties the graph in place — no edges, no flow, no outstanding
// checkpoints — while keeping the vertex count and all allocated adjacency
// storage, so rebuilding a same-shaped network costs no allocations.
func (g *Graph) Reset() {
	for v := range g.heads {
		g.heads[v] = g.heads[v][:0]
	}
	g.edges = g.edges[:0]
	g.undo = g.undo[:0]
	g.recording = 0
}

// Checkpoint marks the current graph state — edge set and residual
// capacities — for a later Rollback. While at least one checkpoint is
// outstanding every capacity mutation is journaled (O(1) per push), so edges
// added and flow pushed since are undone without cloning the graph.
// Checkpoints nest LIFO: release each one with either Rollback or Commit.
func (g *Graph) Checkpoint() Checkpoint {
	g.recording++
	return Checkpoint{edges: len(g.edges), undoLen: len(g.undo)}
}

// Checkpoint is a restore point created by Graph.Checkpoint.
type Checkpoint struct {
	edges   int
	undoLen int
}

// Rollback restores the graph to the given checkpoint: flow pushed since the
// checkpoint is undone and edges added since are removed. Checkpoints must
// be released newest-first.
func (g *Graph) Rollback(ck Checkpoint) error {
	if g.recording <= 0 {
		return errors.New("maxflow: no outstanding checkpoint")
	}
	if ck.edges > len(g.edges) || ck.undoLen > len(g.undo) {
		return errors.New("maxflow: checkpoint released out of order")
	}
	// Undo capacity mutations newest-first. Entries touching edges beyond
	// ck.edges are redundant (the edges are truncated below) but harmless.
	for i := len(g.undo) - 1; i >= ck.undoLen; i-- {
		u := g.undo[i]
		if u.id < len(g.edges) {
			g.edges[u.id].cap = u.cap
		}
	}
	g.undo = g.undo[:ck.undoLen]
	// Drop appended edges. Edge ids were appended in order, so popping the
	// owner's adjacency list tail in reverse id order removes exactly them.
	for id := len(g.edges) - 1; id >= ck.edges; id-- {
		owner := g.edges[g.edges[id].rev].to
		g.heads[owner] = g.heads[owner][:len(g.heads[owner])-1]
	}
	g.edges = g.edges[:ck.edges]
	g.recording--
	return nil
}

// Commit releases the checkpoint keeping all changes made since. The undo
// journal is retained while outer checkpoints remain outstanding and cleared
// when the last one is released.
func (g *Graph) Commit(ck Checkpoint) error {
	return g.release(ck)
}

// release validates and retires one checkpoint level.
func (g *Graph) release(ck Checkpoint) error {
	if g.recording <= 0 {
		return errors.New("maxflow: no outstanding checkpoint")
	}
	if ck.edges > len(g.edges) || ck.undoLen > len(g.undo) {
		return errors.New("maxflow: checkpoint released out of order")
	}
	g.recording--
	if g.recording == 0 {
		g.undo = g.undo[:0]
	}
	return nil
}

// push moves d units of flow through edge id, journaling the prior
// capacities while a checkpoint is outstanding.
func (g *Graph) push(id int, d int64) {
	e := &g.edges[id]
	rev := &g.edges[e.rev]
	if g.recording > 0 {
		g.undo = append(g.undo, undoEntry{id: id, cap: e.cap}, undoEntry{id: e.rev, cap: rev.cap})
	}
	e.cap -= d
	rev.cap += d
}

// AugmentOne searches for a single s-t augmenting path in the residual graph
// (plain BFS, shortest path) and pushes its bottleneck flow, returning the
// amount pushed — 0 when s and t are disconnected in the residual graph.
// When at most one unit of additional flow is possible — a new block vertex
// hanging off the source by a unit-capacity edge of a stripe's flow graph —
// one call decides feasibility without re-running the full blocking-flow
// search.
func (g *Graph) AugmentOne(s, t int) (int64, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("%w: flow %d -> %d in graph of %d", ErrInvalidVertex, s, t, g.n)
	}
	if s == t {
		return 0, errors.New("maxflow: source equals sink")
	}
	for i := range g.parent {
		g.parent[i] = -1
	}
	g.queue = g.queue[:0]
	g.queue = append(g.queue, s)
	g.parent[s] = -2 // any non-(-1) sentinel: s is never relaxed again
	found := false
bfs:
	for qi := 0; qi < len(g.queue); qi++ {
		v := g.queue[qi]
		for _, id := range g.heads[v] {
			e := g.edges[id]
			if e.cap <= 0 || g.parent[e.to] != -1 {
				continue
			}
			g.parent[e.to] = id
			if e.to == t {
				found = true
				break bfs
			}
			g.queue = append(g.queue, e.to)
		}
	}
	if !found {
		return 0, nil
	}
	bottleneck := int64(math.MaxInt64)
	for v := t; v != s; {
		id := g.parent[v]
		bottleneck = min64(bottleneck, g.edges[id].cap)
		v = g.edges[g.edges[id].rev].to
	}
	for v := t; v != s; {
		id := g.parent[v]
		g.push(id, bottleneck)
		v = g.edges[g.edges[id].rev].to
	}
	return bottleneck, nil
}

// AddEdge adds a directed edge from -> to with the given capacity and
// returns an identifier usable with EdgeFlow.
func (g *Graph) AddEdge(from, to int, capacity int64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("%w: edge %d -> %d in graph of %d", ErrInvalidVertex, from, to, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("maxflow: negative capacity %d", capacity)
	}
	id := len(g.edges)
	g.heads[from] = append(g.heads[from], id)
	g.edges = append(g.edges, edge{to: to, cap: capacity, rev: id + 1})
	g.heads[to] = append(g.heads[to], id+1)
	g.edges = append(g.edges, edge{to: from, cap: 0, rev: id})
	return id, nil
}

// EdgeFlow returns the flow pushed through the edge with the given
// identifier after a MaxFlow call: the capacity accumulated on its reverse
// edge.
func (g *Graph) EdgeFlow(id int) (int64, error) {
	if id < 0 || id >= len(g.edges) || id%2 != 0 {
		return 0, fmt.Errorf("maxflow: invalid edge id %d", id)
	}
	return g.edges[id+1].cap, nil
}

// MaxFlow computes the maximum s-t flow with Dinic's algorithm. It may be
// called repeatedly after adding edges; flow accumulates across calls (each
// call returns only the additional flow pushed), which is how the
// post-encoding planner gives a withheld place back to the core rack without
// solving again from zero.
func (g *Graph) MaxFlow(s, t int) (int64, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("%w: flow %d -> %d in graph of %d", ErrInvalidVertex, s, t, g.n)
	}
	if s == t {
		return 0, errors.New("maxflow: source equals sink")
	}
	var flow int64
	for g.bfs(s, t) {
		// Clear the reusable iterator scratch in place; allocating a fresh
		// zero slice per blocking-flow phase defeated the scratch reuse.
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, math.MaxInt64)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow, nil
}

// bfs builds the level graph; returns false when t is unreachable.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.queue = g.queue[:0]
	g.level[s] = 0
	g.queue = append(g.queue, s)
	for qi := 0; qi < len(g.queue); qi++ {
		v := g.queue[qi]
		for _, id := range g.heads[v] {
			e := g.edges[id]
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[v] + 1
				g.queue = append(g.queue, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

// dfs finds one blocking-flow augmenting path in the level graph.
func (g *Graph) dfs(v, t int, f int64) int64 {
	if v == t {
		return f
	}
	for ; g.iter[v] < len(g.heads[v]); g.iter[v]++ {
		id := g.heads[v][g.iter[v]]
		e := &g.edges[id]
		if e.cap <= 0 || g.level[e.to] != g.level[v]+1 {
			continue
		}
		d := g.dfs(e.to, t, min64(f, e.cap))
		if d > 0 {
			g.push(id, d)
			return d
		}
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
