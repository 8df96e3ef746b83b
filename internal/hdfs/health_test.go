package hdfs

import (
	"context"
	"testing"

	"ear/internal/events"
	"ear/internal/topology"
)

// newHealthCluster builds a journaled cluster plus a monitor subscribed to
// it, which the tests drive through Tick directly (no background loop).
func newHealthCluster(t *testing.T) (*Cluster, *events.Journal, *HealthMonitor) {
	t.Helper()
	c := newTestCluster(t, "rr")
	jnl := events.NewJournal(4096)
	c.SetJournal(jnl)
	h := NewHealthMonitor(c)
	t.Cleanup(jnl.Subscribe(h.Observe))
	return c, jnl, h
}

// tickUntil runs scoring rounds until pred holds, failing after maxTicks.
func tickUntil(t *testing.T, h *HealthMonitor, maxTicks int, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		h.Tick(context.Background())
		if pred() {
			return
		}
	}
	t.Fatalf("%s: condition not reached within %d ticks", what, maxTicks)
}

func isDegraded(h *HealthMonitor, n topology.NodeID) bool {
	for _, d := range h.Degraded() {
		if d == n {
			return true
		}
	}
	return false
}

func TestHealthAllNodesHealthyAtRest(t *testing.T) {
	_, _, h := newHealthCluster(t)
	h.Tick(context.Background())
	h.Tick(context.Background())
	rep := h.Report()
	for _, nh := range rep {
		if nh.Degraded {
			t.Errorf("node %d degraded in an idle healthy cluster (score %.1f)", nh.Node, nh.Score)
		}
		if nh.Score < 50 {
			t.Errorf("node %d score %.1f < 50 in a healthy cluster", nh.Node, nh.Score)
		}
		if nh.Heartbeat <= 0 {
			t.Errorf("node %d never probed", nh.Node)
		}
	}
	if got := h.Degraded(); len(got) != 0 {
		t.Errorf("Degraded() = %v, want empty", got)
	}
}

func TestHealthSlowNodeDegradesAndRecovers(t *testing.T) {
	c, jnl, h := newHealthCluster(t)
	slow := topology.NodeID(4)

	// Prime: healthy baseline.
	h.Tick(context.Background())
	h.Tick(context.Background())
	if isDegraded(h, slow) {
		t.Fatalf("node %d degraded before being slowed", slow)
	}

	// Throttle the node's links to ~1/4000th of the cluster default: its
	// heartbeat probes and every transfer it takes part in crawl.
	orig, err := c.Fabric().NodeRate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric().SetNodeRate(slow, 16<<10); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, h, 5, "degrade", func() bool { return isDegraded(h, slow) })

	evs, _, _ := jnl.Since(0, 0, events.Filter{Type: events.NodeDegraded})
	found := false
	for _, e := range evs {
		if e.Node == slow {
			found = true
			if e.Subsystem != "health" {
				t.Errorf("NodeDegraded subsystem = %q, want health", e.Subsystem)
			}
			if e.Detail == "" {
				t.Error("NodeDegraded carries no score breakdown")
			}
		} else {
			t.Errorf("unexpected NodeDegraded for node %d", e.Node)
		}
	}
	if !found {
		t.Fatalf("no NodeDegraded event for node %d", slow)
	}
	if rep := h.Report(); rep[slow].Score >= 50 {
		t.Errorf("slowed node score = %.1f, want < 50", rep[slow].Score)
	}

	// Restore the link and confirm hysteresis releases the node.
	if err := c.Fabric().SetNodeRate(slow, orig); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, h, 10, "recover", func() bool { return !isDegraded(h, slow) })
	recEvs, _, _ := jnl.Since(0, 0, events.Filter{Type: events.NodeRecovered})
	found = false
	for _, e := range recEvs {
		if e.Node == slow {
			found = true
		}
	}
	if !found {
		t.Fatalf("no NodeRecovered event for node %d", slow)
	}
}

func TestHealthHealthyNeighborsStayHealthy(t *testing.T) {
	c, _, h := newHealthCluster(t)
	slow := topology.NodeID(0)
	h.Tick(context.Background())
	if err := c.Fabric().SetNodeRate(slow, 16<<10); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, h, 5, "degrade", func() bool { return isDegraded(h, slow) })
	// The slow node's rack peers exchange probes with it, yet their own
	// links are fine: they must not be dragged below the threshold.
	if got := h.Degraded(); len(got) != 1 || got[0] != slow {
		t.Errorf("Degraded() = %v, want exactly [%d]", got, slow)
	}
}

func TestHealthDeadNodesSkipped(t *testing.T) {
	c, jnl, h := newHealthCluster(t)
	deadNode := topology.NodeID(2)
	c.NameNode().MarkDead(deadNode)
	h.Tick(context.Background())
	h.Tick(context.Background())
	rep := h.Report()
	if !rep[deadNode].Dead {
		t.Errorf("node %d not reported dead", deadNode)
	}
	if rep[deadNode].Score != 0 {
		t.Errorf("dead node score = %.1f, want 0", rep[deadNode].Score)
	}
	// Death is the NameNode's call (NodeDead), not the slow-node
	// detector's: no NodeDegraded may fire for a dead node.
	evs, _, _ := jnl.Since(0, 0, events.Filter{Type: events.NodeDegraded})
	for _, e := range evs {
		if e.Node == deadNode {
			t.Errorf("NodeDegraded fired for dead node %d", deadNode)
		}
	}
	// NodeDead transitions do feed the failure signal of the node once it
	// returns: failures decay but start positive.
	if rep[deadNode].Failures <= 0 {
		t.Errorf("dead node failures = %v, want > 0", rep[deadNode].Failures)
	}
}
