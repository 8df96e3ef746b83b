package layout

import (
	"reflect"
	"testing"

	"ear/internal/events"
	"ear/internal/topology"
)

// The tests drive Engine.Observe with hand-built event sequences on a
// cluster of 4 racks x 3 nodes (node n is in rack n/3) holding one stripe,
// stripe 0 = blocks 0 and 1 of 100 bytes each, r = 2, c = 1, core rack 0.

func testRules(t *testing.T, liveOnly bool) Rules {
	t.Helper()
	top, err := topology.New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Rules{Replicas: 2, Top: top, C: 1, CheckCoreRack: true, LiveOnly: liveOnly}
}

func ev(typ events.Type, fill func(*events.Event)) events.Event {
	e := events.New(typ, "test")
	if fill != nil {
		fill(&e)
	}
	return e
}

func onBlock(typ events.Type, b topology.BlockID, n topology.NodeID) events.Event {
	return ev(typ, func(e *events.Event) { e.Block, e.Node = b, n })
}

func relocated(b topology.BlockID, from, to topology.NodeID) events.Event {
	return ev(events.ReplicaRelocated, func(e *events.Event) { e.Block, e.Node, e.Peer = b, from, to })
}

func parityRelocated(s topology.StripeID, from, to topology.NodeID) events.Event {
	return ev(events.ReplicaRelocated, func(e *events.Event) { e.Stripe, e.Node, e.Peer, e.Detail = s, from, to, "parity" })
}

func onNode(typ events.Type, n topology.NodeID) events.Event {
	return ev(typ, func(e *events.Event) { e.Node = n })
}

// written is blocks 0 and 1 committed with a replica at home (nodes 0 and 1,
// rack 0) and one in rack 1 and rack 2, grouped into stripe 0: five events,
// no invariant broken.
func written() []events.Event {
	var seq []events.Event
	for b, nodes := range [][]topology.NodeID{{0, 3}, {1, 6}} {
		id := topology.BlockID(b)
		seq = append(seq,
			ev(events.BlockAllocated, func(e *events.Event) { e.Block, e.Nodes, e.Bytes = id, nodes, 100 }),
			ev(events.BlockCommitted, func(e *events.Event) { e.Block, e.Nodes = id, nodes }))
	}
	return append(seq, ev(events.StripeGrouped, func(e *events.Event) {
		e.Stripe, e.Rack, e.Blocks = 0, 0, []topology.BlockID{0, 1}
	}))
}

// encoded is written() taken through an encode that keeps block 0 on node 3
// (rack 1) and block 1 on node 6 (rack 2) and puts the parity on node 9 (rack
// 3): nine events, no invariant broken.
func encoded() []events.Event {
	return append(written(),
		ev(events.StripeEncodeStarted, func(e *events.Event) { e.Stripe = 0 }),
		onBlock(events.ReplicaDeleted, 0, 0),
		onBlock(events.ReplicaDeleted, 1, 1),
		ev(events.StripeEncoded, func(e *events.Event) { e.Stripe, e.Nodes = 0, []topology.NodeID{9} }))
}

// observe feeds seq to g, numbering the events from the engine's next
// sequence number, and checks after every event that Open agrees with the
// ledger. It returns how many windows were open after each event.
func observe(t *testing.T, g *Engine, from uint64, seq []events.Event) []int {
	t.Helper()
	open := make([]int, len(seq))
	for i, e := range seq {
		e.Seq = from + uint64(i)
		g.Observe(e)
		ongoing := 0
		for _, w := range g.Windows {
			if !w.Transient() {
				ongoing++
				if w.LastSeq != e.Seq {
					t.Errorf("after seq %d the open %s window was last extended at seq %d", e.Seq, w.Invariant, w.LastSeq)
				}
			}
		}
		if g.Open() != ongoing {
			t.Errorf("after seq %d (%s): Open() = %d, the ledger holds %d unresolved windows", e.Seq, e.Type, g.Open(), ongoing)
		}
		open[i] = g.Open()
	}
	return open
}

// TestWindowOpensAndResolves: each invariant opens its window on the event
// that breaks it and resolves it on the one that heals it, and on no other.
func TestWindowOpensAndResolves(t *testing.T) {
	for _, tc := range []struct {
		inv      Invariant
		liveOnly bool
		setup    []events.Event
		// quiet events break nothing, breaks opens the window, during leaves
		// it open, heals resolves it.
		quiet, breaks, during, heals events.Event
		block                        topology.BlockID
	}{
		{inv: ReplicaCount, setup: written(),
			quiet: relocated(0, 3, 4), breaks: onBlock(events.ReplicaDeleted, 0, 4),
			during: onBlock(events.ReplicaWritten, 1, 7), heals: onBlock(events.ReplicaWritten, 0, 5), block: 0},
		{inv: ReplicaCount, liveOnly: true, setup: written(),
			quiet: onNode(events.NodeDead, 11), breaks: onNode(events.NodeDead, 6),
			during: onNode(events.NodeAlive, 11), heals: onNode(events.NodeAlive, 6), block: 1},
		{inv: CoreRackCopy, setup: written(),
			quiet: relocated(1, 1, 2), breaks: relocated(1, 2, 8),
			during: relocated(0, 3, 4), heals: relocated(1, 6, 0), block: 1},
		{inv: RackSpread, setup: encoded()[:8],
			// The encode keeps block 1 in rack 1 beside block 0: the stripe is
			// in violation from the event that commits it until the BlockMover
			// has moved one of the two out.
			quiet: relocated(1, 6, 5), breaks: encoded()[8],
			during: parityRelocated(0, 9, 10), heals: relocated(1, 5, 7), block: events.NoneBlock},
		{inv: PartialDelete, setup: encoded(),
			quiet: relocated(0, 3, 4), breaks: onBlock(events.ReplicaDeleted, 0, 4),
			during: ev(events.TransferStarted, nil), heals: onBlock(events.RepairFinished, 0, 5), block: 0},
		{inv: PartialDelete, liveOnly: true, setup: encoded(),
			quiet: onNode(events.NodeDead, 9), breaks: onNode(events.NodeDead, 3),
			during: onNode(events.NodeAlive, 9), heals: onBlock(events.RepairFinished, 0, 4), block: 0},
	} {
		g := New(testRules(t, tc.liveOnly))
		var resolved []Window
		g.OnResolve = func(w *Window) { resolved = append(resolved, *w) }
		if open := observe(t, g, 1, tc.setup); open[len(open)-1] != 0 || len(g.Windows) != 0 {
			t.Fatalf("%s (live only %v): the setup broke an invariant: %+v", tc.inv, tc.liveOnly, g.Windows)
		}
		at := uint64(len(tc.setup)) + 1
		open := observe(t, g, at, []events.Event{tc.quiet, tc.breaks, tc.during, tc.heals})
		if want := []int{0, 1, 1, 0}; !reflect.DeepEqual(open, want) {
			t.Errorf("%s (live only %v): open windows after quiet, breaking, bystander and healing event = %v, want %v: %+v",
				tc.inv, tc.liveOnly, open, want, g.Windows)
			continue
		}
		if len(g.Windows) != 1 {
			t.Errorf("%s (live only %v): %d windows, want one: %+v", tc.inv, tc.liveOnly, len(g.Windows), g.Windows)
			continue
		}
		w := g.Windows[0]
		if w.Invariant != tc.inv || w.Stripe != 0 || w.Block != tc.block || w.Detail == "" {
			t.Errorf("window %+v, want %s on stripe 0, block %d, with a detail", w, tc.inv, tc.block)
		}
		if !w.Transient() || w.OpenedSeq != at+1 || w.ResolvedSeq != at+3 {
			t.Errorf("%s window opened at %d and resolved at %d, want %d and %d", tc.inv, w.OpenedSeq, w.ResolvedSeq, at+1, at+3)
		}
		if len(resolved) != 1 || resolved[0] != w {
			t.Errorf("OnResolve saw %+v, want the resolved window once", resolved)
		}
	}
}

// TestRepairNeverDipsBelowOneCopy: a repair publishes RepairFinished, the new
// copy, before the ReplicaDeleted of the one it replaces. Under the auditor's
// rules the member is never without a copy and no window opens at all; under
// the exposure ledger's the window the node's death opened resolves on the
// RepairFinished and the deletion that follows opens nothing.
func TestRepairNeverDipsBelowOneCopy(t *testing.T) {
	repair := []events.Event{
		onNode(events.NodeDead, 3),
		onBlock(events.RepairFinished, 0, 4),
		onBlock(events.ReplicaDeleted, 0, 3),
	}
	for _, tc := range []struct {
		liveOnly bool
		open     []int
	}{{false, []int{0, 0, 0}}, {true, []int{1, 0, 0}}} {
		g := New(testRules(t, tc.liveOnly))
		observe(t, g, 1, encoded())
		if open := observe(t, g, 10, repair); !reflect.DeepEqual(open, tc.open) {
			t.Errorf("live only %v: open windows over death, repair, deletion = %v, want %v: %+v", tc.liveOnly, open, tc.open, g.Windows)
		}
	}
	// The other order is the dip the rule exists to catch.
	g := New(testRules(t, false))
	observe(t, g, 1, encoded())
	if open := observe(t, g, 10, []events.Event{repair[2], repair[1]}); !reflect.DeepEqual(open, []int{1, 0}) ||
		g.Windows[0].Invariant != PartialDelete {
		t.Errorf("deletion before repair: open windows %v, ledger %+v; want a partial-delete window the repair resolves", open, g.Windows)
	}
}

// TestParityRelocationRewritesHolder: the model follows a parity block to
// its new holder, so rack-spread counts it where it is: moved beside block 1
// it breaks the stripe, moved on it heals it, and where it was counts for
// nothing.
func TestParityRelocationRewritesHolder(t *testing.T) {
	g := New(testRules(t, false))
	observe(t, g, 1, encoded())
	open := observe(t, g, 10, []events.Event{
		parityRelocated(0, 9, 7),  // rack 3 -> rack 2, where block 1 is
		relocated(0, 3, 10),       // block 0 into rack 3: the parity has left it
		parityRelocated(0, 7, 5),  // on to rack 1, which block 0 has left
		parityRelocated(0, 9, 11), // node 9 holds no parity: nothing moves
	})
	if want := []int{1, 1, 0, 0}; !reflect.DeepEqual(open, want) {
		t.Fatalf("open windows over the relocations = %v, want %v: %+v", open, want, g.Windows)
	}
	if w := g.Windows[0]; len(g.Windows) != 1 || w.Invariant != RackSpread || w.OpenedSeq != 10 || w.ResolvedSeq != 12 {
		t.Errorf("ledger %+v, want one rack-spread window over seq 10..12", g.Windows)
	}
}

// TestTotalsAndReplay: Totals follows the stripe through grouping, encode
// start and commit, and the same sequence replayed into a fresh engine gives
// the same totals and the same ledger.
func TestTotalsAndReplay(t *testing.T) {
	seq := append(encoded(), onNode(events.NodeDead, 3), onBlock(events.RepairFinished, 0, 4),
		onBlock(events.ReplicaDeleted, 0, 3), onNode(events.NodeAlive, 3))
	for i, want := range map[int]Totals{
		3: {Blocks: 2},
		4: {Blocks: 2, Stripes: 1, Grouped: 1, Bytes: 200},
		5: {Blocks: 2, Stripes: 1, Grouped: 1, Bytes: 200, Encoding: 1},
		8: {Blocks: 2, Stripes: 1, Grouped: 1, Bytes: 200, Encoded: 1, EncodedBytes: 200},
	} {
		probe := New(testRules(t, true))
		observe(t, probe, 1, seq[:i+1])
		if got := probe.Totals(); got != want {
			t.Errorf("totals after %d events = %+v, want %+v", i+1, got, want)
		}
	}
	g := New(testRules(t, true))
	observe(t, g, 1, seq)
	if len(g.Windows) != 1 || g.Open() != 0 {
		t.Fatalf("ledger %+v with %d open, want the one window of the node's death, resolved", g.Windows, g.Open())
	}
	replay := New(testRules(t, true))
	observe(t, replay, 1, seq)
	if replay.Totals() != g.Totals() || !reflect.DeepEqual(replay.Windows, g.Windows) {
		t.Errorf("replay: totals %+v and ledger %+v, first run %+v and %+v", replay.Totals(), replay.Windows, g.Totals(), g.Windows)
	}
}
