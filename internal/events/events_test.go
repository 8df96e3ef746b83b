package events

import (
	"slices"
	"sync"
	"testing"

	"ear/internal/topology"
)

func TestNewFillsSentinels(t *testing.T) {
	e := New(BlockCommitted, "namenode")
	if e.Type != BlockCommitted || e.Subsystem != "namenode" {
		t.Fatalf("New stamped %q/%q", e.Type, e.Subsystem)
	}
	if e.Block != NoneBlock || e.Stripe != NoneStripe || e.Node != NoneNode ||
		e.Peer != NoneNode || e.Rack != NoneRack {
		t.Errorf("New left correlation keys unset: %+v", e)
	}
}

func TestPublishStampsAndOrders(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Publish(New(BlockAllocated, "namenode"))
	}
	if got := j.Seq(); got != 5 {
		t.Fatalf("Seq = %d, want 5", got)
	}
	if got := j.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	evs := j.Snapshot()
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has Seq %d, want dense from 1", i, e.Seq)
		}
		if e.Wall.IsZero() {
			t.Errorf("event %d missing wall timestamp", i)
		}
		if i > 0 && evs[i].Logical < evs[i-1].Logical {
			t.Errorf("logical timestamps not monotone at %d", i)
		}
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want capacity 4", got)
	}
	evs, next, dropped := j.Since(0, 0, Filter{})
	if len(evs) != 4 {
		t.Fatalf("Since returned %d events, want 4 retained", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Errorf("retained window [%d..%d], want [7..10]", evs[0].Seq, evs[3].Seq)
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6 (events 1-6 rotated out)", dropped)
	}
	if next != 10 {
		t.Errorf("next = %d, want 10", next)
	}
	// A cursor inside the retained window loses nothing.
	if _, _, dropped := j.Since(8, 0, Filter{}); dropped != 0 {
		t.Errorf("in-window cursor reported %d dropped", dropped)
	}
}

func TestSinceCursorAdvancesPastFiltered(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 6; i++ {
		typ := TransferStarted
		if i%2 == 1 {
			typ = TransferFinished
		}
		j.Publish(New(typ, "fabric"))
	}
	evs, next, _ := j.Since(0, 0, Filter{Type: TransferFinished})
	if len(evs) != 3 {
		t.Fatalf("filtered read returned %d events, want 3", len(evs))
	}
	// The cursor covers the non-matching events too: a second poll is empty
	// instead of re-reading.
	if next != 6 {
		t.Errorf("next = %d, want 6 (past filtered-out events)", next)
	}
	evs, next, _ = j.Since(next, 0, Filter{Type: TransferFinished})
	if len(evs) != 0 || next != 6 {
		t.Errorf("second poll returned %d events, next %d", len(evs), next)
	}
}

func TestSinceMaxLimitsAndResumes(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 7; i++ {
		j.Publish(New(ReplicaDeleted, "raidnode"))
	}
	var got []Event
	cursor := uint64(0)
	for {
		evs, next, _ := j.Since(cursor, 3, Filter{})
		got = append(got, evs...)
		if next == cursor {
			break
		}
		cursor = next
	}
	if len(got) != 7 {
		t.Fatalf("paged reads returned %d events, want 7", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("paged read out of order at %d: seq %d", i, e.Seq)
		}
	}
}

func TestFilterFields(t *testing.T) {
	j := NewJournal(0)
	blk := topology.BlockID(42)
	str := topology.StripeID(7)
	node := topology.NodeID(3)
	peer := topology.NodeID(9)

	e := New(ReplicaRelocated, "blockmover")
	e.Block, e.Stripe, e.Node, e.Peer = blk, str, node, peer
	j.Publish(e)
	j.Publish(New(BlockCommitted, "namenode"))

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 2},
		{"type", Filter{Type: ReplicaRelocated}, 1},
		{"subsystem", Filter{Subsystem: "namenode"}, 1},
		{"block", Filter{Block: &blk}, 1},
		{"stripe", Filter{Stripe: &str}, 1},
		{"node", Filter{Node: &node}, 1},
		{"peer-as-node", Filter{Node: &peer}, 1},
		{"no-match", Filter{Type: RepairStarted}, 0},
	}
	for _, tc := range cases {
		if evs, _, _ := j.Since(0, 0, tc.f); len(evs) != tc.want {
			t.Errorf("filter %s matched %d events, want %d", tc.name, len(evs), tc.want)
		}
	}
	// A sentinel-keyed event does not match a concrete-key filter.
	other := topology.BlockID(1)
	if evs, _, _ := j.Since(0, 0, Filter{Block: &other}); len(evs) != 0 {
		t.Errorf("filter on absent block matched %d events", len(evs))
	}
}

func TestSubscribeDeliversAndCancels(t *testing.T) {
	j := NewJournal(0)
	var seen []uint64
	cancel := j.Subscribe(func(e Event) { seen = append(seen, e.Seq) })
	j.Publish(New(NodeDead, "namenode"))
	j.Publish(New(NodeAlive, "namenode"))
	cancel()
	j.Publish(New(NodeDead, "namenode"))
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("subscriber saw %v, want [1 2]", seen)
	}
}

// TestSubscribersRunInSubscriptionOrder: Publish promises delivery in
// subscription order, also after a subscriber in the middle cancelled. Twenty
// fresh journals, because the map the subscribers used to live in delivered
// eight of them in order about one time in five.
func TestSubscribersRunInSubscriptionOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		j := NewJournal(0)
		var order []int
		cancels := make([]func(), 8)
		for i := range cancels {
			cancels[i] = j.Subscribe(func(Event) { order = append(order, i) })
		}
		j.Publish(New(NodeDead, "namenode"))
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
			t.Fatalf("round %d: delivery order %v, want %v", round, order, want)
		}
		cancels[3]()
		cancels[3]() // a second cancel removes nobody else
		late := j.Subscribe(func(Event) { order = append(order, 8) })
		order = order[:0]
		j.Publish(New(NodeAlive, "namenode"))
		if want := []int{0, 1, 2, 4, 5, 6, 7, 8}; !slices.Equal(order, want) {
			t.Fatalf("round %d: after cancel, delivery order %v, want %v", round, order, want)
		}
		late()
	}
}

// TestPlanesSlotKeepsFirstValue: the slot hands every caller the first value
// stored, which is what makes a second planes.Attach find the first one's
// set.
func TestPlanesSlotKeepsFirstValue(t *testing.T) {
	j := NewJournal(0)
	first, second := new(int), new(int)
	if got := j.Planes(first); got != first {
		t.Fatalf("empty slot returned %v, want the fresh value", got)
	}
	if got := j.Planes(second); got != first {
		t.Fatalf("filled slot returned %v, want the first value", got)
	}
	var none *Journal
	if got := none.Planes(second); got != second {
		t.Fatalf("nil journal returned %v, want the fresh value", got)
	}
}

func TestNilJournalNoOps(t *testing.T) {
	var j *Journal
	j.Publish(New(BlockAllocated, "namenode")) // must not panic
	if j.Seq() != 0 || j.Len() != 0 {
		t.Error("nil journal reports non-empty state")
	}
	evs, next, dropped := j.Since(5, 10, Filter{})
	if evs != nil || next != 5 || dropped != 0 {
		t.Errorf("nil Since = (%v, %d, %d)", evs, next, dropped)
	}
	cancel := j.Subscribe(func(Event) { t.Error("nil journal invoked subscriber") })
	cancel()
}

func TestConcurrentPublishers(t *testing.T) {
	j := NewJournal(64)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Publish(New(TransferFinished, "fabric"))
				j.Since(0, 8, Filter{})
			}
		}()
	}
	wg.Wait()
	if got := j.Seq(); got != workers*per {
		t.Fatalf("Seq = %d, want %d", got, workers*per)
	}
	evs := j.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap in ring: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestWrapPastOutstandingCursor: a poller that fell behind loses exactly the
// events between its cursor and the oldest retained entry — no more, no
// less — and resumes from the retained window.
func TestWrapPastOutstandingCursor(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 5; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	// Poller reads up to seq 3, then the ring keeps rolling.
	_, cursor, dropped := j.Since(0, 3, Filter{})
	if cursor != 4 || dropped != 1 {
		t.Fatalf("first page: cursor=%d dropped=%d, want 4/1 (seq 1 rotated out, page covers 2-4)", cursor, dropped)
	}
	for i := 0; i < 6; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	// Ring now holds [8..11]; the cursor at 4 lost 5..7.
	evs, next, dropped := j.Since(cursor, 0, Filter{})
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3 (seqs 5-7 overwritten past the cursor)", dropped)
	}
	if len(evs) != 4 || evs[0].Seq != 8 || next != 11 {
		t.Errorf("resume read: %d events starting %d next %d, want 4 from 8 next 11",
			len(evs), evs[0].Seq, next)
	}
}

// TestWrapExactBoundaryCursor: a cursor exactly one before the oldest
// retained event loses nothing.
func TestWrapExactBoundaryCursor(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	// Retained window is [7..10]; cursor 6 sits exactly on the boundary.
	evs, next, dropped := j.Since(6, 0, Filter{})
	if dropped != 0 {
		t.Errorf("boundary cursor dropped = %d, want 0", dropped)
	}
	if len(evs) != 4 || next != 10 {
		t.Errorf("boundary read: %d events next %d, want 4 next 10", len(evs), next)
	}
	// One step further back loses exactly one event.
	if _, _, dropped := j.Since(5, 0, Filter{}); dropped != 1 {
		t.Errorf("cursor 5 dropped = %d, want 1", dropped)
	}
}

// TestCursorBeyondLatest: polling past the newest event is a clean no-op.
func TestCursorBeyondLatest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 3; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	evs, next, dropped := j.Since(99, 0, Filter{})
	if len(evs) != 0 || next != 99 || dropped != 0 {
		t.Errorf("beyond-latest read: %d events next %d dropped %d, want 0/99/0",
			len(evs), next, dropped)
	}
}

// TestZeroAndNegativeCapacityDefault: NewJournal(<=0) gets DefaultCapacity
// rather than an unusable zero-length ring.
func TestZeroAndNegativeCapacityDefault(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		j := NewJournal(capacity)
		if got := len(j.buf); got != DefaultCapacity {
			t.Errorf("NewJournal(%d) ring size = %d, want DefaultCapacity %d",
				capacity, got, DefaultCapacity)
		}
		j.Publish(New(ReplicaWritten, "datanode"))
		if evs, _, dropped := j.Since(0, 0, Filter{}); len(evs) != 1 || dropped != 0 {
			t.Errorf("NewJournal(%d) basic publish/read failed: %d events %d dropped",
				capacity, len(evs), dropped)
		}
	}
}

// TestCapacityOneRing: the degenerate single-slot ring still keeps exact
// drop accounting — every publish overwrites the previous event.
func TestCapacityOneRing(t *testing.T) {
	j := NewJournal(1)
	for i := 0; i < 5; i++ {
		j.Publish(New(ReplicaWritten, "datanode"))
	}
	if got := j.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	evs, next, dropped := j.Since(0, 0, Filter{})
	if len(evs) != 1 || evs[0].Seq != 5 {
		t.Fatalf("retained %d events seq %d, want only seq 5", len(evs), evs[0].Seq)
	}
	if dropped != 4 || next != 5 {
		t.Errorf("dropped=%d next=%d, want 4/5", dropped, next)
	}
	// Incremental polling on a capacity-1 ring: each poll from the previous
	// seq loses everything between.
	j.Publish(New(ReplicaWritten, "datanode"))
	j.Publish(New(ReplicaWritten, "datanode"))
	if _, _, dropped := j.Since(5, 0, Filter{}); dropped != 1 {
		t.Errorf("after 2 more publishes from cursor 5: dropped = %d, want 1 (seq 6)", dropped)
	}
}

// TestDropAccountingIsFilterIndependent: wrap losses are counted before the
// filter applies — a filtered poller still learns how much of the stream it
// can no longer inspect.
func TestDropAccountingIsFilterIndependent(t *testing.T) {
	j := NewJournal(2)
	for i := 0; i < 6; i++ {
		typ := TransferStarted
		if i%2 == 1 {
			typ = TransferFinished
		}
		j.Publish(New(typ, "fabric"))
	}
	_, _, dropped := j.Since(0, 0, Filter{Type: TransferFinished})
	if dropped != 4 {
		t.Errorf("filtered read dropped = %d, want 4 (filter-independent)", dropped)
	}
}

// TestTraceFilter: the Trace filter isolates one request's events.
func TestTraceFilter(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 6; i++ {
		e := New(ReplicaWritten, "datanode")
		e.Trace = uint64(1 + i%2)
		j.Publish(e)
	}
	untraced := New(NodeAlive, "namenode")
	j.Publish(untraced)
	evs, _, _ := j.Since(0, 0, Filter{Trace: 2})
	if len(evs) != 3 {
		t.Fatalf("trace filter returned %d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Trace != 2 {
			t.Errorf("trace filter leaked event with trace %d", e.Trace)
		}
	}
	// Zero Trace matches everything, including untraced events.
	evs, _, _ = j.Since(0, 0, Filter{})
	if len(evs) != 7 {
		t.Errorf("zero filter returned %d events, want 7", len(evs))
	}
}

// TestFilterCombinedPredicates: every set predicate must hold at once —
// trace + type + node narrows to exactly the events satisfying all three,
// including the Peer-matches-Node rule, and near-miss events (two of three
// predicates) are excluded.
func TestFilterCombinedPredicates(t *testing.T) {
	j := NewJournal(0)
	node := topology.NodeID(4)
	other := topology.NodeID(5)
	const trace = uint64(0xabcd)

	publish := func(typ Type, n topology.NodeID, peer topology.NodeID, tr uint64) {
		e := New(typ, "test")
		e.Node, e.Peer, e.Trace = n, peer, tr
		j.Publish(e)
	}
	publish(TransferStarted, node, -1, trace)    // full match on Node
	publish(TransferStarted, other, node, trace) // full match via Peer
	publish(TransferStarted, node, -1, 0x9999)   // wrong trace
	publish(TransferFinished, node, -1, trace)   // wrong type
	publish(TransferStarted, other, -1, trace)   // wrong node

	f := Filter{Type: TransferStarted, Node: &node, Trace: trace}
	evs, _, _ := j.Since(0, 0, f)
	if len(evs) != 2 {
		t.Fatalf("combined trace+type+node filter matched %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("matched seqs %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}

	// The same filter plus a subsystem that never occurs matches nothing.
	f.Subsystem = "absent"
	if evs, _, _ := j.Since(0, 0, f); len(evs) != 0 {
		t.Errorf("adding an absent subsystem still matched %d events", len(evs))
	}

	// Cursor semantics are preserved under combined filters: next advances
	// past everything considered, so a re-poll returns nothing new.
	f.Subsystem = ""
	_, next, _ := j.Since(0, 0, f)
	if evs, _, _ := j.Since(next, 0, f); len(evs) != 0 {
		t.Errorf("re-poll after cursor advance returned %d events", len(evs))
	}
}
