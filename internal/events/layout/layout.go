// Package layout is the one model of where every replica, stripe member and
// parity block lives, built purely from the event stream (never by calling
// back into the cluster), together with the invariants checked over it and
// the ledger of event windows during which one of them was broken:
//
//   - replica-count: a committed, not-yet-encoded block keeps at least r
//     replicas (the pre-encode durability guarantee). The check is
//     suspended for a stripe while its encode operation is in flight,
//     because deleting down to one replica is exactly what encoding does.
//   - core-rack-copy: before encoding, every member of an EAR stripe keeps
//     one replica in the stripe's core rack (the property that makes the
//     encode operation rack-local, Section III).
//   - rack-spread: after encoding, no rack holds more than c blocks of a
//     stripe (rack-level fault tolerance, Equation 1's requirement).
//   - partial-delete: after encoding, every non-aborted member still has at
//     least one replica — no stripe is left partially deleted.
//
// Two views run it, each under its own lock: audit.Auditor with all four
// rules, and progress.Tracker's exposure ledger with the two durability
// rules (replica-count, partial-delete). They differ in one argument,
// Rules.LiveOnly; everything else — the fold, the scope of a re-check, the
// predicates, the window ledger — exists here once.
package layout

import (
	"fmt"
	"time"

	"ear/internal/events"
	"ear/internal/topology"
)

// Invariant names one checked property.
type Invariant string

// The invariants.
const (
	ReplicaCount  Invariant = "replica-count"
	CoreRackCopy  Invariant = "core-rack-copy"
	RackSpread    Invariant = "rack-spread"
	PartialDelete Invariant = "partial-delete"
)

// Rules selects and parameterizes the invariants one view checks.
type Rules struct {
	// Replicas is the pre-encode replication factor r.
	Replicas int
	// Top switches on the two placement invariants, which need the
	// node→rack map; nil leaves only the two durability invariants.
	Top *topology.Topology
	// C bounds blocks of a stripe per rack after encoding.
	C int
	// CheckCoreRack enables core-rack-copy (EAR stripes; stripes grouped
	// with rack -1 are skipped regardless).
	CheckCoreRack bool
	// LiveOnly is the single intended difference between the two views. The
	// auditor (false) counts recorded placement: a node death is a fault the
	// cluster suffered, not an invariant the transition broke, so it must
	// leave the auditor clean. The exposure ledger (true) counts only
	// replicas on nodes not marked dead: a copy nobody can read protects
	// nothing, so a node death opens exposure windows that repair, or the
	// node's revival, closes.
	LiveOnly bool
}

// Window is one breach of an invariant with the event window it held for:
// the sequence number that opened it, the last event observed while it held
// and, when a later event restored the invariant, the resolving sequence
// number. The JSON form is the auditor's violation record.
type Window struct {
	Invariant Invariant         `json:"invariant"`
	Stripe    topology.StripeID `json:"stripe"`
	Block     topology.BlockID  `json:"block"`
	Detail    string            `json:"detail"`
	OpenedSeq uint64            `json:"opened_seq"`
	LastSeq   uint64            `json:"last_seq"`
	// ResolvedSeq is 0 while the breach is ongoing. A resolved one was
	// transient.
	ResolvedSeq uint64 `json:"resolved_seq,omitempty"`
	// OpenedWall and ResolvedWall are the wall-clock stamps of the opening
	// and resolving events; the exposure view turns them into durations.
	OpenedWall   time.Time `json:"-"`
	ResolvedWall time.Time `json:"-"`
}

// Transient reports whether the breach self-corrected.
func (w Window) Transient() bool { return w.ResolvedSeq != 0 }

// key identifies a window while it is open: id is the block for
// replica-count and the stripe for the three stripe-level invariants.
type key struct {
	inv Invariant
	id  int64
}

type block struct {
	replicas  map[topology.NodeID]bool
	stripe    topology.StripeID
	size      int64
	committed bool
	aborted   bool
	encoded   bool
}

type stripe struct {
	blocks   []topology.BlockID
	coreRack topology.RackID
	parity   []topology.NodeID // by parity index; relocations rewrite
	bytes    int64
	encoding bool // encode in flight: replica-count suspended
	encoded  bool
}

// Totals are the model's aggregate counts.
type Totals struct {
	Blocks  int
	Stripes int // every stripe any event named
	// Grouped counts stripes sealed by StripeGrouped, Encoding those with an
	// encode in flight, Encoded those committed; Bytes and EncodedBytes sum
	// member sizes over Grouped and Encoded.
	Grouped, Encoding, Encoded int
	Bytes, EncodedBytes        int64
}

// Engine folds events into the model and keeps the window ledger. It is not
// safe for concurrent use; a view serializes Observe with its readers.
type Engine struct {
	rules   Rules
	blocks  map[topology.BlockID]*block
	stripes map[topology.StripeID]*stripe
	// dead is the NameNode's current dead set. Under either view a copy on
	// a dead node does not count toward a rack's stripe population:
	// repairing a lost member into the rack of its dead holder is legal.
	dead   map[topology.NodeID]bool
	totals Totals

	// open maps a key to its index in Windows; resolved windows keep their
	// slot.
	open map[key]int
	// Windows is the ledger in opening order.
	Windows []Window
	// OnResolve, when set, sees each window as it resolves.
	OnResolve func(*Window)

	perRack []int // rack-spread scratch, one counter a rack
}

// New builds an empty engine checking the given rules.
func New(r Rules) *Engine {
	if r.C <= 0 {
		r.C = 1
	}
	g := &Engine{
		rules:   r,
		blocks:  make(map[topology.BlockID]*block),
		stripes: make(map[topology.StripeID]*stripe),
		dead:    make(map[topology.NodeID]bool),
		open:    make(map[key]int),
	}
	if r.Top != nil {
		g.perRack = make([]int, r.Top.Racks())
	}
	return g
}

// Reset empties the model and the ledger; the rules and OnResolve stay.
func (g *Engine) Reset() {
	on := g.OnResolve
	*g = *New(g.rules)
	g.OnResolve = on
}

// Open returns how many windows are currently open.
func (g *Engine) Open() int { return len(g.open) }

// Totals returns the aggregate counts.
func (g *Engine) Totals() Totals {
	t := g.totals
	t.Blocks, t.Stripes = len(g.blocks), len(g.stripes)
	return t
}

// Observe folds one event into the model and re-checks the invariants the
// event can affect.
func (g *Engine) Observe(e events.Event) {
	switch e.Type {
	case events.BlockAllocated:
		b := g.block(e.Block)
		if e.Bytes > 0 {
			b.size = e.Bytes
		}
		for _, n := range e.Nodes {
			b.replicas[n] = true
		}
	case events.ReplicaWritten:
		g.block(e.Block).replicas[e.Node] = true
	case events.BlockCommitted:
		b := g.block(e.Block)
		b.committed = true
		if len(e.Nodes) > 0 {
			b.replicas = make(map[topology.NodeID]bool, len(e.Nodes))
			for _, n := range e.Nodes {
				b.replicas[n] = true
			}
		}
	case events.BlockAborted:
		b := g.block(e.Block)
		b.aborted = true
		b.replicas = make(map[topology.NodeID]bool)
	case events.StripeGrouped:
		s := g.stripe(e.Stripe)
		if len(s.blocks) == 0 {
			g.totals.Grouped++
		} else {
			g.totals.Bytes -= s.bytes // regroup: replace, don't double-count
		}
		s.blocks = append([]topology.BlockID(nil), e.Blocks...)
		s.coreRack = e.Rack
		s.bytes = 0
		for _, id := range e.Blocks {
			b := g.block(id)
			b.stripe = e.Stripe
			s.bytes += b.size
		}
		g.totals.Bytes += s.bytes
	case events.StripeEncodeStarted:
		s := g.stripe(e.Stripe)
		if !s.encoding && !s.encoded {
			g.totals.Encoding++
		}
		s.encoding = true
	case events.StripeEncoded:
		s := g.stripe(e.Stripe)
		if s.encoding && !s.encoded {
			g.totals.Encoding--
		}
		s.encoding = false
		if !s.encoded {
			s.encoded = true
			g.totals.Encoded++
			g.totals.EncodedBytes += s.bytes
		}
		s.parity = append(s.parity[:0], e.Nodes...)
		for _, id := range s.blocks {
			g.block(id).encoded = true
		}
	case events.ReplicaDeleted:
		delete(g.block(e.Block).replicas, e.Node)
	case events.ReplicaRelocated:
		if e.Detail == "parity" {
			s := g.stripe(e.Stripe)
			for i, n := range s.parity {
				if n == e.Node {
					s.parity[i] = e.Peer
					break
				}
			}
		} else {
			b := g.block(e.Block)
			delete(b.replicas, e.Node)
			b.replicas[e.Peer] = true
		}
	case events.RepairFinished:
		// Parity repairs publish with Block unset (Detail "parity"); the
		// paired ReplicaRelocated event moves the parity holder.
		if e.Block != events.NoneBlock {
			g.block(e.Block).replicas[e.Node] = true
		}
	case events.NodeDead:
		g.dead[e.Node] = true
	case events.NodeAlive:
		delete(g.dead, e.Node)
	default:
		// Transfers, task placements, verification: no placement state to
		// fold, but the window of any open breach still extends.
	}
	g.check(e)
}

// block returns (creating) the model entry for id.
func (g *Engine) block(id topology.BlockID) *block {
	b, ok := g.blocks[id]
	if !ok {
		b = &block{replicas: make(map[topology.NodeID]bool), stripe: events.NoneStripe}
		g.blocks[id] = b
	}
	return b
}

// stripe returns (creating) the model entry for id.
func (g *Engine) stripe(id topology.StripeID) *stripe {
	s, ok := g.stripes[id]
	if !ok {
		s = &stripe{coreRack: events.NoneRack}
		g.stripes[id] = s
	}
	return s
}

// check is the scope rule: the event's block, then every member of its
// stripe (the event's, or its block's) and the stripe-level invariants. A
// liveness change affects every block and parity the node holds, so it
// re-checks everything. Events with no placement linkage only extend open
// windows.
func (g *Engine) check(e events.Event) {
	for _, i := range g.open {
		g.Windows[i].LastSeq = e.Seq
	}
	if e.Type == events.NodeDead || e.Type == events.NodeAlive {
		for id, b := range g.blocks {
			g.checkReplicaCount(id, b, e)
		}
		for sid, s := range g.stripes {
			g.checkStripe(sid, s, e)
		}
		return
	}
	sid := e.Stripe
	// Block-level replica-count applies even before stripe assignment.
	if b, ok := g.blocks[e.Block]; ok {
		if sid == events.NoneStripe {
			sid = b.stripe
		}
		g.checkReplicaCount(e.Block, b, e)
	}
	s, ok := g.stripes[sid]
	if !ok {
		return
	}
	for _, id := range s.blocks {
		if b, ok := g.blocks[id]; ok {
			g.checkReplicaCount(id, b, e)
		}
	}
	g.checkStripe(sid, s, e)
}

// checkStripe runs the stripe-level invariants the rules switch on.
func (g *Engine) checkStripe(sid topology.StripeID, s *stripe, e events.Event) {
	if g.rules.Top != nil {
		g.checkCoreRack(sid, s, e)
		g.checkRackSpread(sid, s, e)
	}
	g.checkPartialDelete(sid, s, e)
}

// copies counts the replicas of b the view relies on: see Rules.LiveOnly.
func (g *Engine) copies(b *block) int {
	if !g.rules.LiveOnly {
		return len(b.replicas)
	}
	n := 0
	for node := range b.replicas {
		if !g.dead[node] {
			n++
		}
	}
	return n
}

// set opens, extends or resolves the window k. It returns the window when
// this call opened it, for the caller to describe.
func (g *Engine) set(k key, broken bool, e events.Event) *Window {
	i, isOpen := g.open[k]
	switch {
	case broken && !isOpen:
		g.open[k] = len(g.Windows)
		g.Windows = append(g.Windows, Window{
			Invariant: k.inv, Stripe: events.NoneStripe, Block: events.NoneBlock,
			OpenedSeq: e.Seq, LastSeq: e.Seq, OpenedWall: e.Wall,
		})
		return &g.Windows[len(g.Windows)-1]
	case !broken && isOpen:
		w := &g.Windows[i]
		w.ResolvedSeq, w.ResolvedWall = e.Seq, e.Wall
		delete(g.open, k)
		if g.OnResolve != nil {
			g.OnResolve(w)
		}
	}
	return nil
}

// checkReplicaCount: committed, pre-encode blocks keep >= r replicas.
// Suspended while the block's stripe encodes and once it is encoded.
func (g *Engine) checkReplicaCount(id topology.BlockID, b *block, e events.Event) {
	suspended := b.aborted || b.encoded || !b.committed
	if s, ok := g.stripes[b.stripe]; ok && (s.encoding || s.encoded) {
		suspended = true
	}
	n := g.copies(b)
	if w := g.set(key{ReplicaCount, int64(id)}, !suspended && n < g.rules.Replicas, e); w != nil {
		w.Stripe, w.Block = b.stripe, id
		w.Detail = fmt.Sprintf("%d of %d replicas live before encoding", n, g.rules.Replicas)
	}
}

// checkCoreRack: pre-encode EAR stripes keep one replica of every member in
// the core rack.
func (g *Engine) checkCoreRack(sid topology.StripeID, s *stripe, e events.Event) {
	missing := events.NoneBlock
	if g.rules.CheckCoreRack && s.coreRack != events.NoneRack && !s.encoded && !s.encoding {
		for _, id := range s.blocks {
			b, ok := g.blocks[id]
			if !ok || b.aborted || !b.committed {
				continue
			}
			inCore := false
			for n := range b.replicas {
				if r, err := g.rules.Top.RackOf(n); err == nil && r == s.coreRack {
					inCore = true
					break
				}
			}
			if !inCore {
				missing = id
				break
			}
		}
	}
	if w := g.set(key{CoreRackCopy, int64(sid)}, missing != events.NoneBlock, e); w != nil {
		w.Stripe, w.Block = sid, missing
		w.Detail = fmt.Sprintf("no replica of block %d in core rack %d", missing, s.coreRack)
	}
}

// checkRackSpread: post-encode, every rack holds <= c blocks of the stripe
// on live nodes (data replicas and parity together).
func (g *Engine) checkRackSpread(sid topology.StripeID, s *stripe, e events.Event) {
	worstRack, worst := events.NoneRack, 0
	if s.encoded {
		clear(g.perRack)
		for _, id := range s.blocks {
			if b, ok := g.blocks[id]; ok {
				for n := range b.replicas {
					g.countInRack(n)
				}
			}
		}
		for _, n := range s.parity {
			g.countInRack(n)
		}
		for r, c := range g.perRack {
			if c > worst {
				worstRack, worst = topology.RackID(r), c
			}
		}
	}
	if w := g.set(key{RackSpread, int64(sid)}, worst > g.rules.C, e); w != nil {
		w.Stripe = sid
		w.Detail = fmt.Sprintf("rack %d holds %d blocks of the stripe (c=%d)", worstRack, worst, g.rules.C)
	}
}

// countInRack adds one stripe block held by a live node n to its rack.
func (g *Engine) countInRack(n topology.NodeID) {
	if r, err := g.rules.Top.RackOf(n); err == nil && !g.dead[n] {
		g.perRack[r]++
	}
}

// checkPartialDelete: post-encode, every non-aborted member keeps at least
// one replica.
func (g *Engine) checkPartialDelete(sid topology.StripeID, s *stripe, e events.Event) {
	lost := events.NoneBlock
	if s.encoded {
		for _, id := range s.blocks {
			if b, ok := g.blocks[id]; ok && !b.aborted && g.copies(b) == 0 {
				lost = id
				break
			}
		}
	}
	if w := g.set(key{PartialDelete, int64(sid)}, lost != events.NoneBlock, e); w != nil {
		w.Stripe, w.Block = sid, lost
		w.Detail = fmt.Sprintf("block %d of encoded stripe has no live replica", lost)
	}
}
