// Package audit replays the cluster event journal against the paper's
// placement invariants, continuously and online: it subscribes to an
// events.Journal, maintains its own model of where every replica, stripe,
// and parity block lives (built purely from the event stream, never by
// calling back into the cluster), and flags any state — including
// *transient* state that later self-corrects — that violates what EAR
// promises:
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
//     least one live replica — no stripe is left partially deleted.
//
// A violation records the event window that caused it: the sequence number
// that opened it, the last event observed while it held, and — when a later
// event restores the invariant — the resolving sequence number, which marks
// the violation transient. Steady-state violations stay open. This is the
// layer the paper's reliability argument is asserted against: "did any
// stripe *ever* violate rack fault tolerance, even transiently, during
// encode, repair, or relocation?" is answered by Report().
package audit

import (
	"fmt"
	"sort"
	"sync"

	"ear/internal/events"
	"ear/internal/topology"
)

// Invariant names one checked property.
type Invariant string

// The audited invariants.
const (
	InvReplicaCount  Invariant = "replica-count"
	InvCoreRackCopy  Invariant = "core-rack-copy"
	InvRackSpread    Invariant = "rack-spread"
	InvPartialDelete Invariant = "partial-delete"
)

// Config sets the audited thresholds, mirroring the cluster configuration.
type Config struct {
	// Replicas is the pre-encode replication factor r.
	Replicas int
	// C bounds blocks of a stripe per rack after encoding (<=0 means 1).
	C int
	// CheckCoreRack enables the core-rack-copy invariant (EAR stripes;
	// stripes grouped with rack -1 are skipped regardless).
	CheckCoreRack bool
}

// Violation is one observed invariant breach with its event window.
type Violation struct {
	Invariant Invariant         `json:"invariant"`
	Stripe    topology.StripeID `json:"stripe"`
	Block     topology.BlockID  `json:"block"`
	Detail    string            `json:"detail"`
	// OpenedSeq is the event that created the violating state; LastSeq the
	// most recent event observed while it held.
	OpenedSeq uint64 `json:"opened_seq"`
	LastSeq   uint64 `json:"last_seq"`
	// ResolvedSeq is the event that restored the invariant (0 while the
	// violation is ongoing). A resolved violation was transient.
	ResolvedSeq uint64 `json:"resolved_seq,omitempty"`
}

// Transient reports whether the violation self-corrected.
func (v Violation) Transient() bool { return v.ResolvedSeq != 0 }

// Report is the auditor's summary.
type Report struct {
	Events    uint64      `json:"events"`
	Blocks    int         `json:"blocks"`
	Stripes   int         `json:"stripes"`
	Encoded   int         `json:"encoded_stripes"`
	Ongoing   []Violation `json:"ongoing"`
	Transient []Violation `json:"transient"`
	// Clean is true when no violation — ongoing or transient — was ever
	// observed.
	Clean bool `json:"clean"`
}

// Total returns the violation count, transient included.
func (r Report) Total() int { return len(r.Ongoing) + len(r.Transient) }

// blockState is the auditor's model of one block.
type blockState struct {
	replicas  map[topology.NodeID]bool
	stripe    topology.StripeID
	committed bool
	aborted   bool
	encoded   bool
}

// stripeState is the auditor's model of one stripe.
type stripeState struct {
	blocks   []topology.BlockID
	coreRack topology.RackID
	parity   map[int]topology.NodeID // index -> node (relocations rewrite)
	encoding bool                    // encode in flight: replica checks suspended
	encoded  bool
}

// Auditor consumes the event stream and maintains the invariant state. All
// methods are safe for concurrent use; Attach subscribes it to a journal.
type Auditor struct {
	top *topology.Topology
	cfg Config

	mu      sync.Mutex
	events  uint64
	blocks  map[topology.BlockID]*blockState
	stripes map[topology.StripeID]*stripeState
	// dead is the NameNode's current dead set. A copy on a dead node is
	// unreachable, so it does not count toward a rack's stripe population:
	// repairing a lost member into the rack of its dead holder is legal.
	dead map[topology.NodeID]bool
	// open maps a violation key to its index in all; closed violations keep
	// their slot (they become the transient list).
	open map[string]int
	all  []Violation
}

// New builds an auditor for the given topology and thresholds.
func New(top *topology.Topology, cfg Config) *Auditor {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	return &Auditor{
		top:     top,
		cfg:     cfg,
		blocks:  make(map[topology.BlockID]*blockState),
		stripes: make(map[topology.StripeID]*stripeState),
		dead:    make(map[topology.NodeID]bool),
		open:    make(map[string]int),
	}
}

// Attach subscribes the auditor to the journal, returning the cancel
// function. Events already rotated out of the ring are not replayed, so
// attach before traffic flows.
func (a *Auditor) Attach(j *events.Journal) (cancel func()) {
	return j.Subscribe(a.Observe)
}

// Observe folds one event into the model and re-checks the invariants the
// event can affect. It is the subscriber the journal calls; tests may also
// feed events directly.
func (a *Auditor) Observe(e events.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++

	switch e.Type {
	case events.BlockAllocated:
		b := a.block(e.Block)
		for _, n := range e.Nodes {
			b.replicas[n] = true
		}
	case events.ReplicaWritten:
		a.block(e.Block).replicas[e.Node] = true
	case events.BlockCommitted:
		b := a.block(e.Block)
		b.committed = true
		if len(e.Nodes) > 0 {
			b.replicas = make(map[topology.NodeID]bool, len(e.Nodes))
			for _, n := range e.Nodes {
				b.replicas[n] = true
			}
		}
	case events.BlockAborted:
		b := a.block(e.Block)
		b.aborted = true
		b.replicas = make(map[topology.NodeID]bool)
	case events.StripeGrouped:
		s := a.stripe(e.Stripe)
		s.blocks = append([]topology.BlockID(nil), e.Blocks...)
		s.coreRack = e.Rack
		for _, id := range e.Blocks {
			a.block(id).stripe = e.Stripe
		}
	case events.StripeEncodeStarted:
		a.stripe(e.Stripe).encoding = true
	case events.StripeEncoded:
		s := a.stripe(e.Stripe)
		s.encoding = false
		s.encoded = true
		s.parity = make(map[int]topology.NodeID, len(e.Nodes))
		for i, n := range e.Nodes {
			s.parity[i] = n
		}
		for _, id := range s.blocks {
			a.block(id).encoded = true
		}
	case events.ReplicaDeleted:
		delete(a.block(e.Block).replicas, e.Node)
	case events.ReplicaRelocated:
		if e.Detail == "parity" {
			s := a.stripe(e.Stripe)
			for i, n := range s.parity {
				if n == e.Node {
					s.parity[i] = e.Peer
					break
				}
			}
		} else {
			b := a.block(e.Block)
			delete(b.replicas, e.Node)
			b.replicas[e.Peer] = true
		}
	case events.RepairFinished:
		// Parity repairs publish with Block unset (Detail "parity"); the
		// paired ReplicaRelocated event moves the parity holder.
		if e.Block != events.NoneBlock {
			a.block(e.Block).replicas[e.Node] = true
		}
	case events.NodeDead:
		a.dead[e.Node] = true
	case events.NodeAlive:
		delete(a.dead, e.Node)
	default:
		// Transfers, task placements, verification: no placement state to
		// fold, but the window of any open violation still extends.
	}

	a.checkLocked(e)
}

// block returns (creating) the model entry for id.
func (a *Auditor) block(id topology.BlockID) *blockState {
	b, ok := a.blocks[id]
	if !ok {
		b = &blockState{replicas: make(map[topology.NodeID]bool), stripe: events.NoneStripe}
		a.blocks[id] = b
	}
	return b
}

// stripe returns (creating) the model entry for id.
func (a *Auditor) stripe(id topology.StripeID) *stripeState {
	s, ok := a.stripes[id]
	if !ok {
		s = &stripeState{coreRack: events.NoneRack, parity: make(map[int]topology.NodeID)}
		a.stripes[id] = s
	}
	return s
}

// checkLocked evaluates every invariant touched by the event. The scope is
// the event's stripe (or its block's stripe); events with no placement
// linkage only extend open windows.
func (a *Auditor) checkLocked(e events.Event) {
	seq := e.Seq
	for _, v := range a.open {
		a.all[v].LastSeq = seq
	}

	sid := e.Stripe
	if sid == events.NoneStripe && e.Block != events.NoneBlock {
		if b, ok := a.blocks[e.Block]; ok {
			sid = b.stripe
		}
	}
	// Block-level replica-count applies even before stripe assignment.
	if e.Block != events.NoneBlock {
		a.checkReplicaCountLocked(e.Block, seq)
	}
	if sid == events.NoneStripe {
		return
	}
	s, ok := a.stripes[sid]
	if !ok {
		return
	}
	for _, id := range s.blocks {
		a.checkReplicaCountLocked(id, seq)
	}
	a.checkCoreRackLocked(sid, s, seq)
	a.checkRackSpreadLocked(sid, s, seq)
	a.checkPartialDeleteLocked(sid, s, seq)
}

// setState opens, extends, or resolves the violation identified by key.
func (a *Auditor) setState(key string, violated bool, seq uint64, make func() Violation) {
	idx, isOpen := a.open[key]
	switch {
	case violated && !isOpen:
		v := make()
		v.OpenedSeq = seq
		v.LastSeq = seq
		a.all = append(a.all, v)
		a.open[key] = len(a.all) - 1
	case violated && isOpen:
		a.all[idx].LastSeq = seq
	case !violated && isOpen:
		a.all[idx].ResolvedSeq = seq
		delete(a.open, key)
	}
}

// checkReplicaCountLocked: committed, pre-encode blocks keep >= r replicas.
// Suspended while the block's stripe encodes and once it is encoded.
func (a *Auditor) checkReplicaCountLocked(id topology.BlockID, seq uint64) {
	b, ok := a.blocks[id]
	if !ok {
		return
	}
	key := fmt.Sprintf("%s/b%d", InvReplicaCount, id)
	suspended := b.aborted || b.encoded || !b.committed
	if s, ok := a.stripes[b.stripe]; ok && (s.encoding || s.encoded) {
		suspended = true
	}
	violated := !suspended && len(b.replicas) < a.cfg.Replicas
	a.setState(key, violated, seq, func() Violation {
		return Violation{
			Invariant: InvReplicaCount,
			Stripe:    b.stripe,
			Block:     id,
			Detail:    fmt.Sprintf("%d of %d replicas live before encoding", len(b.replicas), a.cfg.Replicas),
		}
	})
}

// checkCoreRackLocked: pre-encode EAR stripes keep one replica of every
// member in the core rack.
func (a *Auditor) checkCoreRackLocked(sid topology.StripeID, s *stripeState, seq uint64) {
	if !a.cfg.CheckCoreRack || s.coreRack == events.NoneRack || s.encoded || s.encoding {
		a.setState(fmt.Sprintf("%s/s%d", InvCoreRackCopy, sid), false, seq, nil)
		return
	}
	missing := topology.BlockID(-1)
	for _, id := range s.blocks {
		b, ok := a.blocks[id]
		if !ok || b.aborted || !b.committed {
			continue
		}
		inCore := false
		for n := range b.replicas {
			if r, err := a.top.RackOf(n); err == nil && r == s.coreRack {
				inCore = true
				break
			}
		}
		if !inCore {
			missing = id
			break
		}
	}
	a.setState(fmt.Sprintf("%s/s%d", InvCoreRackCopy, sid), missing >= 0, seq, func() Violation {
		return Violation{
			Invariant: InvCoreRackCopy,
			Stripe:    sid,
			Block:     missing,
			Detail:    fmt.Sprintf("no replica of block %d in core rack %d", missing, s.coreRack),
		}
	})
}

// checkRackSpreadLocked: post-encode, every rack holds <= c blocks of the
// stripe on live nodes (data replicas and parity together).
func (a *Auditor) checkRackSpreadLocked(sid topology.StripeID, s *stripeState, seq uint64) {
	key := fmt.Sprintf("%s/s%d", InvRackSpread, sid)
	if !s.encoded {
		a.setState(key, false, seq, nil)
		return
	}
	counts := make(map[topology.RackID]int)
	for _, id := range s.blocks {
		if b, ok := a.blocks[id]; ok {
			for n := range b.replicas {
				if r, err := a.top.RackOf(n); err == nil && !a.dead[n] {
					counts[r]++
				}
			}
		}
	}
	for _, n := range s.parity {
		if r, err := a.top.RackOf(n); err == nil && !a.dead[n] {
			counts[r]++
		}
	}
	worstRack, worst := events.NoneRack, 0
	for r, c := range counts {
		if c > worst {
			worstRack, worst = r, c
		}
	}
	a.setState(key, worst > a.cfg.C, seq, func() Violation {
		return Violation{
			Invariant: InvRackSpread,
			Stripe:    sid,
			Block:     events.NoneBlock,
			Detail:    fmt.Sprintf("rack %d holds %d blocks of the stripe (c=%d)", worstRack, worst, a.cfg.C),
		}
	})
}

// checkPartialDeleteLocked: post-encode, every non-aborted member keeps at
// least one replica.
func (a *Auditor) checkPartialDeleteLocked(sid topology.StripeID, s *stripeState, seq uint64) {
	key := fmt.Sprintf("%s/s%d", InvPartialDelete, sid)
	if !s.encoded {
		a.setState(key, false, seq, nil)
		return
	}
	lost := topology.BlockID(-1)
	for _, id := range s.blocks {
		if b, ok := a.blocks[id]; ok && !b.aborted && len(b.replicas) == 0 {
			lost = id
			break
		}
	}
	a.setState(key, lost >= 0, seq, func() Violation {
		return Violation{
			Invariant: InvPartialDelete,
			Stripe:    sid,
			Block:     lost,
			Detail:    fmt.Sprintf("block %d of encoded stripe has no live replica", lost),
		}
	})
}

// Report summarizes the audit so far. Violations are sorted by opening
// sequence number.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Report{Events: a.events, Blocks: len(a.blocks), Stripes: len(a.stripes)}
	for _, s := range a.stripes {
		if s.encoded {
			r.Encoded++
		}
	}
	for _, v := range a.all {
		if v.Transient() {
			r.Transient = append(r.Transient, v)
		} else {
			r.Ongoing = append(r.Ongoing, v)
		}
	}
	sort.Slice(r.Ongoing, func(i, j int) bool { return r.Ongoing[i].OpenedSeq < r.Ongoing[j].OpenedSeq })
	sort.Slice(r.Transient, func(i, j int) bool { return r.Transient[i].OpenedSeq < r.Transient[j].OpenedSeq })
	r.Clean = len(a.all) == 0
	return r
}
