// Package audit replays the cluster event journal against the paper's
// placement invariants, continuously and online: it subscribes to an
// events.Journal and runs the layout engine (internal/events/layout: the
// event-sourced model of every replica, stripe and parity block, the four
// invariants replica-count, core-rack-copy, rack-spread and partial-delete,
// and the window ledger) over recorded placement, flagging any state —
// including *transient* state that later self-corrects — that violates what
// EAR promises.
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
	"sync"

	"ear/internal/events"
	"ear/internal/events/layout"
	"ear/internal/topology"
)

// Invariant names one checked property.
type Invariant = layout.Invariant

// The audited invariants.
const (
	InvReplicaCount  = layout.ReplicaCount
	InvCoreRackCopy  = layout.CoreRackCopy
	InvRackSpread    = layout.RackSpread
	InvPartialDelete = layout.PartialDelete
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
type Violation = layout.Window

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

// Auditor consumes the event stream and maintains the invariant state. All
// methods are safe for concurrent use; Attach subscribes it to a journal.
type Auditor struct {
	mu     sync.Mutex
	events uint64
	eng    *layout.Engine
}

// New builds an auditor for the given topology and thresholds.
func New(top *topology.Topology, cfg Config) *Auditor {
	return &Auditor{eng: layout.New(layout.Rules{
		Replicas: cfg.Replicas, Top: top, C: cfg.C, CheckCoreRack: cfg.CheckCoreRack,
	})}
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
	a.eng.Observe(e)
}

// Reset forgets everything folded so far, so a replayed stream (the
// recovered-state backfill) rebuilds the model from scratch.
func (a *Auditor) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = 0
	a.eng.Reset()
}

// Report summarizes the audit so far. Violations are in opening order (the
// ledger's), so sorted by opening sequence number.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.eng.Totals()
	r := Report{Events: a.events, Blocks: t.Blocks, Stripes: t.Stripes, Encoded: t.Encoded}
	for _, v := range a.eng.Windows {
		if v.Transient() {
			r.Transient = append(r.Transient, v)
		} else {
			r.Ongoing = append(r.Ongoing, v)
		}
	}
	r.Clean = len(a.eng.Windows) == 0
	return r
}
