package sim

import (
	"fmt"
)

// Facility is a CSIM-style resource: a set of identical servers with a FIFO
// wait queue. A process reserves a server (blocking while none is free),
// holds it for a service time, and releases it. Utilization and throughput
// statistics accumulate automatically.
type Facility struct {
	sim     *Sim
	name    string
	servers int

	busy    int
	waiters []*Proc

	// statistics
	lastChange   float64
	busyIntegral float64 // integral of busy server count over time
	queueLenInt  float64 // integral of queue length over time
	completed    int
}

// NewFacility creates a facility with the given number of servers.
func (s *Sim) NewFacility(name string, servers int) (*Facility, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("sim: facility %q needs positive servers, got %d", name, servers)
	}
	return &Facility{sim: s, name: name, servers: servers}, nil
}

// Name returns the facility name.
func (f *Facility) Name() string { return f.name }

// Servers returns the configured server count.
func (f *Facility) Servers() int { return f.servers }

// QueueLen returns the number of processes waiting for a server.
func (f *Facility) QueueLen() int { return len(f.waiters) }

// accumulate integrates statistics up to the current time.
func (f *Facility) accumulate() {
	now := f.sim.now
	dt := now - f.lastChange
	f.busyIntegral += dt * float64(f.busy)
	f.queueLenInt += dt * float64(len(f.waiters))
	f.lastChange = now
}

// Reserve blocks p until a server is available and claims it.
func (f *Facility) Reserve(p *Proc) {
	f.accumulate()
	if f.busy < f.servers {
		f.busy++
		return
	}
	f.waiters = append(f.waiters, p)
	p.block()
	// Ownership was transferred by Release; busy already accounts for us.
}

// Release frees p's server. If processes are waiting, the server transfers
// directly to the head of the queue, which resumes at the current time.
func (f *Facility) Release() {
	f.accumulate()
	f.completed++
	if len(f.waiters) > 0 {
		next := f.waiters[0]
		f.waiters = f.waiters[1:]
		next.wakeAt(f.sim.now)
		return // server stays busy, handed to next
	}
	f.busy--
}

// Use is the common reserve-hold-release cycle: p occupies one server for
// the given service time.
func (f *Facility) Use(p *Proc, serviceTime float64) error {
	if serviceTime < 0 {
		return fmt.Errorf("%w: service time %g on %q", ErrBadDuration, serviceTime, f.name)
	}
	f.Reserve(p)
	if err := p.Hold(serviceTime); err != nil {
		f.Release()
		return err
	}
	f.Release()
	return nil
}

// Utilization returns the time-averaged fraction of servers busy so far.
func (f *Facility) Utilization() float64 {
	f.accumulate()
	if f.sim.now == 0 {
		return 0
	}
	return f.busyIntegral / (f.sim.now * float64(f.servers))
}

// MeanQueueLen returns the time-averaged wait-queue length.
func (f *Facility) MeanQueueLen() float64 {
	f.accumulate()
	if f.sim.now == 0 {
		return 0
	}
	return f.queueLenInt / f.sim.now
}

// Completed returns the number of completed reservations.
func (f *Facility) Completed() int { return f.completed }

// ReserveMany reserves all the given facilities in order, blocking on each.
// Facilities must always be passed in a globally consistent order to avoid
// deadlock; the caller establishes that order (the CFS topology sorts links
// canonically).
func ReserveMany(p *Proc, fs []*Facility) {
	for _, f := range fs {
		f.Reserve(p)
	}
}

// ReleaseMany releases all the given facilities.
func ReleaseMany(fs []*Facility) {
	for _, f := range fs {
		f.Release()
	}
}
