// Package sim is a process-oriented discrete-event simulation kernel in the
// style of CSIM 20, the library the paper's Section V-B simulator is built
// on. Simulated processes are goroutines scheduled one at a time by a
// deterministic event loop; they advance simulated time with Hold and
// contend for Facility resources (FIFO servers held for a duration, the
// CSIM reserve/hold/release model used to simulate link bandwidth).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Errors returned by the kernel.
var (
	// ErrNotRunning indicates an operation that requires an active Run.
	ErrNotRunning = errors.New("sim: simulation not running")
	// ErrBadDuration indicates a negative hold or service time.
	ErrBadDuration = errors.New("sim: negative duration")
)

// event is a scheduled occurrence: either a process resumption or a
// callback.
type event struct {
	time float64
	seq  uint64 // FIFO tie-break for equal timestamps
	proc *Proc
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Sim is one simulation run. Create with New, add processes with Spawn, and
// execute with Run. A Sim is not reusable after Run returns.
type Sim struct {
	now    float64
	seq    uint64
	queue  eventHeap
	yield  chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	err    error
	closed bool
}

// New returns an empty simulation at time zero.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}),
		stop:  make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() float64 { return s.now }

// schedule enqueues an event at absolute time t.
func (s *Sim) schedule(t float64, p *Proc, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{time: t, seq: s.seq, proc: p, fn: fn})
}

// At schedules a callback at the given absolute time. Callbacks run inside
// the scheduler and must not block; use Spawn for anything that holds or
// reserves.
func (s *Sim) At(t float64, fn func()) error {
	if t < s.now {
		return fmt.Errorf("%w: schedule at %g before now %g", ErrBadDuration, t, s.now)
	}
	s.schedule(t, nil, fn)
	return nil
}

// Proc is a simulated process. All methods must be called from the process's
// own goroutine (the function passed to Spawn).
type Proc struct {
	sim  *Sim
	wake chan struct{}
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a process that begins executing fn at now+delay. fn's error,
// if any, aborts the simulation: Run returns it.
func (s *Sim) Spawn(name string, delay float64, fn func(p *Proc) error) error {
	if delay < 0 {
		return fmt.Errorf("%w: spawn delay %g", ErrBadDuration, delay)
	}
	if s.closed {
		return ErrNotRunning
	}
	p := &Proc{sim: s, wake: make(chan struct{}, 1)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		p.waitWake()
		if err := fn(p); err != nil && s.err == nil {
			s.err = fmt.Errorf("process %s: %w", name, err)
		}
		s.yieldToScheduler()
	}()
	s.schedule(s.now+delay, p, nil)
	return nil
}

// waitWake parks the process until the scheduler resumes it. If the
// simulation shuts down first, the goroutine exits (running its defers).
func (p *Proc) waitWake() {
	select {
	case <-p.wake:
	case <-p.sim.stop:
		runtime.Goexit()
	}
}

// yieldToScheduler hands control back to the event loop.
func (s *Sim) yieldToScheduler() {
	select {
	case s.yield <- struct{}{}:
	case <-s.stop:
		runtime.Goexit()
	}
}

// Hold advances the process's simulated time by d.
func (p *Proc) Hold(d float64) error {
	if d < 0 {
		return fmt.Errorf("%w: hold %g", ErrBadDuration, d)
	}
	s := p.sim
	s.schedule(s.now+d, p, nil)
	s.yieldToScheduler()
	p.waitWake()
	return nil
}

// block parks the process without scheduling a resumption; some other
// component (a facility release) must wake it via wakeAt.
func (p *Proc) block() {
	p.sim.yieldToScheduler()
	p.waitWake()
}

// wakeAt schedules the process to resume at the given absolute time.
func (p *Proc) wakeAt(t float64) {
	p.sim.schedule(t, p, nil)
}

// Run executes events until the queue empties, until the optional time
// limit (until > 0) passes, or until a process fails. On return all process
// goroutines have exited.
func (s *Sim) Run(until float64) error {
	if s.closed {
		return ErrNotRunning
	}
	defer func() {
		s.closed = true
		close(s.stop)
		s.wg.Wait()
	}()
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*event)
		if until > 0 && ev.time > until {
			s.now = until
			break
		}
		s.now = ev.time
		if ev.fn != nil {
			ev.fn()
			continue
		}
		// Resume the process and wait for it to park again.
		ev.proc.wake <- struct{}{}
		<-s.yield
		if s.err != nil {
			return s.err
		}
	}
	return s.err
}
