// Package mapred is a miniature map-only MapReduce framework reproducing
// the scheduling behaviour the paper's HDFS integration relies on (Section
// IV): a JobTracker assigns map tasks to per-node TaskTracker slots,
// honoring a task's preferred node by locality (node, then rack, then
// anywhere), and an "encoding job" flag that restricts a task strictly to
// the preferred node's rack — the paper's third HDFS modification, which
// guarantees EAR's encoding maps run inside the core rack.
package mapred

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ear/internal/events"
	"ear/internal/telemetry"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// Errors returned by the package.
var (
	// ErrClosed indicates a Submit after Close.
	ErrClosed = errors.New("mapred: job tracker closed")
	// ErrBadTask indicates an unrunnable task definition.
	ErrBadTask = errors.New("mapred: bad task")
)

// AnyNode marks a task with no placement preference.
const AnyNode topology.NodeID = -1

// Task is one map task. Run receives the job's context and the node the
// scheduler placed it on; the context is canceled when the submission's
// context is canceled or another task of the job fails, and task bodies
// should pass it into any shaped transfers so in-flight work aborts.
type Task struct {
	Name string
	// Preferred is the node the task would like to run on (AnyNode for no
	// preference). The scheduler falls back to the preferred node's rack,
	// then to any node — unless StrictRack pins it to the rack.
	Preferred topology.NodeID
	// StrictRack confines the task to the preferred node's rack, the
	// encoding-job flag of Section IV-B.
	StrictRack bool
	Run        func(ctx context.Context, ranOn topology.NodeID) error
}

// Job is a named set of map tasks (map-only: no reduce phase, like the
// HDFS-RAID encoding jobs).
type Job struct {
	Name  string
	Tasks []*Task
}

// Placement records where a task ran, for locality assertions in tests and
// experiments.
type Placement struct {
	Task  string
	Node  topology.NodeID
	Local bool // ran on the preferred node
	Rack  bool // ran in the preferred node's rack
}

// JobTracker schedules tasks onto per-node slots, shared across jobs: Submit
// runs a job's tasks, and a caller that runs its own claims and frees their
// slots with Place and Release. Any of them may run concurrently.
type JobTracker struct {
	top          *topology.Topology
	slotsPerNode int

	mu     sync.Mutex
	cond   *sync.Cond
	free   []int // free slots per node
	closed bool

	// Telemetry handles, set by SetTelemetry (guarded by mu); nil when
	// unobserved.
	mWaiting  *telemetry.Metric // tasks blocked in Place
	mBusy     *telemetry.Metric
	mLocality *telemetry.Vec

	// jrn is the cluster event journal (atomic so installation never races
	// with in-flight submissions; nil means unjournaled).
	jrn atomic.Pointer[events.Journal]
}

// NewJobTracker creates a tracker with the given map slots per node (the
// paper's Experiment A.3 configures four).
func NewJobTracker(top *topology.Topology, slotsPerNode int) (*JobTracker, error) {
	if slotsPerNode <= 0 {
		return nil, fmt.Errorf("mapred: slots per node must be positive, got %d", slotsPerNode)
	}
	jt := &JobTracker{
		top:          top,
		slotsPerNode: slotsPerNode,
		free:         make([]int, top.Nodes()),
	}
	for i := range jt.free {
		jt.free[i] = slotsPerNode
	}
	jt.cond = sync.NewCond(&jt.mu)
	return jt, nil
}

// SetTelemetry publishes the tracker's scheduling metrics into the
// registry: mapred_tasks_waiting (queue depth), mapred_slots_busy and
// mapred_slots_total (slot utilization), and mapred_tasks_total{locality}
// (locality hit rate: node / rack / remote / any). Call it before
// submitting jobs.
func (jt *JobTracker) SetTelemetry(reg *telemetry.Registry) {
	waiting := reg.Gauge("mapred_tasks_waiting",
		"Map tasks blocked waiting for a compatible slot.").With()
	busy := reg.Gauge("mapred_slots_busy",
		"Map slots currently running tasks.").With()
	reg.Gauge("mapred_slots_total",
		"Configured map slots across the cluster.").With().
		Set(float64(jt.slotsPerNode * jt.top.Nodes()))
	locality := reg.Counter("mapred_tasks_total",
		"Scheduled map tasks by achieved locality (node, rack, remote, any).", "locality")
	jt.mu.Lock()
	jt.mWaiting, jt.mBusy, jt.mLocality = waiting, busy, locality
	jt.mu.Unlock()
}

// SetJournal installs the cluster event journal; every task placement
// publishes a TaskScheduled event into it. nil detaches.
func (jt *JobTracker) SetJournal(j *events.Journal) { jt.jrn.Store(j) }

// Close rejects future submissions and wakes any waiting tasks so they can
// observe the shutdown. In-flight tasks complete.
func (jt *JobTracker) Close() {
	jt.mu.Lock()
	jt.closed = true
	jt.mu.Unlock()
	jt.cond.Broadcast()
}

// Place claims a slot compatible with the task and records the placement:
// its locality class and a TaskScheduled event. It prefers the exact node,
// then the rack, then (for non-strict tasks) any node. While none is free it
// waits until one is, ctx is canceled or the tracker closes; told not to
// wait, it returns ok false at once and claims nothing. Release hands the
// slot back.
func (jt *JobTracker) Place(ctx context.Context, t *Task, wait bool) (pl Placement, ok bool, err error) {
	var order []topology.NodeID
	if t.Preferred != AnyNode {
		rack, err := jt.top.RackOf(t.Preferred)
		if err != nil {
			return pl, false, fmt.Errorf("%w: %q preferred node: %v", ErrBadTask, t.Name, err)
		}
		nodes, err := jt.top.NodesInRack(rack)
		if err != nil {
			return pl, false, err
		}
		order = append([]topology.NodeID{t.Preferred}, nodes...)
	} else if t.StrictRack {
		return pl, false, fmt.Errorf("%w: %q strict without preferred node", ErrBadTask, t.Name)
	}
	if !t.StrictRack {
		for n := range jt.free {
			order = append(order, topology.NodeID(n))
		}
	}
	if wait {
		// Take the lock so a waiter that checked ctx but has not yet parked on
		// the condition variable cannot miss the wake.
		stop := context.AfterFunc(ctx, func() {
			jt.mu.Lock()
			jt.cond.Broadcast()
			jt.mu.Unlock()
		})
		defer stop()
	}
	node, err := jt.acquire(ctx, order, wait)
	if err != nil || node == AnyNode {
		return pl, false, err
	}
	pl = Placement{Task: t.Name, Node: node}
	level := "any"
	if t.Preferred != AnyNode {
		pl.Local = node == t.Preferred
		pl.Rack, _ = jt.top.SameRack(node, t.Preferred)
		level = "remote"
		if pl.Rack {
			level = "rack"
		}
		if pl.Local {
			level = "node"
		}
	}
	if j := jt.jrn.Load(); j != nil {
		ev := events.New(events.TaskScheduled, "mapred")
		ev.Node, ev.Detail = pl.Node, pl.Task+" locality="+level
		j.Publish(ev)
	}
	jt.mu.Lock()
	if jt.mLocality != nil {
		jt.mLocality.With(level).Inc()
	}
	jt.mu.Unlock()
	return pl, true, nil
}

// acquire claims a slot on the first node of order with one free and returns
// the node. While none is free it waits, or returns AnyNode when told not to.
func (jt *JobTracker) acquire(ctx context.Context, order []topology.NodeID, wait bool) (topology.NodeID, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if wait && jt.mWaiting != nil {
		jt.mWaiting.Inc()
		defer jt.mWaiting.Dec()
	}
	for {
		if jt.closed {
			return 0, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, n := range order {
			if jt.free[n] > 0 {
				jt.free[n]--
				if jt.mBusy != nil {
					jt.mBusy.Inc()
				}
				return n, nil
			}
		}
		if !wait {
			return AnyNode, nil
		}
		jt.cond.Wait()
	}
}

// Release frees the slot a placement holds.
func (jt *JobTracker) Release(pl Placement) {
	jt.mu.Lock()
	jt.free[pl.Node]++
	if jt.mBusy != nil {
		jt.mBusy.Dec()
	}
	jt.mu.Unlock()
	jt.cond.Broadcast()
}

// Submit runs every task of the job and blocks until all finish, returning
// the first task error along with where each task executed.
func (jt *JobTracker) Submit(job Job) ([]Placement, error) {
	return jt.SubmitCtx(context.Background(), job)
}

// SubmitCtx is Submit under a context: each task runs on a goroutine of its
// own once Place grants it a slot. The first task failure — or a cancellation
// of ctx — cancels the job context handed to every task, so running tasks can
// abort their in-flight transfers and tasks still waiting for a slot give up.
// Placements are those of the scheduled tasks, in task order.
func (jt *JobTracker) SubmitCtx(ctx context.Context, job Job) ([]Placement, error) {
	jt.mu.Lock()
	if jt.closed {
		jt.mu.Unlock()
		return nil, ErrClosed
	}
	jt.mu.Unlock()
	for i, t := range job.Tasks {
		if t == nil || t.Run == nil {
			return nil, fmt.Errorf("%w: job %q task %d has no body", ErrBadTask, job.Name, i)
		}
	}
	g, jobCtx := workgroup.WithContext(ctx)
	placed := make([]*Placement, len(job.Tasks))
	for i, t := range job.Tasks {
		g.Go(func() error {
			pl, _, err := jt.Place(jobCtx, t, true)
			if err != nil {
				return err
			}
			defer jt.Release(pl)
			placed[i] = &pl
			return t.Run(jobCtx, pl.Node)
		})
	}
	err := g.Wait()
	var placements []Placement
	for _, pl := range placed {
		if pl != nil {
			placements = append(placements, *pl)
		}
	}
	if err != nil {
		return placements, fmt.Errorf("job %q: %w", job.Name, err)
	}
	return placements, nil
}
