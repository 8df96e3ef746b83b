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

// JobTracker schedules tasks onto per-node slots. Multiple Submit calls may
// run concurrently; slots are shared across jobs.
type JobTracker struct {
	top          *topology.Topology
	slotsPerNode int

	mu     sync.Mutex
	cond   *sync.Cond
	free   []int // free slots per node
	closed bool

	// Telemetry handles, set by SetTelemetry (guarded by mu); nil when
	// unobserved.
	mWaiting  *telemetry.Metric
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

// noteScheduled records a task placement's locality class.
func (jt *JobTracker) noteScheduled(t *Task, pl Placement) {
	jt.mu.Lock()
	locality := jt.mLocality
	jt.mu.Unlock()
	level := "remote"
	switch {
	case t.Preferred == AnyNode:
		level = "any"
	case pl.Local:
		level = "node"
	case pl.Rack:
		level = "rack"
	}
	if j := jt.jrn.Load(); j != nil {
		ev := events.New(events.TaskScheduled, "mapred")
		ev.Node = pl.Node
		ev.Detail = pl.Task + " locality=" + level
		j.Publish(ev)
	}
	if locality == nil {
		return
	}
	locality.With(level).Inc()
}

// Close rejects future submissions and wakes any waiting tasks so they can
// observe the shutdown. In-flight tasks complete.
func (jt *JobTracker) Close() {
	jt.mu.Lock()
	jt.closed = true
	jt.mu.Unlock()
	jt.cond.Broadcast()
}

// acquire blocks until a slot compatible with the task is free, claims it,
// and returns the node. It prefers the exact node, then the rack, then (for
// non-strict tasks) any node. A canceled context aborts the wait (SubmitCtx
// broadcasts the condition variable on cancellation).
func (jt *JobTracker) acquire(ctx context.Context, t *Task) (topology.NodeID, error) {
	var rackNodes []topology.NodeID
	if t.Preferred != AnyNode {
		rack, err := jt.top.RackOf(t.Preferred)
		if err != nil {
			return 0, fmt.Errorf("%w: %q preferred node: %v", ErrBadTask, t.Name, err)
		}
		rackNodes, err = jt.top.NodesInRack(rack)
		if err != nil {
			return 0, err
		}
	} else if t.StrictRack {
		return 0, fmt.Errorf("%w: %q strict without preferred node", ErrBadTask, t.Name)
	}

	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.mWaiting != nil {
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
		if t.Preferred != AnyNode && jt.free[t.Preferred] > 0 {
			return jt.grant(t.Preferred), nil
		}
		if t.Preferred != AnyNode {
			for _, n := range rackNodes {
				if jt.free[n] > 0 {
					return jt.grant(n), nil
				}
			}
		}
		if !t.StrictRack {
			for n := range jt.free {
				if jt.free[n] > 0 {
					return jt.grant(topology.NodeID(n)), nil
				}
			}
		}
		jt.cond.Wait()
	}
}

// grant claims one slot on n. The caller holds jt.mu.
func (jt *JobTracker) grant(n topology.NodeID) topology.NodeID {
	jt.free[n]--
	if jt.mBusy != nil {
		jt.mBusy.Inc()
	}
	return n
}

// release frees the slot on node n.
func (jt *JobTracker) release(n topology.NodeID) {
	jt.mu.Lock()
	jt.free[n]++
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

// SubmitCtx is Submit under a context: the first task failure — or a
// cancellation of ctx — cancels the job context handed to every task, so
// running tasks can abort their in-flight transfers and tasks still waiting
// for a slot give up instead of running. Placements are recorded for the
// tasks that were actually scheduled.
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
	// Slot waiters block on the condition variable; wake them when the job
	// context dies so they observe the cancellation.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-jobCtx.Done():
			// Take the lock so a waiter that checked the context but has
			// not yet parked on the condition variable cannot miss the wake.
			jt.mu.Lock()
			jt.cond.Broadcast()
			jt.mu.Unlock()
		case <-watchDone:
		}
	}()
	placements := make([]Placement, len(job.Tasks))
	for i, t := range job.Tasks {
		i, t := i, t
		g.Go(func() error {
			node, err := jt.acquire(jobCtx, t)
			if err != nil {
				return err
			}
			defer jt.release(node)
			pl := Placement{Task: t.Name, Node: node}
			if t.Preferred != AnyNode {
				pl.Local = node == t.Preferred
				same, err := jt.top.SameRack(node, t.Preferred)
				if err == nil {
					pl.Rack = same
				}
			}
			placements[i] = pl
			jt.noteScheduled(t, pl)
			return t.Run(jobCtx, node)
		})
	}
	err := g.Wait()
	close(watchDone)
	if err != nil {
		return placements, fmt.Errorf("job %q: %w", job.Name, err)
	}
	return placements, nil
}
