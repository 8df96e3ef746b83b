package mapred

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ear/internal/telemetry"
	"ear/internal/topology"
)

func mustTop(t *testing.T, racks, nodes int) *topology.Topology {
	t.Helper()
	top, err := topology.New(racks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewJobTrackerValidation(t *testing.T) {
	if _, err := NewJobTracker(mustTop(t, 2, 2), 0); err == nil {
		t.Error("0 slots: expected error")
	}
}

func TestSubmitRunsAllTasks(t *testing.T) {
	jt, err := NewJobTracker(mustTop(t, 2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	var mu sync.Mutex
	ran := map[string]bool{}
	job := Job{Name: "j"}
	for _, name := range []string{"t1", "t2", "t3"} {
		name := name
		job.Tasks = append(job.Tasks, &Task{
			Name:      name,
			Preferred: AnyNode,
			Run: func(_ context.Context, on topology.NodeID) error {
				mu.Lock()
				ran[name] = true
				mu.Unlock()
				return nil
			},
		})
	}
	placements, err := jt.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(placements) != 3 || len(ran) != 3 {
		t.Fatalf("placements %d, ran %d", len(placements), len(ran))
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for node, free := range jt.free {
		if free != 2 {
			t.Errorf("node %d has %d free slots after completion, want 2", node, free)
		}
	}
}

func TestPreferredNodeHonoredWhenFree(t *testing.T) {
	jt, err := NewJobTracker(mustTop(t, 3, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	job := Job{Name: "local", Tasks: []*Task{{
		Name:      "t",
		Preferred: 4,
		Run:       func(_ context.Context, on topology.NodeID) error { return nil },
	}}}
	placements, err := jt.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Node != 4 || !placements[0].Local || !placements[0].Rack {
		t.Fatalf("placement = %+v, want node 4 local", placements[0])
	}
}

func TestRackFallback(t *testing.T) {
	// Occupy the preferred node's only slot; the task must land on a
	// same-rack node.
	top := mustTop(t, 2, 3) // rack 0: nodes 0-2
	jt, err := NewJobTracker(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	blocker := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := jt.Submit(Job{Name: "hog", Tasks: []*Task{{
			Name:      "hog",
			Preferred: 1,
			Run: func(_ context.Context, on topology.NodeID) error {
				close(started)
				<-blocker
				return nil
			},
		}}})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	placements, err := jt.Submit(Job{Name: "task", Tasks: []*Task{{
		Name:      "t",
		Preferred: 1,
		Run:       func(_ context.Context, on topology.NodeID) error { return nil },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Local {
		t.Error("task should not be local (slot busy)")
	}
	if !placements[0].Rack {
		t.Errorf("task ran on node %d, want same rack as 1", placements[0].Node)
	}
	close(blocker)
	wg.Wait()
}

func TestStrictRackWaitsInsteadOfSpilling(t *testing.T) {
	// All slots in rack 0 busy: a strict task waits; a non-strict task
	// spills to another rack immediately.
	top := mustTop(t, 2, 1) // 1 node per rack
	jt, err := NewJobTracker(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	release := make(chan struct{})
	hogStarted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = jt.Submit(Job{Name: "hog", Tasks: []*Task{{
			Name: "hog", Preferred: 0,
			Run: func(_ context.Context, on topology.NodeID) error {
				close(hogStarted)
				<-release
				return nil
			},
		}}})
	}()
	<-hogStarted

	// Non-strict spills to node 1 (rack 1).
	placements, err := jt.Submit(Job{Name: "spill", Tasks: []*Task{{
		Name: "s", Preferred: 0,
		Run: func(_ context.Context, on topology.NodeID) error { return nil },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Node != 1 {
		t.Errorf("non-strict ran on %d, want spill to 1", placements[0].Node)
	}

	// Strict waits until the hog releases.
	strictDone := make(chan Placement, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pl, err := jt.Submit(Job{Name: "strict", Tasks: []*Task{{
			Name: "st", Preferred: 0, StrictRack: true,
			Run: func(_ context.Context, on topology.NodeID) error { return nil },
		}}})
		if err != nil {
			t.Error(err)
			return
		}
		strictDone <- pl[0]
	}()
	select {
	case <-strictDone:
		t.Fatal("strict task ran while rack was full")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case pl := <-strictDone:
		if pl.Node != 0 {
			t.Errorf("strict ran on %d, want 0", pl.Node)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("strict task never ran after release")
	}
	wg.Wait()
}

func TestSubmitErrors(t *testing.T) {
	jt, err := NewJobTracker(mustTop(t, 2, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = jt.Submit(Job{Name: "bad", Tasks: []*Task{
		{Name: "ok", Preferred: AnyNode, Run: func(context.Context, topology.NodeID) error { return nil }},
		{Name: "fail", Preferred: AnyNode, Run: func(context.Context, topology.NodeID) error { return boom }},
	}})
	if !errors.Is(err, boom) {
		t.Errorf("Submit error = %v, want boom", err)
	}
	if _, err := jt.Submit(Job{Name: "nil", Tasks: []*Task{nil}}); !errors.Is(err, ErrBadTask) {
		t.Errorf("nil task: %v", err)
	}
	if _, err := jt.Submit(Job{Name: "nobody", Tasks: []*Task{{Name: "x"}}}); !errors.Is(err, ErrBadTask) {
		t.Errorf("nil Run: %v", err)
	}
	_, err = jt.Submit(Job{Name: "strictany", Tasks: []*Task{{
		Name: "x", Preferred: AnyNode, StrictRack: true,
		Run: func(context.Context, topology.NodeID) error { return nil },
	}}})
	if !errors.Is(err, ErrBadTask) {
		t.Errorf("strict without preferred: %v", err)
	}
	_, err = jt.Submit(Job{Name: "badpref", Tasks: []*Task{{
		Name: "x", Preferred: 99,
		Run: func(context.Context, topology.NodeID) error { return nil },
	}}})
	if !errors.Is(err, ErrBadTask) {
		t.Errorf("bad preferred node: %v", err)
	}
	jt.Close()
	if _, err := jt.Submit(Job{Name: "late"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v", err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	top := mustTop(t, 1, 1)
	jt, err := NewJobTracker(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = jt.Submit(Job{Name: "hog", Tasks: []*Task{{
			Name: "h", Preferred: 0,
			Run: func(context.Context, topology.NodeID) error {
				close(started)
				<-release
				return nil
			},
		}}})
	}()
	<-started
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := jt.Submit(Job{Name: "waiter", Tasks: []*Task{{
			Name: "w", Preferred: 0, StrictRack: true,
			Run: func(context.Context, topology.NodeID) error { return nil },
		}}})
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	jt.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("waiter error = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by Close")
	}
	close(release)
	wg.Wait()
}

func TestConcurrentJobsShareSlots(t *testing.T) {
	top := mustTop(t, 2, 2)
	jt, err := NewJobTracker(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	task := func(context.Context, topology.NodeID) error {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	}
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]*Task, 4)
			for i := range tasks {
				tasks[i] = &Task{Name: "t", Preferred: AnyNode, Run: task}
			}
			if _, err := jt.Submit(Job{Name: "j", Tasks: tasks}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if maxInFlight > 8 {
		t.Errorf("max in-flight %d exceeds 8 total slots", maxInFlight)
	}
	if maxInFlight < 3 {
		t.Errorf("max in-flight %d: no parallelism observed", maxInFlight)
	}
}

func TestGenerateSwim(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	jobs, err := GenerateSwim(SwimConfig{Jobs: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	var prev time.Duration
	for i, j := range jobs {
		if j.Arrival < prev {
			t.Fatalf("job %d arrives before predecessor", i)
		}
		prev = j.Arrival
		if j.InputBlocks < 1 || j.Maps < 1 || j.Maps > 8 {
			t.Fatalf("job %d malformed: %+v", i, j)
		}
		if j.ShuffleMB < 0 || j.OutputBlocks < 0 {
			t.Fatalf("job %d negative volume: %+v", i, j)
		}
	}
	// Heavy-tailed inputs: some variety expected.
	small, big := 0, 0
	for _, j := range jobs {
		if j.InputBlocks <= 2 {
			small++
		}
		if j.InputBlocks >= 8 {
			big++
		}
	}
	if small == 0 || big == 0 {
		t.Errorf("workload not heavy-tailed: %d small, %d big", small, big)
	}
	// Reproducibility.
	again, err := GenerateSwim(SwimConfig{Jobs: 50}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
}

func TestGenerateSwimValidation(t *testing.T) {
	if _, err := GenerateSwim(SwimConfig{Jobs: -1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative jobs: expected error")
	}
	if _, err := GenerateSwim(SwimConfig{}, nil); err == nil {
		t.Error("nil rng: expected error")
	}
}

func TestJobTrackerTelemetry(t *testing.T) {
	top := mustTop(t, 2, 2)
	jt, err := NewJobTracker(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	reg := telemetry.NewRegistry()
	jt.SetTelemetry(reg)

	if got := reg.Gauge("mapred_slots_total", "").With().Value(); got != 4 {
		t.Errorf("mapred_slots_total = %g, want 4", got)
	}

	busy := reg.Gauge("mapred_slots_busy", "").With()
	release := make(chan struct{})
	var job Job
	for i := 0; i < 4; i++ {
		job.Tasks = append(job.Tasks, &Task{
			Name:      "t",
			Preferred: 0, // all prefer node 0: three run rack/remote
			Run: func(context.Context, topology.NodeID) error {
				<-release
				return nil
			},
		})
	}
	done := make(chan error, 1)
	go func() {
		_, err := jt.Submit(job)
		done <- err
	}()
	// Wait until every slot is claimed.
	deadline := time.Now().Add(5 * time.Second)
	for busy.Value() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("slots busy = %g, want 4", busy.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := busy.Value(); got != 0 {
		t.Errorf("busy after completion = %g, want 0", got)
	}
	if got := reg.Gauge("mapred_tasks_waiting", "").With().Value(); got != 0 {
		t.Errorf("waiting after completion = %g, want 0", got)
	}
	loc := reg.Counter("mapred_tasks_total", "", "locality")
	total := loc.With("node").Value() + loc.With("rack").Value() + loc.With("remote").Value()
	if total != 4 {
		t.Errorf("locality totals = %g, want 4", total)
	}
	if loc.With("node").Value() != 1 {
		t.Errorf("node-local = %g, want 1", loc.With("node").Value())
	}
}

func TestSubmitCtxCancelWakesSlotWaiters(t *testing.T) {
	top := mustTop(t, 1, 1)
	jt, err := NewJobTracker(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = jt.Submit(Job{Name: "hog", Tasks: []*Task{{
			Name: "h", Preferred: 0,
			Run: func(_ context.Context, _ topology.NodeID) error {
				close(started)
				<-release
				return nil
			},
		}}})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := jt.SubmitCtx(ctx, Job{Name: "waiter", Tasks: []*Task{{
			Name: "w", Preferred: 0, StrictRack: true,
			Run: func(context.Context, topology.NodeID) error { return nil },
		}}})
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot waiter not woken by context cancellation")
	}
	close(release)
	wg.Wait()
}

// TestSubmitCtxRecordsOnlyScheduledTasks cancels a job while one of its
// strict tasks waits for the only slot of its rack, which its sibling holds:
// the placements name the sibling alone, not a zero Placement for the task
// that never ran.
func TestSubmitCtxRecordsOnlyScheduledTasks(t *testing.T) {
	jt, err := NewJobTracker(mustTop(t, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	running := make(chan struct{})
	task := func(name string) *Task {
		return &Task{Name: name, Preferred: 1, StrictRack: true, Run: func(ctx context.Context, _ topology.NodeID) error {
			close(running)
			<-ctx.Done()
			return ctx.Err()
		}}
	}
	go func() {
		<-running
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	placements, err := jt.SubmitCtx(ctx, Job{Name: "j", Tasks: []*Task{task("a"), task("b")}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("SubmitCtx = %v, want context.Canceled", err)
	}
	if len(placements) != 1 || placements[0].Node != 1 || !placements[0].Local {
		t.Errorf("placements %+v, want the one task that ran, on node 1", placements)
	}
}

func TestTaskFailureCancelsJobContext(t *testing.T) {
	jt, err := NewJobTracker(mustTop(t, 2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	boom := errors.New("boom")
	sawCancel := make(chan struct{}, 1)
	// The failing task waits for its sibling to be running: a failure before
	// the sibling holds a slot would leave it nothing to observe.
	watching := make(chan struct{})
	_, err = jt.Submit(Job{Name: "j", Tasks: []*Task{
		{Name: "fail", Preferred: AnyNode, Run: func(context.Context, topology.NodeID) error {
			<-watching
			return boom
		}},
		{Name: "watch", Preferred: AnyNode, Run: func(ctx context.Context, _ topology.NodeID) error {
			close(watching)
			select {
			case <-ctx.Done():
				sawCancel <- struct{}{}
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("job context not canceled after sibling failure")
			}
		}},
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("Submit = %v, want boom", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Error("sibling task never observed the cancellation")
	}
}
