package sim

import (
	"errors"
	"math"
	"testing"
)

func TestHoldAdvancesTime(t *testing.T) {
	s := New()
	var times []float64
	err := s.Spawn("p", 0, func(p *Proc) error {
		times = append(times, p.Now())
		if err := p.Hold(5); err != nil {
			return err
		}
		times = append(times, p.Now())
		if err := p.Hold(2.5); err != nil {
			return err
		}
		times = append(times, p.Now())
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []float64{0, 5, 7.5}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if s.Now() != 7.5 {
		t.Errorf("final Now = %g, want 7.5", s.Now())
	}
}

func TestSpawnDelay(t *testing.T) {
	s := New()
	var started float64
	if err := s.Spawn("late", 3, func(p *Proc) error {
		started = p.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if started != 3 {
		t.Errorf("started at %g, want 3", started)
	}
	if err := s.Spawn("x", -1, func(p *Proc) error { return nil }); !errors.Is(err, ErrBadDuration) {
		t.Errorf("negative delay: %v", err)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	// Two processes with interleaved holds must execute in timestamp order,
	// with FIFO tie-breaking at equal times.
	s := New()
	var order []string
	mark := func(tag string) { order = append(order, tag) }
	if err := s.Spawn("a", 0, func(p *Proc) error {
		mark("a0")
		_ = p.Hold(10)
		mark("a10")
		_ = p.Hold(10)
		mark("a20")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Spawn("b", 5, func(p *Proc) error {
		mark("b5")
		_ = p.Hold(5)
		mark("b10")
		_ = p.Hold(15)
		mark("b25")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a0", "b5", "a10", "b10", "a20", "b25"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	if err := s.Spawn("ticker", 0, func(p *Proc) error {
		for {
			if err := p.Hold(1); err != nil {
				return err
			}
			count++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10.5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if s.Now() != 10.5 {
		t.Errorf("Now = %g, want 10.5", s.Now())
	}
	// A finished simulation cannot be reused.
	if err := s.Run(20); !errors.Is(err, ErrNotRunning) {
		t.Errorf("second Run: %v", err)
	}
	if err := s.Spawn("late", 0, func(p *Proc) error { return nil }); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Spawn after Run: %v", err)
	}
}

func TestProcessErrorAborts(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	if err := s.Spawn("bad", 1, func(p *Proc) error { return boom }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := s.Spawn("later", 2, func(p *Proc) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	err := s.Run(0)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if ran {
		t.Error("process scheduled after failure still ran")
	}
}

func TestAtCallback(t *testing.T) {
	s := New()
	var at float64 = -1
	if err := s.At(4, func() { at = s.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 4 {
		t.Errorf("callback at %g, want 4", at)
	}
	s2 := New()
	_ = s2.Spawn("x", 5, func(p *Proc) error { return nil })
	if err := s2.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := s2.At(1, func() {}); err == nil {
		t.Error("At in the past should error")
	}
}

func TestHoldNegative(t *testing.T) {
	s := New()
	var holdErr error
	_ = s.Spawn("p", 0, func(p *Proc) error {
		holdErr = p.Hold(-1)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(holdErr, ErrBadDuration) {
		t.Errorf("Hold(-1) = %v", holdErr)
	}
}

func TestFacilitySerializesAccess(t *testing.T) {
	// Two processes share a single-server facility with service time 10;
	// the second must wait for the first.
	s := New()
	f, err := s.NewFacility("link", 1)
	if err != nil {
		t.Fatal(err)
	}
	var doneA, doneB float64
	_ = s.Spawn("a", 0, func(p *Proc) error {
		if err := f.Use(p, 10); err != nil {
			return err
		}
		doneA = p.Now()
		return nil
	})
	_ = s.Spawn("b", 1, func(p *Proc) error {
		if err := f.Use(p, 10); err != nil {
			return err
		}
		doneB = p.Now()
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if doneA != 10 || doneB != 20 {
		t.Errorf("completion times (%g, %g), want (10, 20)", doneA, doneB)
	}
	if f.Completed() != 2 {
		t.Errorf("Completed = %d, want 2", f.Completed())
	}
	// Utilization: busy from 0..20 of a 20-long run = 1.0.
	if u := f.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Errorf("Utilization = %g, want 1", u)
	}
}

func TestFacilityFIFOOrder(t *testing.T) {
	s := New()
	f, err := s.NewFacility("link", 1)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		_ = s.Spawn(name, 0, func(p *Proc) error {
			if err := f.Use(p, 1); err != nil {
				return err
			}
			order = append(order, name)
			return nil
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("order = %v, want FIFO", order)
	}
}

func TestFacilityMultiServer(t *testing.T) {
	s := New()
	f, err := s.NewFacility("dual", 2)
	if err != nil {
		t.Fatal(err)
	}
	var finish []float64
	for i := 0; i < 4; i++ {
		_ = s.Spawn("p", 0, func(p *Proc) error {
			if err := f.Use(p, 10); err != nil {
				return err
			}
			finish = append(finish, p.Now())
			return nil
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two at t=10, two at t=20.
	if len(finish) != 4 || finish[0] != 10 || finish[1] != 10 || finish[2] != 20 || finish[3] != 20 {
		t.Fatalf("finish = %v", finish)
	}
	if f.Servers() != 2 || f.Name() != "dual" {
		t.Error("accessors wrong")
	}
}

func TestFacilityValidation(t *testing.T) {
	s := New()
	if _, err := s.NewFacility("bad", 0); err == nil {
		t.Error("0 servers: expected error")
	}
	f, _ := s.NewFacility("ok", 1)
	var useErr error
	_ = s.Spawn("p", 0, func(p *Proc) error {
		useErr = f.Use(p, -5)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(useErr, ErrBadDuration) {
		t.Errorf("Use(-5) = %v", useErr)
	}
}

func TestReserveManyNoDeadlockWithOrder(t *testing.T) {
	// Two processes acquiring two facilities in the same canonical order
	// must serialize cleanly.
	s := New()
	f1, _ := s.NewFacility("l1", 1)
	f2, _ := s.NewFacility("l2", 1)
	var finish []float64
	for i := 0; i < 2; i++ {
		_ = s.Spawn("p", 0, func(p *Proc) error {
			fs := []*Facility{f1, f2}
			ReserveMany(p, fs)
			if err := p.Hold(5); err != nil {
				return err
			}
			ReleaseMany(fs)
			finish = append(finish, p.Now())
			return nil
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(finish) != 2 || finish[0] != 5 || finish[1] != 10 {
		t.Fatalf("finish = %v, want [5 10]", finish)
	}
}

func TestFacilityStats(t *testing.T) {
	s := New()
	f, _ := s.NewFacility("link", 1)
	_ = s.Spawn("busy", 0, func(p *Proc) error {
		if err := f.Use(p, 5); err != nil {
			return err
		}
		return p.Hold(5) // idle period
	})
	_ = s.Spawn("waiter", 0, func(p *Proc) error {
		return f.Use(p, 0) // queued behind busy for 5, then instant
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Busy 5 of 10 => utilization 0.5; one waiter queued 5 of 10 => 0.5.
	if u := f.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("Utilization = %g, want 0.5", u)
	}
	if q := f.MeanQueueLen(); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("MeanQueueLen = %g, want 0.5", q)
	}
}

func TestBlockedProcessesCleanedUpOnShutdown(t *testing.T) {
	// A process waiting forever on a facility must not leak when Run ends;
	// Run joins all goroutines before returning.
	s := New()
	f, _ := s.NewFacility("link", 1)
	_ = s.Spawn("holder", 0, func(p *Proc) error {
		f.Reserve(p)
		return p.Hold(100) // never releases within limit
	})
	_ = s.Spawn("stuck", 1, func(p *Proc) error {
		f.Reserve(p) // blocks forever
		return errors.New("should never run")
	})
	if err := s.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1 stuck waiter", f.QueueLen())
	}
}

func TestZeroDurationEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := s.At(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}
