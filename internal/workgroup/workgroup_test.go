package workgroup

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestZeroValueRunsAll(t *testing.T) {
	var g Group
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		g.Go(func() error {
			n.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n.Load() != 10 {
		t.Errorf("ran %d goroutines, want 10", n.Load())
	}
}

func TestFirstErrorWinsAndCancels(t *testing.T) {
	g, ctx := WithContext(context.Background())
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Go(func() error {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("context not canceled on first error")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if ctx.Err() == nil {
		t.Error("group context still live after Wait")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, boom) {
		t.Errorf("cancel cause = %v, want boom", cause)
	}
}

func TestWaitCancelsContextOnSuccess(t *testing.T) {
	g, ctx := WithContext(context.Background())
	g.Go(func() error { return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("context not canceled after successful Wait")
	}
}
