// Package workgroup is a dependency-free errgroup: a Group runs a set of
// goroutines, propagates the first error, and cancels a shared context so
// the rest can abort early. It mirrors the golang.org/x/sync errgroup API so
// a later swap is mechanical.
package workgroup

import (
	"context"
	"sync"
)

// Group collects goroutines working on subtasks of a common task. The zero
// value is usable: no cancellation on error.
type Group struct {
	cancel context.CancelCauseFunc

	wg sync.WaitGroup

	errOnce sync.Once
	err     error
}

// WithContext returns a Group and a context derived from ctx that is
// canceled the first time a function passed to Go returns an error or Wait
// returns.
func WithContext(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancelCause(ctx)
	return &Group{cancel: cancel}, ctx
}

// Go runs f in a new goroutine. The first non-nil error cancels the group
// context and is returned by Wait.
func (g *Group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.errOnce.Do(func() {
				g.err = err
				if g.cancel != nil {
					g.cancel(err)
				}
			})
		}
	}()
}

// Wait blocks until every goroutine launched with Go has returned, then
// returns the first error (if any) and cancels the group context.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.cancel != nil {
		g.cancel(g.err)
	}
	return g.err
}
