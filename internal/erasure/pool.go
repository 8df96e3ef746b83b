package erasure

import (
	"sync"
	"sync/atomic"
)

// BufferPool recycles block-sized byte buffers, the scratch of a gather
// encode's downloads. It is a set of sync.Pools keyed by buffer size:
// stripe pipelines deal in a handful of fixed sizes (the configured block
// size, occasionally a short tail), so each size class stays hot while GC
// remains free to drop idle buffers under memory pressure. All methods are
// safe for concurrent use.
//
// Buffers returned by Get have arbitrary contents; callers that need zeroed
// memory must clear them.
type BufferPool struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool

	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool {
	return &BufferPool{pools: make(map[int]*sync.Pool)}
}

// sizeClass returns the pool for the given buffer size, creating it on
// first use.
func (p *BufferPool) sizeClass(size int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, ok := p.pools[size]
	if !ok {
		sp = &sync.Pool{}
		p.pools[size] = sp
	}
	return sp
}

// Get returns a buffer of exactly the given length, reusing a pooled one
// when available. Contents are arbitrary.
func (p *BufferPool) Get(size int) []byte {
	if size <= 0 {
		return nil
	}
	p.gets.Add(1)
	if v := p.sizeClass(size).Get(); v != nil {
		p.hits.Add(1)
		return *(v.(*[]byte))
	}
	return make([]byte, size)
}

// Put returns a buffer to its size class. Nil and empty buffers are
// ignored. The caller must not use buf after Put.
func (p *BufferPool) Put(buf []byte) {
	if len(buf) == 0 {
		return
	}
	p.puts.Add(1)
	p.sizeClass(len(buf)).Put(&buf)
}

// Stats reports the cumulative Get count and how many of those were served
// from the pool (hits).
func (p *BufferPool) Stats() (gets, hits int64) {
	return p.gets.Load(), p.hits.Load()
}

// Outstanding returns Gets minus Puts: the buffers currently checked out. A
// value that does not return to its earlier level once an operation has
// ended, failed or canceled, is a leak.
func (p *BufferPool) Outstanding() int64 {
	return p.gets.Load() - p.puts.Load()
}
