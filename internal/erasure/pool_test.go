package erasure

import (
	"sync"
	"testing"
)

func TestBufferPoolReuse(t *testing.T) {
	p := NewBufferPool()
	b1 := p.Get(1024)
	if len(b1) != 1024 {
		t.Fatalf("Get(1024) returned %d bytes", len(b1))
	}
	p.Put(b1)
	b2 := p.Get(1024)
	if len(b2) != 1024 {
		t.Fatalf("second Get(1024) returned %d bytes", len(b2))
	}
	gets, hits := p.Stats()
	if gets != 2 {
		t.Fatalf("gets = %d, want 2", gets)
	}
	// sync.Pool may theoretically drop entries; a hit count above gets is
	// the real invariant violation.
	if hits > gets {
		t.Fatalf("hits %d exceed gets %d", hits, gets)
	}
}

func TestBufferPoolSizeClasses(t *testing.T) {
	p := NewBufferPool()
	p.Put(make([]byte, 64))
	if b := p.Get(128); len(b) != 128 {
		t.Fatalf("Get(128) after Put(64) returned %d bytes", len(b))
	}
	if b := p.Get(64); len(b) != 64 {
		t.Fatalf("Get(64) returned %d bytes", len(b))
	}
}

func TestBufferPoolDegenerate(t *testing.T) {
	p := NewBufferPool()
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	if b := p.Get(-4); b != nil {
		t.Fatalf("Get(-4) = %v, want nil", b)
	}
	p.Put(nil)      // must not panic
	p.Put([]byte{}) // must not panic
	if gets, _ := p.Stats(); gets != 0 {
		t.Fatalf("degenerate Gets counted: %d", gets)
	}
}

func TestBufferPoolConcurrent(t *testing.T) {
	p := NewBufferPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.Get(4096)
				b[0] = byte(i)
				p.Put(b)
			}
		}()
	}
	wg.Wait()
	gets, hits := p.Stats()
	if gets != 8*200 {
		t.Fatalf("gets = %d, want %d", gets, 8*200)
	}
	if hits > gets {
		t.Fatalf("hits %d exceed gets %d", hits, gets)
	}
}
