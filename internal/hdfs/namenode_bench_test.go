package hdfs

import (
	"sync/atomic"
	"testing"

	"ear/internal/placement"
	"ear/internal/topology"
)

// benchPlacementConfig is a mid-size cluster: 16 racks x 8 nodes, RS(9,6),
// r = 3.
func benchPlacementConfig(b *testing.B) placement.Config {
	b.Helper()
	top, err := topology.New(16, 8)
	if err != nil {
		b.Fatal(err)
	}
	return placement.Config{Topology: top, Replicas: 3, K: 6, N: 9, C: 1}
}

// BenchmarkAllocateBlock measures the metadata path of one allocation, with
// no log attached: EAR's admission (the direct path, else one from-scratch
// solve of the open stripe's flow graph), the apply and any stripe seal, in
// one hold of the NameNode's lock. The parallel arm shows what callers
// contending for the lock pay.
func BenchmarkAllocateBlock(b *testing.B) {
	newNN := func(b *testing.B) *NameNode {
		nn, err := NewShardedNameNode(benchPlacementConfig(b), "ear", 1, false)
		if err != nil {
			b.Fatal(err)
		}
		return nn
	}
	b.Run("serial", func(b *testing.B) {
		nn := newNN(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nn.AllocateBlock(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		nn := newNN(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := nn.AllocateBlock(1); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkCommitBlock measures commits from parallel callers, each one hold
// of the NameNode's lock.
func BenchmarkCommitBlock(b *testing.B) {
	nn, err := NewShardedNameNode(benchPlacementConfig(b), "ear", 1, false)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]topology.BlockID, b.N)
	for i := 0; i < b.N; i++ {
		meta, err := nn.AllocateBlock(1)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = meta.ID
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1) - 1
			if err := nn.CommitBlock(ids[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
