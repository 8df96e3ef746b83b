package hdfs

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ear/internal/topology"
)

// inFlightCounts reads the NameNode's ledger of replicas in flight.
func inFlightCounts(nn *NameNode) (nodes, racks []int) {
	for n := 0; n < nn.cfg.Topology.Nodes(); n++ {
		nodes = append(nodes, nn.inFlight.Node(topology.NodeID(n)))
	}
	for r := 0; r < nn.cfg.Topology.Racks(); r++ {
		racks = append(racks, nn.inFlight.Rack(topology.RackID(r)))
	}
	return nodes, racks
}

// wantInFlight fails the test unless the ledger counts exactly replicas 2..r
// of the given layouts, and each rack once for every layout that enters it.
func wantInFlight(t *testing.T, nn *NameNode, what string, layouts ...[]topology.NodeID) {
	t.Helper()
	top := nn.cfg.Topology
	wantNodes, wantRacks := make([]int, top.Nodes()), make([]int, top.Racks())
	for _, nodes := range layouts {
		entered := make(map[topology.RackID]bool)
		for _, n := range nodes[1:] {
			r, _ := top.RackOf(n)
			wantNodes[n]++
			if !entered[r] {
				entered[r] = true
				wantRacks[r]++
			}
		}
	}
	nodes, racks := inFlightCounts(nn)
	if !slices.Equal(nodes, wantNodes) || !slices.Equal(racks, wantRacks) {
		t.Fatalf("%s: in flight per node %v, per rack %v; want %v, %v", what, nodes, racks, wantNodes, wantRacks)
	}
}

// TestInFlightSettlesEachWriteOnce: an allocation counts its replicas 2..r
// against their nodes and racks, and the first apply that ends its write —
// commit, abort, a move of its replicas, the encode of its stripe — releases
// exactly those counts; a second commit, abort or move releases nothing.
func TestInFlightSettlesEachWriteOnce(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testPlacementConfig(t)
			nn, err := NewShardedNameNode(cfg, policy, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			metas := make([]*BlockMeta, 6)
			for i := range metas {
				if metas[i], err = nn.AllocateBlock(1); err != nil {
					t.Fatal(err)
				}
			}
			layout := func(i int) []topology.NodeID { return metas[i].Nodes }
			wantInFlight(t, nn, "six allocated", layout(0), layout(1), layout(2), layout(3), layout(4), layout(5))

			if err := nn.CommitBlock(metas[0].ID); err != nil {
				t.Fatal(err)
			}
			if err := nn.CommitBlock(metas[0].ID); err != nil {
				t.Fatal(err)
			}
			wantInFlight(t, nn, "block 0 committed twice", layout(1), layout(2), layout(3), layout(4), layout(5))

			for range 2 {
				if err := nn.AbortBlock(metas[1].ID); err != nil {
					t.Fatal(err)
				}
			}
			wantInFlight(t, nn, "block 1 aborted twice", layout(2), layout(3), layout(4), layout(5))

			moved := []topology.NodeID{0, 3, 6}
			for range 2 {
				if err := nn.UpdateBlockLocation(metas[2].ID, moved); err != nil {
					t.Fatal(err)
				}
			}
			if err := nn.CommitBlock(metas[2].ID); err != nil {
				t.Fatal(err)
			}
			wantInFlight(t, nn, "block 2 moved twice, then committed", layout(3), layout(4), layout(5))

			// Seal and encode what is open, blocks 3..5 still being written.
			if _, err := nn.FlushOpenStripes(); err != nil {
				t.Fatal(err)
			}
			for range 2 { // RR groups only committed blocks: commit a stripe's worth
				meta, err := nn.AllocateBlock(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := nn.CommitBlock(meta.ID); err != nil {
					t.Fatal(err)
				}
			}
			infos, err := nn.TakePendingStripes()
			if err != nil {
				t.Fatal(err)
			}
			var still [][]topology.NodeID
			for i := 3; i < len(metas); i++ {
				still = append(still, layout(i))
			}
			for _, info := range infos {
				plan, err := nn.PlanStripe(info)
				if err != nil {
					t.Fatal(err)
				}
				if err := nn.CommitEncoding(info.ID, plan); err != nil {
					t.Fatal(err)
				}
				for i := 3; i < len(metas); i++ {
					if slices.Contains(info.Blocks, metas[i].ID) {
						still = slices.DeleteFunc(still, func(l []topology.NodeID) bool { return slices.Equal(l, layout(i)) })
					}
				}
			}
			if policy == "ear" && len(still) != 0 {
				t.Fatalf("%d of blocks 3..5 in no encoded stripe: the flush sealed every open stripe", len(still))
			}
			wantInFlight(t, nn, "stripes encoded", still...)
			for i := 3; i < len(metas); i++ {
				if err := nn.CommitBlock(metas[i].ID); err != nil {
					t.Fatal(err)
				}
			}
			wantInFlight(t, nn, "every write over")
		})
	}
}

// TestInFlightConcurrentWriters: four writers on a shaped cluster, one write
// in three canceled — before it starts or a few microseconds in — so commits
// and aborts interleave with allocations on every rack. While they run no
// count goes below zero or above what four writes can hold (one block each,
// entering one remote rack with r-1 replicas on distinct nodes); when they
// return every count is zero. CI runs it under -race.
func TestInFlightConcurrentWriters(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testConfig(policy)
			cfg.BandwidthBytesPerSec = 8 << 20 // 1 ms a block: writes overlap
			c := newCluster(t, cfg)
			const writers, each = 4, 24
			done := make(chan struct{})
			watched := make(chan error)
			go func() {
				var bad error
				peak := 0
				for {
					nodes, racks := inFlightCounts(c.nn)
					peak = max(peak, slices.Max(racks))
					if slices.Min(nodes) < 0 || slices.Max(nodes) > writers ||
						slices.Min(racks) < 0 || slices.Max(racks) > writers {
						bad = fmt.Errorf("in flight per node %v, per rack %v", nodes, racks)
					}
					select {
					case <-done:
						if bad == nil && peak == 0 {
							bad = fmt.Errorf("no replica was ever seen in flight: the watch is vacuous")
						}
						watched <- bad
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					data := make([]byte, cfg.BlockSizeBytes)
					for i := 0; i < each; i++ {
						ctx, cancel := context.Background(), func() {}
						switch i % 3 {
						case 1:
							ctx, cancel = context.WithCancel(ctx)
							cancel()
						case 2:
							ctx, cancel = context.WithTimeout(ctx, time.Duration(50+rng.Intn(500))*time.Microsecond)
						}
						_, err := c.WriteBlockCtx(ctx, topology.NodeID(rng.Intn(c.Topology().Nodes())), data)
						if err != nil && ctx.Err() == nil {
							t.Error(err)
						}
						cancel()
					}
				}(w)
			}
			wg.Wait()
			close(done)
			if err := <-watched; err != nil {
				t.Error(err)
			}
			wantInFlight(t, c.nn, fmt.Sprintf("%d writes returned", writers*each))
		})
	}
}
