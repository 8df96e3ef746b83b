package hdfs

import (
	"bytes"
	"math/rand"
	"testing"

	"ear/internal/topology"
)

// TestChaosLifecycle drives a cluster through a long randomized schedule of
// writes, encodes, node failures, repairs, and reads, checking every read
// against an oracle. Failures never exceed the configured tolerance (n-k
// concurrent node failures), so all data must remain readable at all times.
func TestChaosLifecycle(t *testing.T) {
	for _, policy := range []string{"rr", "ear"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Racks:                8,
				NodesPerRack:         4,
				Policy:               policy,
				Replicas:             3,
				K:                    4,
				N:                    6,
				C:                    1,
				BlockSizeBytes:       4 << 10,
				BandwidthBytesPerSec: 1 << 30,
				Seed:                 31,
			}
			c := newCluster(t, cfg)
			rng := rand.New(rand.NewSource(32))

			oracle := map[topology.BlockID][]byte{}
			var blocks []topology.BlockID
			dead := map[topology.NodeID]bool{}
			maxDead := cfg.N - cfg.K

			verifyRandomBlock := func() {
				if len(blocks) == 0 {
					return
				}
				id := blocks[rng.Intn(len(blocks))]
				reader := topology.NodeID(rng.Intn(c.Topology().Nodes()))
				for dead[reader] {
					reader = topology.NodeID(rng.Intn(c.Topology().Nodes()))
				}
				got, err := c.ReadBlock(reader, id)
				if err != nil {
					t.Fatalf("ReadBlock(%d) with %d dead nodes: %v", id, len(dead), err)
				}
				if !bytes.Equal(got, oracle[id]) {
					t.Fatalf("block %d content mismatch", id)
				}
			}

			const ops = 400
			for op := 0; op < ops; op++ {
				switch roll := rng.Intn(100); {
				case roll < 45: // write
					data := make([]byte, cfg.BlockSizeBytes)
					rng.Read(data)
					writer := topology.NodeID(rng.Intn(c.Topology().Nodes()))
					id, err := c.WriteBlock(writer, data)
					if err != nil {
						t.Fatalf("op %d WriteBlock: %v", op, err)
					}
					oracle[id] = data
					blocks = append(blocks, id)
				case roll < 55: // encode everything pending
					if len(dead) > 0 {
						continue // encode only on a healthy cluster
					}
					if _, err := c.RaidNode().EncodeAll(); err != nil {
						t.Fatalf("op %d EncodeAll: %v", op, err)
					}
				case roll < 65: // fail a node
					if len(dead) >= maxDead {
						continue
					}
					// Never kill two nodes in one rack: c=1 keeps at most
					// one stripe block per rack, but unencoded replicas put
					// two copies in one rack.
					n := topology.NodeID(rng.Intn(c.Topology().Nodes()))
					rack, err := c.Topology().RackOf(n)
					if err != nil {
						t.Fatal(err)
					}
					rackHit := false
					for d := range dead {
						r, err := c.Topology().RackOf(d)
						if err != nil {
							t.Fatal(err)
						}
						if r == rack {
							rackHit = true
							break
						}
					}
					if dead[n] || rackHit {
						continue
					}
					c.NameNode().MarkDead(n)
					dead[n] = true
				case roll < 75: // revive a node
					for n := range dead {
						c.NameNode().MarkAlive(n)
						delete(dead, n)
						break
					}
				case roll < 85: // repair a random encoded block that lost its node
					if len(blocks) == 0 || len(dead) == 0 {
						continue
					}
					id := blocks[rng.Intn(len(blocks))]
					meta, err := c.NameNode().Block(id)
					if err != nil {
						t.Fatal(err)
					}
					if !meta.Encoded {
						continue
					}
					live, err := c.NameNode().LiveReplicas(id)
					if err != nil {
						t.Fatal(err)
					}
					if len(live) > 0 {
						continue
					}
					oldNode := meta.Nodes[0]
					if _, err := c.RepairBlock(id); err != nil {
						t.Fatalf("op %d RepairBlock(%d): %v", op, id, err)
					}
					// The dead node's stale copy is invalidated on rejoin.
					if dn, err := c.DataNodeOf(oldNode); err == nil {
						_ = dn.Store.Delete(DataKey(id))
					}
				default: // read and verify
					verifyRandomBlock()
				}
			}
			// Final sweep: everything written must read back correctly on a
			// healthy cluster.
			for n := range dead {
				c.NameNode().MarkAlive(n)
				delete(dead, n)
			}
			for _, id := range blocks {
				got, err := c.ReadBlock(0, id)
				if err != nil {
					t.Fatalf("final ReadBlock(%d): %v", id, err)
				}
				if !bytes.Equal(got, oracle[id]) {
					t.Fatalf("final content mismatch for block %d", id)
				}
			}
		})
	}
}
