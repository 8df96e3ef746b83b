package hdfs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/topology"
)

// testPlacementCfg is a small cluster both policies accept: 4 racks of 3
// nodes, r=2, (6,4) code, c=2.
func testPlacementCfg(t *testing.T) placement.Config {
	t.Helper()
	top, err := topology.New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return placement.Config{Topology: top, Replicas: 2, K: 4, N: 6, C: 2}
}

// openDurableNN builds a NameNode over a write-ahead log in dir, recovering
// whatever the directory holds. Under SyncAlways every returned mutation is
// on disk, so copying dir at any point is a valid crash image.
func openDurableNN(t *testing.T, dir, policy string, cfg placement.Config, syncPolicy metalog.SyncPolicy) *NameNode {
	t.Helper()
	nn, err := NewShardedNameNode(cfg, policy, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	l, err := metalog.Open(metalog.Options{Dir: dir, Sync: syncPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.RecoverMeta(l); err != nil {
		t.Fatal(err)
	}
	return nn
}

// copyDir clones the (flat) metadata directory — the crash image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// opDriver generates a random but deterministic stream of NameNode
// mutations, exercising every op kind.
type opDriver struct {
	rng         *rand.Rand
	nn          *NameNode
	nodes       int
	uncommitted []topology.BlockID
	committed   []topology.BlockID
	drained     []*placement.StripeInfo
	dead        []topology.NodeID
}

func (d *opDriver) allocate() error {
	meta, err := d.nn.AllocateBlock(1024 + d.rng.Intn(1024))
	if err != nil {
		return fmt.Errorf("allocate: %w", err)
	}
	d.uncommitted = append(d.uncommitted, meta.ID)
	return nil
}

func (d *opDriver) step() error {
	switch p := d.rng.Intn(100); {
	case p < 45: // allocate
		return d.allocate()
	case p < 70: // commit
		if len(d.uncommitted) == 0 {
			return d.allocate()
		}
		i := d.rng.Intn(len(d.uncommitted))
		id := d.uncommitted[i]
		d.uncommitted = append(d.uncommitted[:i], d.uncommitted[i+1:]...)
		if err := d.nn.CommitBlock(id); err != nil {
			return fmt.Errorf("commit %d: %w", id, err)
		}
		d.committed = append(d.committed, id)
	case p < 74: // abort
		if len(d.uncommitted) == 0 {
			return nil
		}
		i := d.rng.Intn(len(d.uncommitted))
		id := d.uncommitted[i]
		d.uncommitted = append(d.uncommitted[:i], d.uncommitted[i+1:]...)
		if err := d.nn.AbortBlock(id); err != nil {
			return fmt.Errorf("abort %d: %w", id, err)
		}
	case p < 79: // flush open stripes
		if _, err := d.nn.FlushOpenStripes(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	case p < 86: // drain the pre-encoding store
		out, err := d.nn.TakePendingStripes()
		if err != nil {
			return fmt.Errorf("take pending: %w", err)
		}
		d.drained = append(d.drained, out...)
	case p < 91: // commit an encoding
		if len(d.drained) == 0 {
			return nil
		}
		info := d.drained[0]
		d.drained = d.drained[1:]
		plan, err := d.nn.PlanStripe(info)
		if err != nil {
			return fmt.Errorf("plan stripe %d: %w", info.ID, err)
		}
		if err := d.nn.CommitEncoding(info.ID, plan); err != nil {
			return fmt.Errorf("commit encoding %d: %w", info.ID, err)
		}
	case p < 94: // move a block
		if len(d.committed) == 0 {
			return nil
		}
		id := d.committed[d.rng.Intn(len(d.committed))]
		nodes := []topology.NodeID{
			topology.NodeID(d.rng.Intn(d.nodes)),
			topology.NodeID(d.rng.Intn(d.nodes)),
		}
		if err := d.nn.UpdateBlockLocation(id, nodes); err != nil {
			return fmt.Errorf("move %d: %w", id, err)
		}
	case p < 96: // kill a node
		n := topology.NodeID(d.rng.Intn(d.nodes))
		d.nn.MarkDead(n)
		d.dead = append(d.dead, n)
	case p < 98: // revive a node
		if len(d.dead) == 0 {
			return nil
		}
		n := d.dead[len(d.dead)-1]
		d.dead = d.dead[:len(d.dead)-1]
		d.nn.MarkAlive(n)
	default: // requeue interrupted encodings
		if _, err := d.nn.RequeueUnencodedStripes(); err != nil {
			return fmt.Errorf("requeue: %w", err)
		}
		d.drained = nil // everything unencoded is back in the queue
	}
	return nil
}

// TestCrashAtEveryPrefix is the tentpole property: after every single
// mutation of a random op sequence, a crash (the copied log directory) plus
// recovery yields a NameNode whose canonical state encoding is byte-equal
// to the live one's. Mid-sequence snapshots exercise the snapshot + log-tail
// path, not just pure replay. The ledger of replicas in flight is live state
// the log does not carry: the live NameNode's counts are exactly the
// uncommitted blocks' replicas 2..r after every step, each recovered one
// starts at zero, and committing or aborting there a block allocated before
// the crash leaves it at zero.
func TestCrashAtEveryPrefix(t *testing.T) {
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testPlacementCfg(t)
			dir := t.TempDir()
			nn := openDurableNN(t, dir, policy, cfg, metalog.SyncAlways)
			defer nn.CloseMeta()
			d := &opDriver{rng: rand.New(rand.NewSource(11)), nn: nn, nodes: cfg.Topology.Nodes()}
			const steps = 140
			for i := 0; i < steps; i++ {
				if err := d.step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if i%37 == 36 {
					if err := nn.SnapshotNow(); err != nil {
						t.Fatalf("step %d: snapshot: %v", i, err)
					}
				}
				var writing [][]topology.NodeID
				for _, id := range d.uncommitted {
					meta, err := nn.Block(id)
					if err != nil {
						t.Fatal(err)
					}
					writing = append(writing, meta.Nodes)
				}
				wantInFlight(t, nn, fmt.Sprintf("step %d, live", i), writing...)
				want := nn.StateDigest()
				crash := t.TempDir()
				copyDir(t, dir, crash)
				rec := openDurableNN(t, crash, policy, cfg, metalog.SyncAlways)
				got := rec.StateDigest()
				wantInFlight(t, rec, fmt.Sprintf("step %d, recovered", i))
				if n := len(d.uncommitted); n > 0 {
					if err := rec.CommitBlock(d.uncommitted[0]); err != nil {
						t.Fatal(err)
					}
					if n > 1 {
						if err := rec.AbortBlock(d.uncommitted[n-1]); err != nil {
							t.Fatal(err)
						}
					}
					wantInFlight(t, rec, fmt.Sprintf("step %d, recovered, pre-crash blocks settled", i))
				}
				if err := rec.CloseMeta(); err != nil {
					t.Fatalf("step %d: close recovered log: %v", i, err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("step %d: recovered state diverges from live state (live %dB, recovered %dB)", i, len(want), len(got))
				}
			}
			if nn.BlockCount() == 0 {
				t.Fatal("driver allocated no blocks; the property was vacuous")
			}
		})
	}
}

// TestConcurrentOpsReplayToLiveState runs TestCrashAtEveryPrefix's op mix
// from four goroutines on one durable NameNode, each with its own rng and
// blocks, beside a goroutine draining the pre-encoding store, for 20 trials
// a policy: closing the log and recovering from it must give the live state
// byte for byte. That holds only if every op logs and applies in one hold,
// so that the log's order is the apply order; RR's grouping queue, whose
// order the digest carries, shows a commit that queues its block outside
// that hold.
func TestConcurrentOpsReplayToLiveState(t *testing.T) {
	const trials, writers, steps = 20, 4, 100
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testPlacementCfg(t)
			diverged := 0
			for trial := 0; trial < trials && !t.Failed(); trial++ {
				dir := t.TempDir()
				nn := openDurableNN(t, dir, policy, cfg, metalog.SyncNone)
				var drivers sync.WaitGroup
				for w := 0; w < writers; w++ {
					d := &opDriver{rng: rand.New(rand.NewSource(int64(100*trial + w))), nn: nn, nodes: cfg.Topology.Nodes()}
					drivers.Add(1)
					go func() {
						defer drivers.Done()
						for i := 0; i < steps; i++ {
							if err := d.step(); err != nil {
								t.Errorf("trial %d, writer %d, step %d: %v", trial, w, i, err)
								return
							}
						}
					}()
				}
				stop := make(chan struct{})
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := nn.TakePendingStripes(); err != nil {
							t.Errorf("trial %d, drainer: %v", trial, err)
							return
						}
						runtime.Gosched()
					}
				}()
				drivers.Wait()
				close(stop)
				<-drained
				want := nn.StateDigest()
				if err := nn.CloseMeta(); err != nil {
					t.Fatal(err)
				}
				rec := openDurableNN(t, dir, policy, cfg, metalog.SyncNone)
				if !bytes.Equal(want, rec.StateDigest()) {
					diverged++
				}
				if err := rec.CloseMeta(); err != nil {
					t.Fatal(err)
				}
			}
			if diverged > 0 {
				t.Errorf("in %d of %d trials the recovered state diverges from the live state", diverged, trials)
			}
		})
	}
}

// TestRecoveredNameNodePlacesLikeLive: a NameNode recovered from its log
// places the next blocks where the live one does. Under each policy a durable
// NameNode allocates and commits 40 blocks from writers that cycle through
// the nodes, every fifth with no writer, and snapshots halfway; the live
// NameNode and one recovered from a copy of its directory then allocate the
// same 40 more, each committed before the next, so neither has a write in
// flight. Every placement draw is a function of the seed and the block, so
// each block lands on the same nodes and both end in the same state.
func TestRecoveredNameNodePlacesLikeLive(t *testing.T) {
	const before, after = 40, 40
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy, func(t *testing.T) {
			cfg := testPlacementCfg(t)
			writer := func(i int) topology.NodeID {
				if i%5 == 4 {
					return placement.NoWriter
				}
				return topology.NodeID(i % cfg.Topology.Nodes())
			}
			place := func(nn *NameNode, i int) []topology.NodeID {
				t.Helper()
				meta, err := nn.AllocateBlockFrom(context.Background(), 1024, writer(i))
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if err := nn.CommitBlock(meta.ID); err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				return meta.Nodes
			}
			dir := t.TempDir()
			live := openDurableNN(t, dir, policy, cfg, metalog.SyncAlways)
			defer live.CloseMeta()
			for i := 0; i < before; i++ {
				place(live, i)
				if i == before/2 {
					if err := live.SnapshotNow(); err != nil {
						t.Fatal(err)
					}
				}
			}
			crash := t.TempDir()
			copyDir(t, dir, crash)
			rec := openDurableNN(t, crash, policy, cfg, metalog.SyncAlways)
			defer rec.CloseMeta()
			differ, first := 0, ""
			for i := before; i < before+after; i++ {
				want, got := place(live, i), place(rec, i)
				if !slices.Equal(want, got) {
					if differ++; differ == 1 {
						first = fmt.Sprintf("block %d (writer %d): live on %v, recovered on %v", i, writer(i), want, got)
					}
				}
			}
			if differ > 0 {
				t.Fatalf("%d of %d placements after recovery differ from the live NameNode's; the first: %s", differ, after, first)
			}
			if !bytes.Equal(live.StateDigest(), rec.StateDigest()) {
				t.Fatal("the recovered NameNode's state diverges from the live one's")
			}
		})
	}
}

// TestRecoverRejectsEarlierFormat: a metadata directory written while the
// NameNode kept a placement-policy instance per rack fails RecoverMeta and
// installs nothing, whether it holds a version-1 snapshot or an allocate
// record that names its instance. That record reads as a valid allocate under
// the current layout, shifted by the field it lost (its instance, core rack
// and attempts as core rack, attempts and one replica, its replicas as target
// racks), so only its retired kind keeps it from replaying.
func TestRecoverRejectsEarlierFormat(t *testing.T) {
	cfg := testPlacementCfg(t)
	old := []byte{1} // allocate, with the instance field
	old = appendI64(old, 0)
	old = appendI64(old, 1024)
	old = appendU32(old, 0)                         // instance
	old = appendU32(old, 0)                         // core rack
	old = appendU32(old, 1)                         // attempts
	old = appendNodes(old, []topology.NodeID{2, 4}) // replicas
	old = appendRacks(old, nil)                     // targets
	shifted := append([]byte{byte(opAllocate)}, old[1:]...)
	if _, err := decodeOp(shifted); err != nil {
		t.Fatalf("the shifted record no longer decodes (%v); this test's premise is stale", err)
	}
	recoverErr := func(t *testing.T, dir, policy string) {
		t.Helper()
		nn, err := NewShardedNameNode(cfg, policy, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		l, err := metalog.Open(metalog.Options{Dir: dir, Sync: metalog.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.RecoverMeta(l); err == nil {
			t.Fatal("recovered from a directory in the earlier format")
		} else {
			t.Log(err)
		}
		if n := nn.BlockCount(); n != 0 {
			t.Fatalf("a failed recovery installed %d blocks", n)
		}
	}
	for _, policy := range []string{"ear", "rr"} {
		t.Run(policy+"/record", func(t *testing.T) {
			dir := t.TempDir()
			l, err := metalog.Open(metalog.Options{Dir: dir, Sync: metalog.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Recover(nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(old); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recoverErr(t, dir, policy)
		})
		t.Run(policy+"/snapshot", func(t *testing.T) {
			dir := t.TempDir()
			nn := openDurableNN(t, dir, policy, cfg, metalog.SyncAlways)
			if _, err := nn.AllocateBlock(1024); err != nil {
				t.Fatal(err)
			}
			state := nn.StateDigest()
			state[0] = 1
			if err := nn.wal.Snapshot(nn.wal.LastLSN(), state); err != nil {
				t.Fatal(err)
			}
			if err := nn.CloseMeta(); err != nil {
				t.Fatal(err)
			}
			recoverErr(t, dir, policy)
		})
	}
}

// TestRecoveredStateBackfillAuditsClean drives traffic through encoding,
// recovers from the crash image, backfills the canonical event stream via
// PublishRecoveredState, and asserts the placement auditor — which models
// state purely from events — finds the recovered layout invariant-clean.
func TestRecoveredStateBackfillAuditsClean(t *testing.T) {
	cfg := testPlacementCfg(t)
	dir := t.TempDir()
	nn := openDurableNN(t, dir, "ear", cfg, metalog.SyncAlways)
	defer nn.CloseMeta()
	d := &opDriver{rng: rand.New(rand.NewSource(5)), nn: nn, nodes: cfg.Topology.Nodes()}
	for i := 0; i < 200; i++ {
		if err := d.step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Finish cleanly: commit everything outstanding, encode every stripe.
	for _, id := range d.uncommitted {
		if err := nn.CommitBlock(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nn.FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	out, err := nn.TakePendingStripes()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range append(d.drained, out...) {
		plan, err := nn.PlanStripe(info)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.CommitEncoding(info.ID, plan); err != nil {
			t.Fatal(err)
		}
	}

	crash := t.TempDir()
	copyDir(t, dir, crash)
	rec := openDurableNN(t, crash, "ear", cfg, metalog.SyncAlways)
	defer rec.CloseMeta()
	if rec.RecoveredOps() == 0 {
		t.Fatal("recovery replayed no ops")
	}

	j := events.NewJournal(1 << 14)
	a := audit.New(cfg.Topology, audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	defer a.Attach(j)()
	rec.PublishRecoveredState(j)

	rep := a.Report()
	if !rep.Clean {
		t.Fatalf("recovered state fails audit: ongoing %+v transient %+v", rep.Ongoing, rep.Transient)
	}
	if rep.Blocks != rec.BlockCount() || rep.Blocks == 0 {
		t.Fatalf("auditor saw %d blocks, NameNode holds %d", rep.Blocks, rec.BlockCount())
	}
	if rep.Encoded == 0 {
		t.Fatal("no encoded stripes reached the auditor; the audit was vacuous")
	}
}

// TestRecoveryWithoutLogIsNoop: a NameNode without a log keeps the
// pre-durability behavior and reports no meta stats.
func TestRecoveryWithoutLogIsNoop(t *testing.T) {
	cfg := testPlacementCfg(t)
	nn, err := NewShardedNameNode(cfg, "ear", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nn.MetaStats(); ok {
		t.Fatal("MetaStats should report no log")
	}
	if err := nn.SnapshotNow(); err == nil {
		t.Fatal("SnapshotNow without a log should fail")
	}
	if _, err := nn.AllocateBlock(1024); err != nil {
		t.Fatalf("in-memory allocation: %v", err)
	}
	if err := nn.CloseMeta(); err != nil {
		t.Fatalf("CloseMeta without a log: %v", err)
	}
}
