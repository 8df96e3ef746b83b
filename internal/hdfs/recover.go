package hdfs

// Parallel full-node recovery. When a DataNode dies, every encoded stripe
// that kept a member there needs one reconstruction — hundreds of
// independent repairs whose aggregate wall time is what the durability
// exposure window actually measures. Following the deterministic-recovery
// observation (D3: deterministic data distribution turns recovery into a
// balanced parallel job), RecoverNode enumerates the lost members up
// front, assigns every repair a target with a deterministic
// least-loaded-first rule balanced across surviving racks and nodes, and
// fans the repairs out through a bounded workgroup. Each repair folds its
// decode row along the chain (reconstructInto) and publishes the usual
// RepairStarted/RepairFinished lifecycle, so the
// progress tracker folds the sweep into the durability-exposure ledger;
// NodeRecoveryStarted/Finished bracket the whole sweep.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// recoverFanIn bounds how many block repairs RecoverNode runs concurrently.
const recoverFanIn = 8

// RecoveryStats summarizes one full-node recovery sweep.
type RecoveryStats struct {
	// Node is the dead node the sweep recovered.
	Node topology.NodeID `json:"node"`
	// BlocksRepaired / ParityRepaired count reconstructed data blocks and
	// parity rows.
	BlocksRepaired int `json:"blocks_repaired"`
	ParityRepaired int `json:"parity_repaired"`
	// BytesRepaired is the repaired payload (repaired members × block size).
	BytesRepaired int64 `json:"bytes_repaired"`
	// CrossRackBytes / TotalBytes are the network bytes the repairs moved,
	// counted at the repairs' own streams (exact under concurrency, unlike
	// a fabric snapshot delta).
	CrossRackBytes int64 `json:"cross_rack_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	// Unrecovered counts the lost members the sweep left unrepaired: a stripe
	// with more erasures than parity, or a sweep cut short by its context.
	Unrecovered int `json:"unrecovered"`
	// Duration is the sweep's wall time.
	Duration time.Duration `json:"duration"`
}

// ThroughputMBps is the sweep's recovery rate: repaired payload over wall
// time.
func (s RecoveryStats) ThroughputMBps() float64 {
	return recoveryThroughputMBps(s.BytesRepaired, s.Duration)
}

// recoveryThroughputMBps converts repaired bytes over a wall-clock span to
// MB/s (0 for a degenerate span).
func recoveryThroughputMBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// recoverTask is one planned reconstruction: a lost data block (parity ==
// -1) or a lost parity row of sm, rebuilt onto target.
type recoverTask struct {
	sm     *StripeMeta
	block  topology.BlockID
	parity int
	target topology.NodeID
}

// stripeOccupancy maps which live nodes already hold a member of the
// stripe and how many members each rack keeps — the fault-tolerance
// constraints a repair target must respect.
func (c *Cluster) stripeOccupancy(sm *StripeMeta) (map[topology.NodeID]bool, map[topology.RackID]int, error) {
	used := make(map[topology.NodeID]bool)
	rackCount := make(map[topology.RackID]int)
	note := func(n topology.NodeID) error {
		if c.nn.IsDead(n) || used[n] {
			return nil
		}
		used[n] = true
		r, err := c.top.RackOf(n)
		if err != nil {
			return err
		}
		rackCount[r]++
		return nil
	}
	for _, b := range sm.Info.Blocks {
		live, err := c.nn.LiveReplicas(b)
		if err != nil {
			return nil, nil, err
		}
		for _, n := range live {
			if err := note(n); err != nil {
				return nil, nil, err
			}
		}
	}
	if sm.Plan != nil {
		for _, n := range sm.Plan.Parity {
			if err := note(n); err != nil {
				return nil, nil, err
			}
		}
	}
	return used, rackCount, nil
}

// pickRecoveryTarget deterministically selects the repair target for one
// lost member: the least-loaded eligible node (by repairs already assigned
// to the node, then to its rack, then lowest node ID), excluding dead
// nodes, nodes already holding a member of the stripe, and racks at the
// stripe's per-rack cap. Unlike pickRepairNode's randomized pick, the
// same cluster state always yields the same recovery plan, and the load
// keys spread hundreds of concurrent repairs evenly across surviving
// racks.
func (c *Cluster) pickRecoveryTarget(used map[topology.NodeID]bool, rackCount map[topology.RackID]int, nodeLoad map[topology.NodeID]int, rackLoad map[topology.RackID]int) (topology.NodeID, error) {
	maxPerRack := c.cfg.C
	if maxPerRack <= 0 {
		maxPerRack = 1
	}
	var best topology.NodeID
	var bestNode, bestRack int
	found := false
	for id := 0; id < c.top.Nodes(); id++ {
		n := topology.NodeID(id)
		if c.nn.IsDead(n) || used[n] {
			continue
		}
		r, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if rackCount[r] >= maxPerRack {
			continue
		}
		nl, rl := nodeLoad[n], rackLoad[r]
		if !found || nl < bestNode || (nl == bestNode && rl < bestRack) {
			best, bestNode, bestRack, found = n, nl, rl, true
		}
	}
	if !found {
		return 0, fmt.Errorf("%w: no eligible recovery target", ErrNoReplica)
	}
	return best, nil
}

// planNodeRecovery enumerates every stripe member lost with the dead node
// and assigns each reconstruction a deterministic, load-balanced target. A
// data block counts as lost only when no live replica remains anywhere;
// aborted members encode as zeros and need no repair.
func (c *Cluster) planNodeRecovery(dead topology.NodeID) ([]recoverTask, error) {
	nodeLoad := make(map[topology.NodeID]int)
	rackLoad := make(map[topology.RackID]int)
	var tasks []recoverTask
	for _, sid := range c.nn.EncodedStripes() {
		sm, err := c.nn.Stripe(sid)
		if err != nil {
			return nil, err
		}
		var lost []int // stripe positions: data i < k, parity k+j
		for i, b := range sm.Info.Blocks {
			meta, err := c.nn.Block(b)
			if err != nil {
				return nil, err
			}
			if meta.Aborted {
				continue
			}
			held := false
			for _, n := range meta.Nodes {
				if n == dead {
					held = true
					break
				}
			}
			if !held {
				continue
			}
			live, err := c.nn.LiveReplicas(b)
			if err != nil {
				return nil, err
			}
			if len(live) > 0 {
				// Another replica survives: re-replication territory
				// (BlockMover), not reconstruction.
				continue
			}
			lost = append(lost, i)
		}
		if sm.Plan != nil {
			for j, n := range sm.Plan.Parity {
				if n == dead {
					lost = append(lost, c.cfg.K+j)
				}
			}
		}
		if len(lost) == 0 {
			continue
		}
		used, rackCount, err := c.stripeOccupancy(sm)
		if err != nil {
			return nil, err
		}
		for _, pos := range lost {
			target, err := c.pickRecoveryTarget(used, rackCount, nodeLoad, rackLoad)
			if err != nil {
				return nil, fmt.Errorf("stripe %d: %w", sm.Info.ID, err)
			}
			used[target] = true
			r, err := c.top.RackOf(target)
			if err != nil {
				return nil, err
			}
			rackCount[r]++
			nodeLoad[target]++
			rackLoad[r]++
			t := recoverTask{sm: sm, parity: -1, target: target}
			if pos < c.cfg.K {
				t.block = sm.Info.Blocks[pos]
			} else {
				t.parity = pos - c.cfg.K
			}
			tasks = append(tasks, t)
		}
	}
	return tasks, nil
}

// RecoverNode reconstructs every stripe member lost with the dead node,
// fanning the repairs out with recoverFanIn workers. The node
// must already be marked dead (MarkDead). Repairs share one deterministic
// plan; each reconstructs along the chain, commits with staged Puts,
// and publishes its own lifecycle events, so a failed or canceled sweep
// leaves every completed repair durable and every unfinished one
// uncommitted — rerunning RecoverNode picks up exactly the remainder. A
// repair that fails (a stripe with more erasures than parity) does not stop
// its siblings: the sweep repairs everything it can, counts the rest in
// RecoveryStats.Unrecovered and returns the failures joined. Only ctx ends
// the sweep early.
func (c *Cluster) RecoverNode(ctx context.Context, dead topology.NodeID) (RecoveryStats, error) {
	stats := RecoveryStats{Node: dead}
	if !c.nn.IsDead(dead) {
		return stats, fmt.Errorf("node %d is not marked dead", dead)
	}
	t0 := time.Now()
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.recover-node")
	span.Arg("node", strconv.Itoa(int(dead)))
	defer span.End()

	tasks, err := c.planNodeRecovery(dead)
	if err != nil {
		return stats, err
	}
	span.Arg("lost", strconv.Itoa(len(tasks)))
	if j := c.Journal(); j != nil {
		ev := events.New(events.NodeRecoveryStarted, "raidnode")
		ev.Node = dead
		ev.Detail = strconv.Itoa(len(tasks))
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}

	var mu sync.Mutex
	var errs []error
	var g workgroup.Group
	g.SetLimit(recoverFanIn)
	for _, t := range tasks {
		t := t
		// Go blocks while every worker is busy, so this sees a cancellation
		// within one repair.
		if ctx.Err() != nil {
			mu.Lock()
			errs = append(errs, context.Cause(ctx))
			mu.Unlock()
			break
		}
		g.Go(func() error {
			var ledger chainLedger
			var err error
			if t.parity < 0 {
				ledger, err = c.repairBlockOnto(ctx, t.block, t.sm, t.target)
			} else {
				ledger, err = c.repairParityOnto(ctx, t.sm, t.parity, t.target)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return nil
			}
			if t.parity < 0 {
				stats.BlocksRepaired++
			} else {
				stats.ParityRepaired++
			}
			stats.BytesRepaired += int64(c.cfg.BlockSizeBytes)
			stats.CrossRackBytes += int64((ledger.crossHops + ledger.crossDeliveries) * c.cfg.BlockSizeBytes)
			stats.TotalBytes += int64((ledger.hops + ledger.deliveries) * c.cfg.BlockSizeBytes)
			return nil
		})
	}
	_ = g.Wait() // the tasks report through errs
	repaired := stats.BlocksRepaired + stats.ParityRepaired
	stats.Unrecovered = len(tasks) - repaired
	stats.Duration = time.Since(t0)
	if j := c.Journal(); j != nil {
		ev := events.New(events.NodeRecoveryFinished, "raidnode")
		ev.Node = dead
		ev.Bytes = stats.BytesRepaired
		ev.Detail = fmt.Sprintf("%d repaired, %d unrecovered", repaired, stats.Unrecovered)
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	return stats, errors.Join(errs...)
}

// repairParityOnto rebuilds lost parity row j of stripe sm onto target:
// the mirror of repairBlockOnto for positions k..n-1. The rebuilt row is
// staged (nothing stored or published until reconstruction succeeded),
// then committed with UpdateParityLocation. Lifecycle events carry
// Detail "parity" with Block unset, and a ReplicaRelocated event moves
// the parity holder in stream-tracking models.
func (c *Cluster) repairParityOnto(ctx context.Context, sm *StripeMeta, j int, target topology.NodeID) (chainLedger, error) {
	if sm.Plan == nil || j < 0 || j >= len(sm.Plan.Parity) {
		return chainLedger{}, fmt.Errorf("%w: stripe %d has no parity row %d", ErrUnknownStripe, sm.Info.ID, j)
	}
	t0 := time.Now()
	if m := c.metrics(); m != nil {
		defer func() { m.repairLat.Observe(time.Since(t0).Seconds()) }()
	}
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.repair-parity")
	span.Arg("stripe", strconv.FormatInt(int64(sm.Info.ID), 10)).
		Arg("row", strconv.Itoa(j))
	defer span.End()
	// Parity belongs to the stripe, not to one block: charge the stripe's
	// first member's owner so the rebuild traffic lands on the tenant whose
	// data the row protects.
	if len(sm.Info.Blocks) > 0 {
		ctx = tenant.NewContext(ctx, c.acct.Owner(sm.Info.Blocks[0]))
	}
	old := sm.Plan.Parity[j]
	if j := c.Journal(); j != nil {
		ev := events.New(events.RepairStarted, "raidnode")
		ev.Stripe, ev.Node = sm.Info.ID, target
		ev.Detail = "parity"
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
	defer c.bufPool.Put(buf)
	ledger, err := c.reconstructInto(ctx, sm, c.cfg.K+j, target, buf)
	if err != nil {
		return chainLedger{}, err
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		return chainLedger{}, err
	}
	// Supersede any stale copy left from before the target last died.
	_ = dn.Store.Delete(ParityKey(sm.Info.ID, j))
	if err := dn.Store.Put(ParityKey(sm.Info.ID, j), buf); err != nil {
		return chainLedger{}, err
	}
	if err := c.nn.UpdateParityLocation(sm.Info.ID, j, target); err != nil {
		return chainLedger{}, err
	}
	if jr := c.Journal(); jr != nil {
		ev := events.New(events.RepairFinished, "raidnode")
		ev.Stripe, ev.Node = sm.Info.ID, target
		ev.Bytes = int64(len(buf))
		ev.Detail = "parity"
		ev.Trace = telemetry.TraceFromContext(ctx)
		jr.Publish(ev)
		// Move the parity holder in stream-tracking models (the auditor
		// rewrites its parity map on this, same as BlockMover relocation).
		rel := events.New(events.ReplicaRelocated, "raidnode")
		rel.Stripe, rel.Node, rel.Peer = sm.Info.ID, old, target
		rel.Bytes = int64(len(buf))
		rel.Detail = "parity"
		rel.Trace = telemetry.TraceFromContext(ctx)
		jr.Publish(rel)
	}
	c.observeRepair(ledger, time.Since(t0))
	c.acct.Charge(tenant.FromContext(ctx), "repair", 1, int64(len(buf)))
	return ledger, nil
}
