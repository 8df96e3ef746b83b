package hdfs

// Full-node recovery. When a DataNode dies, every encoded stripe that kept a
// member there needs one reconstruction, and the repairs' aggregate wall time
// is the durability exposure window. Following D3 (deterministic data
// distribution turns recovery into a balanced parallel job), RecoverNode's
// sweep assigns every repair a target by a deterministic least-loaded-first
// rule balanced across surviving racks and nodes (pickTarget), folds a round's
// repairs in one stage loop, in plan order and sharing each node's read-ahead,
// and plans again from what they left until nothing it can fix is lost. Each
// repair folds its decode row along the chain (foldMember), commits as its
// fold ends and publishes RepairStarted/Finished, so the progress tracker
// folds the sweep into the exposure ledger; NodeRecoveryStarted/Finished
// bracket it.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

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
	// Unrecovered counts the members the sweep's first plan found lost and no
	// round repaired: a stripe with more erasures than parity, a member no
	// node is eligible to take, or a sweep cut short by its context.
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

// recoverTask is one planned fold of a sweep: member pos of stripe sm rebuilt
// onto target. A BlockMover move then deletes the copy on from.
type recoverTask struct {
	sm     *StripeMeta
	pos    int
	target topology.NodeID
	from   topology.NodeID
}

// maxPerRack is the most members of one stripe a rack may hold (c, at least
// one).
func (c *Cluster) maxPerRack() int {
	return max(c.cfg.C, 1)
}

// stripeOccupancy maps which live nodes already hold a member of the encoded
// stripe and how many members each rack keeps — the fault-tolerance
// constraints a repair target must respect.
func (c *Cluster) stripeOccupancy(sm *StripeMeta) (map[topology.NodeID]bool, map[topology.RackID]int, error) {
	used := make(map[topology.NodeID]bool)
	rackCount := make(map[topology.RackID]int)
	for pos := 0; pos < c.cfg.N; pos++ {
		live, _, err := c.posHolders(sm, pos, nil)
		if err != nil {
			return nil, nil, err
		}
		for _, node := range live {
			used[node] = true
			r, err := c.top.RackOf(node)
			if err != nil {
				return nil, nil, err
			}
			rackCount[r]++
		}
	}
	return used, rackCount, nil
}

// pickTarget chooses the node that takes a member of the stripe for its one
// caller, assignTargets, given the stripe's occupancy (stripeOccupancy) and
// the members the round has assigned to each node (load) and rack (rackLoad).
// A node is eligible when it is live, not in used, and in a rack holding fewer
// than c members of the stripe; among the eligible the least (load on the
// node, load on its rack, rack holds no member of the stripe, ring distance
// from node stripe mod nodes) wins, so a round spreads its repairs
// least-loaded-first and, at equal load, beside survivors, which minimizes
// cross-rack recovery traffic (Section III-D). The same arguments and
// liveness always give the same node.
func (c *Cluster) pickTarget(stripe topology.StripeID, used map[topology.NodeID]bool, rackCount map[topology.RackID]int, load map[topology.NodeID]int, rackLoad map[topology.RackID]int) (topology.NodeID, error) {
	nodes := c.top.Nodes()
	start := int(uint64(stripe) % uint64(nodes))
	best, bestKey := topology.NodeID(-1), [3]int{}
	// Nearest on the ring first, so an equal key never replaces the pick.
	for off := 0; off < nodes; off++ {
		n := topology.NodeID((start + off) % nodes)
		if c.nn.IsDead(n) || used[n] {
			continue
		}
		r, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if rackCount[r] >= c.maxPerRack() {
			continue
		}
		// The third key is 0 beside a member of the stripe, 1 apart from all.
		key := [3]int{load[n], rackLoad[r], 1 - min(rackCount[r], 1)}
		if best < 0 || slices.Compare(key[:], bestKey[:]) < 0 {
			best, bestKey = n, key
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w: stripe %d has no eligible target", ErrNoReplica, stripe)
	}
	return best, nil
}

// assignTargets gives each planned member, a stripe's next to each other, a
// target: one stripeOccupancy a stripe, then pickTarget loaded with the
// round's picks so far, each taken into the occupancy. A member no node may
// take gets no task but an error in stuck; the rest of the plan stands.
func (c *Cluster) assignTargets(planned []recoverTask) (tasks []recoverTask, stuck []error, err error) {
	load, rackLoad := make(map[topology.NodeID]int), make(map[topology.RackID]int)
	var used map[topology.NodeID]bool
	var rackCount map[topology.RackID]int
	for i, t := range planned {
		if i == 0 || t.sm.Info.ID != planned[i-1].sm.Info.ID {
			if used, rackCount, err = c.stripeOccupancy(t.sm); err != nil {
				return nil, nil, err
			}
		}
		target, err := c.pickTarget(t.sm.Info.ID, used, rackCount, load, rackLoad)
		if errors.Is(err, ErrNoReplica) {
			stuck = append(stuck, fmt.Errorf("position %d: %w", t.pos, err))
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		r, _ := c.top.RackOf(target) // pickTarget has resolved it
		used[target] = true
		rackCount[r]++
		load[target]++
		rackLoad[r]++
		t.target = target
		tasks = append(tasks, t)
	}
	return tasks, stuck, nil
}

// sweep is the one repair drain of RecoverNode, RepairBlockCtx and the
// BlockMover. It holds the repair turn, a channel a canceled waiter leaves,
// from its first plan to its last commit, so that every plan sees every earlier
// sweep's commits. plan returns, against the committed layout, the members that
// need a new holder, a stripe's next to each other; fold admits one to the loop
// and reports its commit (nil) or failure to done, or ends the loop. Each round
// assigns targets, folds in one stage loop, and leaves the next round to plan
// again (a target that died under its fold commits nothing), until nothing is
// planned, a round commits nothing or fails, or ctx ends. It returns its
// commits and the last round's failures joined.
func (c *Cluster) sweep(ctx context.Context, plan func() ([]recoverTask, error), fold func(loop *stageLoop, t recoverTask, done func(error) error) error) (committed int, err error) {
	select {
	case c.turn <- struct{}{}:
		defer func() { <-c.turn }()
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for {
		planned, err := plan()
		if err != nil {
			return committed, err
		}
		tasks, failed, err := c.assignTargets(planned)
		if err != nil || len(tasks) == 0 {
			return committed, errors.Join(append(failed, err)...)
		}
		before := committed
		loop := newStageLoop(c)
		err = loop.run(ctx, len(tasks), func(i int) (bool, error) {
			return true, fold(loop, tasks[i], func(err error) error {
				if err == nil {
					committed++
				} else if ctx.Err() == nil {
					failed, err = append(failed, err), nil
				}
				return err
			})
		})
		loop.close()
		if err != nil || committed == before || ctx.Err() != nil {
			return committed, errors.Join(append(failed, err)...)
		}
	}
}

// lostWith is RecoverNode's planner: each member of an encoded stripe recorded
// on the dead node that no live copy serves. A block another live replica
// still serves is re-replication territory; an aborted one encodes as zeros.
func (c *Cluster) lostWith(dead topology.NodeID) (lost []recoverTask, err error) {
	for _, sid := range c.nn.EncodedStripes() {
		sm, err := c.nn.Stripe(sid)
		if err != nil {
			return nil, err
		}
		for pos := 0; pos < c.cfg.N; pos++ {
			recorded, err := c.recordedHolders(sm, pos)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(recorded, dead) {
				continue
			}
			if _, known, err := c.posHolders(sm, pos, nil); err != nil {
				return nil, err
			} else if !known {
				lost = append(lost, recoverTask{sm: sm, pos: pos})
			}
		}
	}
	return lost, nil
}

// RecoverNode reconstructs every stripe member lost with the dead node, which
// must already be marked dead (MarkDead): a sweep planned by lostWith. Each
// repair commits with staged stores and publishes its own lifecycle events,
// so a failed or canceled sweep leaves every completed repair durable and the
// rest uncommitted, and rerunning RecoverNode picks up exactly the remainder;
// one canceled while it waits for the repair turn commits nothing. A failed
// repair (more erasures than parity) stops no sibling: RecoveryStats.Unrecovered
// counts what the first plan found lost and no round repaired, and the last
// round's failures are returned joined.
func (c *Cluster) RecoverNode(ctx context.Context, dead topology.NodeID) (RecoveryStats, error) {
	stats := RecoveryStats{Node: dead}
	if !c.nn.IsDead(dead) {
		return stats, fmt.Errorf("node %d is not marked dead", dead)
	}
	t0 := time.Now()
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.recover-node")
	span.Arg("node", strconv.Itoa(int(dead)))
	defer span.End()

	publish := func(t events.Type, bytes int64, detail string) {
		ev := events.New(t, "raidnode")
		ev.Node, ev.Bytes, ev.Detail = dead, bytes, detail
		ev.Trace = telemetry.TraceFromContext(ctx)
		c.Journal().Publish(ev)
	}
	lost := -1
	repaired, err := c.sweep(ctx, func() ([]recoverTask, error) {
		planned, err := c.lostWith(dead)
		if err == nil && lost < 0 {
			lost = len(planned)
			span.Arg("lost", strconv.Itoa(lost))
			publish(events.NodeRecoveryStarted, 0, strconv.Itoa(lost))
		}
		return planned, err
	}, func(loop *stageLoop, t recoverTask, done func(error) error) error {
		return c.repairMember(ctx, loop, t, &stats, done)
	})
	if lost < 0 {
		return stats, err
	}
	stats.Unrecovered = lost - repaired
	stats.Duration = time.Since(t0)
	publish(events.NodeRecoveryFinished, stats.BytesRepaired, fmt.Sprintf("%d repaired, %d unrecovered", repaired, stats.Unrecovered))
	return stats, err
}

// foldMember admits to the loop the fold of member pos of stripe sm into a
// block of its own at sink, the one fold of one member: repair, node recovery
// and the BlockMover commit it (commitMember), a degraded read delivers it,
// and an encode rewrites a kept copy with it (parityFold). The member is
// rebuilt along the chain (rebuildStages): a copy while a holder survives, a
// decode otherwise. A run whose member fails its checksum as the loop reads
// it is planned again without that holder (replan, which adds it to bad, the
// caller's), and the new run joins the same loop. done gets the block the
// loop folded for the run that ended, sealed as it was folded, and the run's
// ledger, or
// the error of the plan, the admission or a run no re-plan is left for, and
// returns the error that ends the loop, if any; the block is done's to keep.
// release runs with the last run's.
func (c *Cluster) foldMember(ctx context.Context, loop *stageLoop, sm *StripeMeta, pos int, sink topology.NodeID, bad map[holder]bool, release func(), done func(blockstore.Sealed, chainLedger, error) error) error {
	var admit func() error
	fail := func(err error) error {
		if _, ok := replan(err, bad); ok {
			return admit()
		}
		release()
		return done(blockstore.Sealed{}, chainLedger{}, err)
	}
	admit = func() error {
		stages, err := c.rebuildStages(sm, pos, sink, bad, loop.load)
		var run *stageRun
		if err == nil {
			run, err = loop.admit(ctx, stages, sink, hopSpans(ctx, sm.Info.ID))
		}
		if err != nil {
			return fail(err)
		}
		run.release, run.fail = release, fail
		run.finish = func(blocks []blockstore.Sealed) error {
			return done(blocks[0], c.foldLedger(stages, run.start, run.end), nil)
		}
		return nil
	}
	return admit()
}

// commitMember stores rebuilt member pos of stripe sm on target as it was
// folded, then has the NameNode name the target if it is still alive:
// metadata never leads bytes.
func (c *Cluster) commitMember(sm *StripeMeta, pos int, target topology.NodeID, block blockstore.Sealed) error {
	dn, err := c.DataNodeOf(target)
	if err != nil {
		return err
	}
	// The target holds no live member of the stripe, so anything stored under
	// the key is a stale copy from before the node last died; this one
	// supersedes it.
	key := c.memberKey(sm, pos)
	_ = dn.Store.Delete(key)
	if err := dn.Store.Adopt(key, block); err != nil {
		return err
	}
	// The target may have died since it was picked, under the fold or before
	// it: a dead node is never named a holder. Whoever picked it picks again.
	if c.nn.IsDead(target) {
		_ = dn.Store.Delete(key)
		return fmt.Errorf("stripe %d position %d: target node %d died before the rebuilt member was committed", sm.Info.ID, pos, target)
	}
	if pos < c.cfg.K {
		return c.nn.UpdateBlockLocation(sm.Info.Blocks[pos], []topology.NodeID{target})
	}
	return c.nn.UpdateParityLocation(sm.Info.ID, pos-c.cfg.K, target)
}

// repairMember admits to the loop the rebuild of lost member t.pos of stripe
// t.sm onto t.target (foldMember, committed by commitMember) and adds what is
// repair's own: the raidnode.repair-block / repair-parity span, which ends
// with the run, the RepairStarted/RepairFinished lifecycle, the events that
// retire the member's earlier holders, repair telemetry, the tenant charge and
// the repair's share of stats. Events of a parity row carry Detail "parity"
// and no Block. The commit or failure goes to done, whose error ends the loop.
func (c *Cluster) repairMember(ctx context.Context, loop *stageLoop, t recoverTask, stats *RecoveryStats, done func(error) error) error {
	t0 := time.Now()
	sm, pos := t.sm, t.pos
	// Repair is background work with no requester context: run it under the
	// member's recorded owner, so the fabric charges every partial-sum hop, and
	// the survivor reads of any disk stream the repair opens for its loop, to
	// that tenant at the same accounting point as any foreground stream, and
	// the op charge below matches. A parity row belongs
	// to the stripe, not to one block: it goes to the owner of the stripe's
	// first member, the tenant whose data the row protects.
	var span *telemetry.Span
	block, detail, owner := events.NoneBlock, "parity", sm.Info.Blocks[0]
	if pos < c.cfg.K {
		block, detail, owner = sm.Info.Blocks[pos], "", sm.Info.Blocks[pos]
		span, ctx = c.opSpan(ctx, "raidnode", "raidnode.repair-block")
		span.Arg("block", strconv.FormatInt(int64(block), 10))
	} else {
		span, ctx = c.opSpan(ctx, "raidnode", "raidnode.repair-parity")
		span.Arg("stripe", strconv.FormatInt(int64(sm.Info.ID), 10)).
			Arg("row", strconv.Itoa(pos-c.cfg.K))
	}
	m := c.metrics()
	end := func() {
		span.End()
		if m != nil {
			m.repairLat.Observe(time.Since(t0).Seconds())
		}
	}
	ctx = tenant.NewContext(ctx, c.acct.Owner(owner))
	old, err := c.recordedHolders(sm, pos)
	if err != nil {
		end()
		return done(err)
	}
	size := int64(c.cfg.BlockSizeBytes)
	publish := func(typ events.Type, node, peer topology.NodeID, bytes int64) {
		ev := events.New(typ, "raidnode")
		ev.Block, ev.Stripe, ev.Node, ev.Peer = block, sm.Info.ID, node, peer
		ev.Bytes, ev.Detail = bytes, detail
		ev.Trace = telemetry.TraceFromContext(ctx)
		c.Journal().Publish(ev)
	}
	publish(events.RepairStarted, t.target, events.NoneNode, 0)
	return c.foldMember(ctx, loop, sm, pos, t.target, make(map[holder]bool), end, func(block blockstore.Sealed, ledger chainLedger, err error) error {
		if err == nil {
			err = c.commitMember(sm, pos, t.target, block)
		}
		if err != nil {
			return done(err)
		}
		publish(events.RepairFinished, t.target, events.NoneNode, size)
		// The repair supersedes the member's prior locations (typically a dead
		// node's): retire them in the journal so stream-tracking models
		// converge on the post-repair layout — a data replica is deleted, a
		// parity row moves holder (the auditor rewrites its parity map on this,
		// same as a BlockMover relocation). Published after RepairFinished, so
		// the modeled replica count never dips below one on a successful
		// repair.
		for _, n := range old {
			if n == t.target {
				continue
			}
			if pos < c.cfg.K {
				publish(events.ReplicaDeleted, n, events.NoneNode, 0)
			} else {
				publish(events.ReplicaRelocated, n, t.target, size)
			}
		}
		cross := int64((ledger.crossHops + ledger.crossDeliveries) * c.cfg.BlockSizeBytes)
		if m != nil {
			m.repairCross.Add(float64(cross))
			m.repairMBps.Observe(recoveryThroughputMBps(size, time.Since(t0)))
		}
		c.acct.Charge(tenant.FromContext(ctx), "repair", 1, size)
		if pos < c.cfg.K {
			stats.BlocksRepaired++
		} else {
			stats.ParityRepaired++
		}
		stats.BytesRepaired += size
		stats.CrossRackBytes += cross
		stats.TotalBytes += int64((ledger.hops + ledger.deliveries) * c.cfg.BlockSizeBytes)
		return done(nil)
	})
}
