package hdfs

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/mapred"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// RaidNode coordinates the asynchronous encoding operation, the role
// HDFS-RAID's RaidNode plays: it drains the pre-encoding store, submits a
// map-only MapReduce encoding job whose tasks prefer (and, with the strict
// flag, are pinned to) each stripe's core rack, verifies post-encoding
// placement (PlacementMonitor), and relocates blocks when rack-level fault
// tolerance is violated (BlockMover).
type RaidNode struct {
	c *Cluster
}

// EncodeStats is the outcome of one encoding job.
type EncodeStats struct {
	Stripes        int
	EncodedBytes   int64
	Duration       time.Duration
	ThroughputMBps float64
	// CrossRackDownloads counts data blocks fetched across racks by
	// encoding tasks (zero under EAR with strict scheduling); for the chain,
	// the per-row hops whose partial sum crossed a rack.
	CrossRackDownloads int
	// Violations counts stripes whose post-encoding layout breaks
	// rack-level fault tolerance and needs the BlockMover.
	Violations int
	// PipelinedStripes counts stripes encoded through the chain engine:
	// all of them, unless the job was handed a ParityFunc (EncodeAllWith).
	PipelinedStripes int
	// PartialSumBytes is the partial parity-sum traffic shipped between
	// chain hops: one block per hop of each row's chain. Cross-rack hops
	// also count toward CrossRackDownloads, one block-equivalent each (m per
	// rack boundary of the cover), so the chain stays comparable with a
	// baseline that downloads whole blocks; the parity deliveries are uploads
	// either way and count toward neither.
	PartialSumBytes int64
	// CrossRackUploads counts parity blocks delivered to their holders across
	// racks (zero under EAR while a stripe's parity fits in its core rack).
	CrossRackUploads int
	// TaskPlacements records where each map task that got a slot ran.
	TaskPlacements []mapred.Placement
}

func newRaidNode(c *Cluster) *RaidNode { return &RaidNode{c: c} }

// encodeTask is one map task: the mapred.Task the JobTracker places, with its
// scheduling preference, the stripes it encodes and the parity homes each
// stripe's plan is asked for (homes[i] for stripes[i]; empty under RR).
type encodeTask struct {
	mapred.Task
	stripes []*placement.StripeInfo
	homes   [][]topology.NodeID
}

// buildTasks splits the pending stripes into map tasks of ceil(stripes /
// MapTasks) stripes each. Under RR that yields at most MapTasks tasks with
// no placement preference. Under EAR the split runs per core rack — stripes
// sharing a core rack stay together and their tasks are pinned to that rack
// (the paper's second and third modifications), each preferring the node of
// it that (seed, the task's first stripe) draws — so every core rack's
// remainder makes a task of its own and the job can hold up to MapTasks +
// racks - 1 tasks. The rack's nodes take turns at holding its stripes'
// parity (parityHomes), starting from the node the rack's first task prefers.
func (r *RaidNode) buildTasks(stripes []*placement.StripeInfo) ([]*encodeTask, error) {
	if len(stripes) == 0 {
		return nil, nil
	}
	perTask := (len(stripes) + r.c.cfg.MapTasks - 1) / r.c.cfg.MapTasks

	if r.c.cfg.Policy != "ear" {
		var tasks []*encodeTask
		for start := 0; start < len(stripes); start += perTask {
			group := stripes[start:min(start+perTask, len(stripes))]
			tasks = append(tasks, &encodeTask{Task: mapred.Task{Preferred: mapred.AnyNode}, stripes: group, homes: make([][]topology.NodeID, len(group))})
		}
		return tasks, nil
	}

	byRack := make(map[topology.RackID][]*placement.StripeInfo)
	var rackOrder []topology.RackID
	for _, s := range stripes {
		if _, ok := byRack[s.CoreRack]; !ok {
			rackOrder = append(rackOrder, s.CoreRack)
		}
		byRack[s.CoreRack] = append(byRack[s.CoreRack], s)
	}
	var tasks []*encodeTask
	for _, rack := range rackOrder {
		group := byRack[rack]
		nodes, err := r.c.top.NodesInRack(rack)
		if err != nil {
			return nil, err
		}
		draw := func(s *placement.StripeInfo) int { return int(drawFor(r.c.cfg.Seed, int64(s.ID)) % uint64(len(nodes))) }
		homes := parityHomes(nodes, draw(group[0]), group, min(r.c.cfg.N-r.c.cfg.K, r.c.cfg.C))
		for start := 0; start < len(group); start += perTask {
			end := min(start+perTask, len(group))
			tasks = append(tasks, &encodeTask{
				Task:    mapred.Task{Preferred: nodes[draw(group[start])], StrictRack: true},
				stripes: group[start:end],
				homes:   homes[start:end],
			})
		}
	}
	return tasks, nil
}

// parityHomes returns, for each stripe of one core rack's group in the order
// the job encodes them, the h nodes of the rack (nodes) its parity should
// stay home on. In a stripe's fold every node of the core rack that holds a
// member sends one partial sum per parity row it does not hold (chain.go).
// The stripes of a group are encoded at once, and a node that never held
// parity would forward every row of every stripe on its one NIC: so the
// homes take turns around the rack, h nodes on per stripe from nodes[first],
// the stripe's member holders before the rest of the rack (a holder is a hop
// of the fold already). The planner keeps the homes free of data blocks while
// it can (placement.PlanPostEncoding).
func parityHomes(nodes []topology.NodeID, first int, group []*placement.StripeInfo, h int) [][]topology.NodeID {
	homes := make([][]topology.NodeID, len(group))
	for i, s := range group {
		holds := func(n topology.NodeID) bool {
			return slices.ContainsFunc(s.Placements, func(pl topology.Placement) bool { return pl.Contains(n) })
		}
		turn := (first + i*h) % len(nodes)
		order := append(slices.Clone(nodes[turn:]), nodes[:turn]...)
		slices.SortStableFunc(order, func(a, b topology.NodeID) int {
			switch ha, hb := holds(a), holds(b); {
			case ha && !hb:
				return -1
			case hb && !ha:
				return 1
			}
			return 0
		})
		homes[i] = order[:min(h, len(order))]
	}
	return homes
}

// EncodeAll encodes every pending stripe with a background context. See
// EncodeAllCtx.
func (r *RaidNode) EncodeAll() (EncodeStats, error) {
	return r.EncodeAllCtx(context.Background())
}

// EncodeAllCtx encodes every pending stripe through the chain engine. See
// EncodeAllWith.
func (r *RaidNode) EncodeAllCtx(ctx context.Context) (EncodeStats, error) {
	return r.EncodeAllWith(ctx, nil)
}

// StripeParity is one stripe's parity as a ParityFunc returns it: the m
// blocks, sealed, which the encode stores as they are, their bytes already shaped all
// the way to plan.Parity; the mask of aborted members, which have no bytes
// anywhere and went in as zeros like short-stripe padding; and the stripe's
// share of the three EncodeStats traffic figures.
type StripeParity struct {
	Blocks             []blockstore.Sealed
	Aborted            []bool
	CrossRackDownloads int
	PartialSumBytes    int64
	CrossRackUploads   int
}

// ParityFunc materializes the m parity blocks of a planned stripe at
// plan.Parity on behalf of the encoder node. It stores and commits nothing:
// a failure or a cancellation leaves every store and the metadata as they
// were. A ParityFunc hands the blocks over and never writes them again. The
// span carried by ctx is the map task's.
type ParityFunc func(ctx context.Context, info *placement.StripeInfo, encoder topology.NodeID, plan *placement.PostEncodingPlan) (StripeParity, error)

// EncodeAllWith drains the pre-encoding store and encodes every pending
// stripe through one MapReduce job, returning the job's statistics. fn
// materializes each stripe's parity in place of the chain engine (nil: the
// chain); planning, the staged parity stores, replica deletion, the metadata
// commit, events and tenant charges stay the RaidNode's. An experiment
// measures the paper's HDFS-RAID gather this way
// (internal/experiments/hdfsraid); the choice ends with the job and nothing
// remembers it. A chain job folds all its map tasks' stripes in one stage loop
// (foldJob); a gather job runs each task on a goroutine of its own
// (mapred.JobTracker.SubmitCtx), which encodes the task's stripes one after
// another, as HDFS-RAID's map task does. When a tracer is installed
// (Cluster.SetTracer) the job emits one span per phase: stripe-selection,
// then per map task and stripe the chain's raidnode.chain-hop stages (or
// whatever fn emits) and replica-delete. Cancelling ctx cancels the job:
// tasks waiting for slots give up and running tasks abort their in-flight
// transfers within one chunk reservation.
func (r *RaidNode) EncodeAllWith(ctx context.Context, fn ParityFunc) (EncodeStats, error) {
	jobSpan, ctx := r.c.opSpan(ctx, "raidnode", "encode-job")
	defer jobSpan.End()
	tel := r.c.metrics()

	sel := jobSpan.Child("stripe-selection")
	stripes, err := r.c.nn.TakePendingStripes()
	var tasks []*encodeTask
	if err == nil {
		tasks, err = r.buildTasks(stripes)
	}
	sel.End()
	if err != nil {
		return EncodeStats{}, err
	}
	jobSpan.Arg("stripes", strconv.Itoa(len(stripes))).Arg("tasks", strconv.Itoa(len(tasks)))
	job := mapred.Job{Name: fmt.Sprintf("encode-%d-stripes", len(stripes))}
	for i, t := range tasks {
		t.Name = fmt.Sprintf("%s-map%d", job.Name, i)
	}
	var mu sync.Mutex
	stats := EncodeStats{Stripes: len(stripes)}
	if tel != nil {
		tel.encJobs.Inc()
	}
	done := func(s *placement.StripeInfo, sp StripeParity, violated bool) {
		encodedBytes := int64(len(s.Blocks) * r.c.cfg.BlockSizeBytes)
		mu.Lock()
		stats.CrossRackDownloads += sp.CrossRackDownloads
		if violated {
			stats.Violations++
		}
		stats.EncodedBytes += encodedBytes
		if fn == nil {
			stats.PipelinedStripes++
		}
		stats.PartialSumBytes += sp.PartialSumBytes
		stats.CrossRackUploads += sp.CrossRackUploads
		mu.Unlock()
		if tel != nil {
			tel.crossDl.Add(float64(sp.CrossRackDownloads))
			if violated {
				tel.violations.Inc()
			}
			tel.stripes.Inc()
			tel.encBytes.Add(float64(encodedBytes))
			if fn == nil {
				tel.pipeStripes.Inc()
			}
			tel.partialBytes.Add(float64(sp.PartialSumBytes))
			tel.crossUp.Add(float64(sp.CrossRackUploads))
		}
	}
	start := time.Now()
	if fn == nil {
		stats.TaskPlacements, err = r.c.foldJob(ctx, tasks, done)
	} else {
		for _, t := range tasks {
			t.Run = func(taskCtx context.Context, on topology.NodeID) error {
				span, taskCtx := mapTaskSpan(taskCtx, t.Name, on)
				defer span.End()
				for j := range t.stripes {
					if err := r.c.encodeStripe(taskCtx, t, j, on, nil, fn, done); err != nil {
						return err
					}
				}
				return nil
			}
			job.Tasks = append(job.Tasks, &t.Task)
		}
		stats.TaskPlacements, err = r.c.jt.SubmitCtx(ctx, job)
	}
	stats.Duration = time.Since(start)
	if err != nil {
		return stats, err
	}
	if stats.Duration > 0 {
		stats.ThroughputMBps = float64(stats.EncodedBytes) / (1 << 20) / stats.Duration.Seconds()
	}
	return stats, nil
}

// mapTaskSpan opens the span of the named map task on node on, under the span
// carried by ctx, and returns it with a context that carries it.
func mapTaskSpan(ctx context.Context, name string, on topology.NodeID) (*telemetry.Span, context.Context) {
	span := telemetry.SpanFromContext(ctx).ChildTrack("map-task").Arg(telemetry.ComponentArg, "raidnode").
		Arg("task", name).Arg("node", strconv.Itoa(int(on)))
	return span, telemetry.ContextWithSpan(ctx, span)
}

// foldJob runs a chain encode job in one stage loop on the caller's goroutine
// and returns where each task that got a slot ran, in placement order. A slot
// the JobTracker grants a task admits all its stripes to the loop before the
// loop's next booking (stageLoop.run): the j-th stripe of every placed task,
// in task order, before any task's (j+1)-th, the order their runs' bookings
// take at one instant. A task waiting for a slot stalls no run and is asked
// again after each step; the loop blocks for one only once it has no run
// left. A task's slot is released, and its map-task span ends, when its last
// stripe commits or the loop closes. The first error ends the job.
func (c *Cluster) foldJob(ctx context.Context, tasks []*encodeTask, done func(*placement.StripeInfo, StripeParity, bool)) ([]mapred.Placement, error) {
	type mapTask struct {
		pl             mapred.Placement
		span           *telemetry.Span
		ctx            context.Context
		admitted, left int // left > 0 while the task holds its slot
	}
	mts := make([]*mapTask, len(tasks)) // nil while a task waits for its slot
	var placements []mapred.Placement
	place := func(i int, wait bool) (bool, error) {
		pl, ok, err := c.jt.Place(ctx, &tasks[i].Task, wait)
		if ok {
			mts[i] = &mapTask{pl: pl, left: len(tasks[i].stripes)}
			mts[i].span, mts[i].ctx = mapTaskSpan(ctx, pl.Task, pl.Node)
			placements = append(placements, pl)
		}
		return ok, err
	}
	loop := newStageLoop(c)
	defer func() {
		loop.close()
		for _, mt := range mts {
			if mt != nil && mt.left > 0 {
				c.jt.Release(mt.pl)
				mt.span.End()
			}
		}
	}()
	err := loop.run(ctx, -1, func(int) (bool, error) {
		next, waiting := -1, -1
		for i := range tasks {
			if mts[i] == nil {
				if ok, err := place(i, false); err != nil {
					return false, err
				} else if !ok {
					waiting = i
					continue
				}
			}
			if mts[i].admitted < len(tasks[i].stripes) && (next < 0 || mts[i].admitted < mts[next].admitted) {
				next = i
			}
		}
		if next < 0 {
			// Any stripe left is a waiting task's: block for a slot only when
			// no run is left to stall.
			if waiting < 0 || len(loop.runs) > 0 {
				return false, nil
			}
			if _, err := place(waiting, true); err != nil {
				return false, err
			}
			next = waiting
		}
		mt, t, j := mts[next], tasks[next], mts[next].admitted
		mt.admitted++
		return true, c.encodeStripe(mt.ctx, t, j, mt.pl.Node, loop, nil, func(info *placement.StripeInfo, sp StripeParity, violated bool) {
			done(info, sp, violated)
			if mt.left--; mt.left == 0 {
				c.jt.Release(mt.pl)
				mt.span.End()
			}
		})
	})
	return placements, err
}

// encodeStripe encodes stripe i of map task t on behalf of the encoder node:
// it plans the stripe's layout, asking for the parity homes the job gave it
// (none under RR), materializes its parity at the planned holders — folded in
// the job's loop when materialize is nil (parityFold), which commits the
// stripe as its fold ends — and commits it (commitStripe), after which done
// gets its parity figures and whether its layout violates rack fault
// tolerance. Parity stays staged until its stripe commits, so a cancellation
// commits no unfinished stripe: no store gains its parity key, no replica of
// it is deleted, and the requeued stripe re-encodes from its intact replicas.
// The span carried by ctx, the map task's, gets one child span per phase.
func (c *Cluster) encodeStripe(ctx context.Context, t *encodeTask, i int, encoder topology.NodeID, loop *stageLoop, materialize ParityFunc, done func(*placement.StripeInfo, StripeParity, bool)) error {
	info := t.stripes[i]
	start := time.Now()
	parent := telemetry.SpanFromContext(ctx)
	if j := c.Journal(); j != nil {
		ev := events.New(events.StripeEncodeStarted, "raidnode")
		ev.Stripe, ev.Node, ev.Trace, ev.Detail = info.ID, encoder, parent.TraceID(), "pipelined"
		if materialize != nil {
			ev.Detail = "gather"
		}
		ev.Rack, _ = c.top.RackOf(encoder) // the JobTracker placed the task on a known node
		j.Publish(ev)
	}
	plan, err := c.nn.PlanStripe(info, t.homes[i]...)
	if err != nil {
		return err
	}
	sp := new(StripeParity)
	matStart := time.Now()
	commit := func() error {
		violated, err := c.commitStripe(info, plan, sp, matStart, parent)
		if m := c.metrics(); m != nil {
			m.encStripe.Observe(time.Since(start).Seconds())
		}
		if err == nil {
			done(info, *sp, violated)
		}
		return err
	}
	if materialize == nil {
		return c.parityFold(ctx, loop, info, encoder, plan, sp, commit)
	}
	if *sp, err = materialize(ctx, info, encoder, plan); err != nil {
		return err
	}
	return commit()
}

// commitStripe commits a stripe whose parity, materialized from matStart on,
// has been shaped all the way to its planned holders: each holder's store
// adopting its parity block as it is, the deletes of the redundant replicas,
// the metadata commit and the tenant charges. It reports whether the
// committed layout violates rack fault tolerance.
func (c *Cluster) commitStripe(info *placement.StripeInfo, plan *placement.PostEncodingPlan, sp *StripeParity, matStart time.Time, parent *telemetry.Span) (violated bool, err error) {
	if m := c.metrics(); m != nil {
		if secs := time.Since(matStart).Seconds(); secs > 0 {
			m.encMBps.Observe(float64(len(info.Blocks)*c.cfg.BlockSizeBytes) / (1 << 20) / secs)
		}
	}
	for j, node := range plan.Parity {
		dn, err := c.DataNodeOf(node)
		if err != nil {
			return false, err
		}
		if err := dn.Store.Adopt(ParityKey(info.ID, j), sp.Blocks[j]); err != nil {
			return false, fmt.Errorf("store parity %d on node %d: %w", j, node, err)
		}
	}
	// Delete redundant replicas, keeping the plan's chosen one. Aborted
	// members never stored anything.
	del := parent.Child("replica-delete")
	defer del.End()
	jnl := c.Journal()
	for i, b := range info.Blocks {
		if sp.Aborted[i] {
			continue
		}
		for _, n := range info.Placements[i].Nodes {
			if n == plan.Keep[i] {
				continue
			}
			dn, err := c.DataNodeOf(n)
			if err != nil {
				return false, err
			}
			if err := dn.Store.Delete(DataKey(b)); err != nil {
				return false, fmt.Errorf("delete replica of %d on %d: %w", b, n, err)
			}
			if jnl != nil {
				ev := events.New(events.ReplicaDeleted, "raidnode")
				ev.Block = b
				ev.Stripe = info.ID
				ev.Node = n
				ev.Trace = parent.TraceID()
				jnl.Publish(ev)
			}
		}
	}
	if err := c.nn.CommitEncoding(info.ID, plan); err != nil {
		return false, err
	}
	// Encoding is background work driven by the RaidNode, not a tenant
	// request: bill each member block's owner for its share of the stripe.
	for i, b := range info.Blocks {
		if sp.Aborted[i] {
			continue
		}
		c.acct.Charge(c.acct.Owner(b), "encode", 1, int64(c.cfg.BlockSizeBytes))
	}
	return plan.Violation, nil
}

// PlacementMonitor scans encoded stripes and returns the IDs of those whose
// current layout violates the rack-level fault-tolerance requirement.
func (r *RaidNode) PlacementMonitor() ([]topology.StripeID, error) {
	var bad []topology.StripeID
	jnl := r.c.Journal()
	for _, id := range r.c.nn.EncodedStripes() {
		sm, err := r.c.nn.Stripe(id)
		if err != nil {
			return nil, err
		}
		layout, err := r.currentLayout(sm)
		if err != nil {
			return nil, err
		}
		detail := "ok"
		if err := layout.Validate(r.c.top, r.c.cfg.C); err != nil {
			bad = append(bad, id)
			detail = "violating"
		}
		if jnl != nil {
			ev := events.New(events.StripeVerified, "raidnode")
			ev.Stripe = id
			ev.Detail = detail
			jnl.Publish(ev)
		}
	}
	return bad, nil
}

// currentLayout assembles the recorded layout of an encoded stripe, position
// by position: what the NameNode records (recordedHolders), dead holders
// included, since the PlacementMonitor audits recorded placement.
func (r *RaidNode) currentLayout(sm *StripeMeta) (topology.StripeLayout, error) {
	c := r.c
	layout := topology.StripeLayout{Stripe: sm.Info.ID}
	for pos := 0; pos < c.cfg.N; pos++ {
		nodes, err := c.recordedHolders(sm, pos)
		if err != nil {
			return layout, err
		}
		if pos < c.cfg.K {
			layout.Data = append(layout.Data, nodes...)
		} else {
			layout.Parity = append(layout.Parity, nodes...)
		}
	}
	return layout, nil
}

// BlockMover relocates blocks of violating stripes with a background
// context. See BlockMoverCtx.
func (r *RaidNode) BlockMover() (moved int, movedBytes int64, err error) {
	return r.BlockMoverCtx(context.Background())
}

// BlockMoverCtx relocates members of violating stripes until each rack holds
// at most c members of the stripe, returning the number of members moved and
// the bytes of relocation traffic generated (the overhead EAR avoids). It is
// a sweep whose planner names, for each stripe the PlacementMonitor flags,
// the member crowdedMember names against the stripe's current layout, one a
// stripe a round, moved as its fold ends (relocateMember), until no stripe
// has a move. A failed move ends the pass; a member no node may take is
// reported once the others have moved.
func (r *RaidNode) BlockMoverCtx(ctx context.Context) (moved int, movedBytes int64, err error) {
	c := r.c
	bad, err := r.PlacementMonitor()
	if err != nil {
		return 0, 0, err
	}
	moved, err = c.sweep(ctx, func() (planned []recoverTask, err error) {
		for _, id := range bad {
			sm, err := c.nn.Stripe(id)
			if err != nil {
				return nil, err
			}
			move, err := c.crowdedMember(sm)
			if err != nil {
				return nil, err
			}
			planned = append(planned, move...)
		}
		return planned, nil
	}, func(loop *stageLoop, t recoverTask, done func(error) error) error {
		return c.relocateMember(ctx, loop, t, done)
	})
	return moved, int64(moved * c.cfg.BlockSizeBytes), err
}

// crowdedMember returns the BlockMover's move of the stripe, if any: its lowest
// position (data before parity) whose only live copy sits in a rack holding
// more than c of its members, from that copy's node. An over-full rack holding
// no such copy is an error. The same state always names the same member.
func (c *Cluster) crowdedMember(sm *StripeMeta) ([]recoverTask, error) {
	_, rackCount, err := c.stripeOccupancy(sm)
	if err != nil {
		return nil, err
	}
	for pos := 0; pos < c.cfg.N; pos++ {
		live, _, err := c.posHolders(sm, pos, nil)
		if err != nil {
			return nil, err
		}
		if len(live) != 1 {
			continue
		}
		rk, err := c.top.RackOf(live[0])
		if err != nil {
			return nil, err
		}
		if rackCount[rk] > c.maxPerRack() {
			return []recoverTask{{sm: sm, pos: pos, from: live[0]}}, nil
		}
	}
	for _, cnt := range rackCount {
		if cnt > c.maxPerRack() {
			return nil, fmt.Errorf("hdfs: stripe %d: an over-full rack holds no sole copy to move", sm.Info.ID)
		}
	}
	return nil, nil
}

// relocateMember admits to the loop the BlockMover's move of member t.pos of
// stripe t.sm from its only holder t.from to t.target: a rebuild at the target
// (foldMember, committed by commitMember: a copy of the source while it reads
// clean, a decode from the rest of the stripe when it is corrupt), then the
// ReplicaRelocated event and, only now that the NameNode names the new holder,
// the delete of the source copy, reported to done. A failure ends the loop;
// one before the metadata commit leaves the source copy the recorded one.
func (c *Cluster) relocateMember(ctx context.Context, loop *stageLoop, t recoverTask, done func(error) error) error {
	return c.foldMember(ctx, loop, t.sm, t.pos, t.target, make(map[holder]bool), func() {}, func(block blockstore.Sealed, _ chainLedger, err error) error {
		if err == nil {
			err = c.commitMember(t.sm, t.pos, t.target, block)
		}
		if err != nil {
			return err
		}
		ev := events.New(events.ReplicaRelocated, "blockmover")
		ev.Stripe, ev.Node, ev.Peer = t.sm.Info.ID, t.from, t.target
		ev.Bytes = int64(c.cfg.BlockSizeBytes)
		if t.pos < c.cfg.K {
			ev.Block = t.sm.Info.Blocks[t.pos]
		} else {
			ev.Detail = "parity"
		}
		c.Journal().Publish(ev)
		dn, err := c.DataNodeOf(t.from)
		if err == nil {
			err = dn.Store.Delete(c.memberKey(t.sm, t.pos))
		}
		if err != nil {
			return err
		}
		return done(nil)
	})
}
