package hdfs

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/mapred"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// encodeFanIn bounds how many stripes one encode map task works on
// concurrently, moverFanIn how many violating stripes the BlockMover fixes
// concurrently.
const (
	encodeFanIn = 4
	moverFanIn  = 4
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
	// TaskPlacements records where each encoding map task ran.
	TaskPlacements []mapred.Placement
}

func newRaidNode(c *Cluster) *RaidNode { return &RaidNode{c: c} }

// encodeTask is one map task's work: the stripes it encodes, the parity
// homes each stripe's plan is asked for (homes[i] for stripes[i]; none under
// RR) and its scheduling preference.
type encodeTask struct {
	stripes   []*placement.StripeInfo
	homes     [][]topology.NodeID
	preferred topology.NodeID
	strict    bool
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
			end := start + perTask
			if end > len(stripes) {
				end = len(stripes)
			}
			tasks = append(tasks, &encodeTask{stripes: stripes[start:end], preferred: mapred.AnyNode})
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
			end := start + perTask
			if end > len(group) {
				end = len(group)
			}
			tasks = append(tasks, &encodeTask{
				stripes:   group[start:end],
				homes:     homes[start:end],
				preferred: nodes[draw(group[start])],
				strict:    true,
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
// blocks in Cluster.BufferPool buffers (the encode releases them), their
// bytes already shaped all the way to plan.Parity; the mask of aborted
// members, which have no bytes anywhere and went in as zeros like
// short-stripe padding; and the stripe's share of the three EncodeStats
// traffic figures.
type StripeParity struct {
	Blocks             [][]byte
	Aborted            []bool
	CrossRackDownloads int
	PartialSumBytes    int64
	CrossRackUploads   int
}

// ParityFunc materializes the m parity blocks of a planned stripe at
// plan.Parity on behalf of the encoder node. It stores and commits nothing:
// a failure or a cancellation leaves every store and the metadata as they
// were, and releases whatever it took from the buffer pool. The span carried
// by ctx is the map task's.
type ParityFunc func(ctx context.Context, info *placement.StripeInfo, encoder topology.NodeID, plan *placement.PostEncodingPlan) (StripeParity, error)

// EncodeAllWith drains the pre-encoding store and encodes every pending
// stripe through one MapReduce job, returning the job's statistics. fn
// materializes each stripe's parity in place of the chain engine (nil: the
// chain); planning, the staged parity Puts, replica deletion, the metadata
// commit, events and tenant charges stay the RaidNode's. An experiment
// measures the paper's HDFS-RAID gather this way
// (internal/experiments/hdfsraid); the choice ends with the job and nothing
// remembers it. When a tracer is installed (Cluster.SetTracer) the job emits
// one span per phase: stripe-selection, then per map task and stripe the
// chain's raidnode.chain-hop stages (or whatever fn emits) and
// replica-delete. Cancelling ctx cancels the job: tasks waiting for slots
// give up and running tasks abort their in-flight transfers within one chunk
// reservation.
func (r *RaidNode) EncodeAllWith(ctx context.Context, fn ParityFunc) (EncodeStats, error) {
	var jobSpan *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		jobSpan = parent.Child("encode-job")
	} else {
		jobSpan = r.c.trace().Start("encode-job")
	}
	jobSpan.Arg(telemetry.ComponentArg, "raidnode")
	defer jobSpan.End()
	ctx = telemetry.ContextWithSpan(ctx, jobSpan)
	tel := r.c.metrics()

	sel := jobSpan.Child("stripe-selection")
	stripes, err := r.c.nn.TakePendingStripes()
	if err != nil {
		sel.End()
		return EncodeStats{}, err
	}
	tasks, err := r.buildTasks(stripes)
	sel.End()
	if err != nil {
		return EncodeStats{}, err
	}
	jobSpan.Arg("stripes", strconv.Itoa(len(stripes))).Arg("tasks", strconv.Itoa(len(tasks)))
	var job mapred.Job
	job.Name = fmt.Sprintf("encode-%d-stripes", len(stripes))
	var mu sync.Mutex
	stats := EncodeStats{Stripes: len(stripes)}
	if tel != nil {
		tel.encJobs.Inc()
	}
	for i, t := range tasks {
		t := t
		name := fmt.Sprintf("%s-map%d", job.Name, i)
		job.Tasks = append(job.Tasks, &mapred.Task{
			Name:       name,
			Preferred:  t.preferred,
			StrictRack: t.strict,
			Run: func(taskCtx context.Context, on topology.NodeID) error {
				taskSpan := jobSpan.ChildTrack("map-task").
					Arg(telemetry.ComponentArg, "raidnode").
					Arg("task", name).
					Arg("node", strconv.Itoa(int(on)))
				defer taskSpan.End()
				taskCtx = telemetry.ContextWithSpan(taskCtx, taskSpan)
				// Stripes are independent, so the task keeps up to encodeFanIn
				// of them in flight.
				sg, sctx := workgroup.WithContext(taskCtx)
				sg.SetLimit(encodeFanIn)
				for i, s := range t.stripes {
					var homes []topology.NodeID
					if t.homes != nil {
						homes = t.homes[i]
					}
					sg.Go(func() error {
						sp, violated, err := r.c.encodeStripe(sctx, s, homes, on, taskSpan, fn)
						if err != nil {
							return err
						}
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
							if sp.PartialSumBytes > 0 {
								tel.partialBytes.Add(float64(sp.PartialSumBytes))
							}
							tel.crossUp.Add(float64(sp.CrossRackUploads))
						}
						return nil
					})
				}
				return sg.Wait()
			},
		})
	}
	start := time.Now()
	placements, err := r.c.jt.SubmitCtx(ctx, job)
	stats.Duration = time.Since(start)
	stats.TaskPlacements = placements
	if err != nil {
		return stats, err
	}
	if stats.Duration > 0 {
		stats.ThroughputMBps = float64(stats.EncodedBytes) / (1 << 20) / stats.Duration.Seconds()
	}
	return stats, nil
}

// encodeStripe performs the encoding operation for one stripe on behalf of
// the given node: plan the post-encoding layout (asking for the parity homes
// the job gave the stripe, none under RR), materialize every parity
// block at its planned holder (materialize; nil is the chain engine — the
// replica holders fold each parity row along a chain of its own that ends on
// the row's holder), commit the parity,
// and delete the redundant replicas. The fabric's shaping serializes
// transfers where links are shared, as the TaskTracker's parallel reads of
// Section II-A would be. The parent span (nil for untraced runs) receives
// one child span per phase. It returns, for the job-level stats merge, the
// stripe's parity with the blocks released and whether the committed layout
// violates rack fault tolerance.
func (c *Cluster) encodeStripe(ctx context.Context, info *placement.StripeInfo, homes []topology.NodeID, encoder topology.NodeID, parent *telemetry.Span, materialize ParityFunc) (sp StripeParity, violated bool, err error) {
	encRack, err := c.top.RackOf(encoder)
	if err != nil {
		return sp, false, err
	}
	stripeStart := time.Now()
	defer func() {
		if m := c.metrics(); m != nil {
			m.encStripe.Observe(time.Since(stripeStart).Seconds())
		}
	}()
	detail := "gather"
	if materialize == nil {
		materialize, detail = c.pipelineParity, "pipelined"
	}
	trace := telemetry.TraceFromContext(ctx)
	if j := c.Journal(); j != nil {
		ev := events.New(events.StripeEncodeStarted, "raidnode")
		ev.Stripe = info.ID
		ev.Node = encoder
		ev.Rack = encRack
		ev.Trace = trace
		ev.Detail = detail
		j.Publish(ev)
	}
	plan, err := c.nn.PlanStripe(info, homes...)
	if err != nil {
		return sp, false, err
	}
	// The parity comes back in pooled buffers (released here, success or not)
	// whose bytes have been shaped all the way to plan.Parity, with the
	// aborted-member mask. Puts stay staged until then — the same contract
	// as the write pipeline — so a cancellation up to this point commits
	// nothing: no store gains a parity key, no replica is deleted, and the
	// requeued stripe re-encodes from its intact replicas.
	matStart := time.Now()
	sp, err = materialize(ctx, info, encoder, plan)
	defer func() {
		for _, p := range sp.Blocks {
			c.bufPool.Put(p)
		}
		sp.Blocks = nil
	}()
	if err != nil {
		return sp, false, err
	}
	if m := c.metrics(); m != nil {
		if secs := time.Since(matStart).Seconds(); secs > 0 {
			m.encMBps.Observe(float64(len(info.Blocks)*c.cfg.BlockSizeBytes) / (1 << 20) / secs)
		}
		m.poolHit.Set(c.bufPool.HitRate())
	}
	for j, node := range plan.Parity {
		dn, err := c.DataNodeOf(node)
		if err != nil {
			return sp, false, err
		}
		if err := dn.Store.Put(ParityKey(info.ID, j), sp.Blocks[j]); err != nil {
			return sp, false, fmt.Errorf("store parity %d on node %d: %w", j, node, err)
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
				return sp, false, err
			}
			if err := dn.Store.Delete(DataKey(b)); err != nil {
				return sp, false, fmt.Errorf("delete replica of %d on %d: %w", b, n, err)
			}
			if jnl != nil {
				ev := events.New(events.ReplicaDeleted, "raidnode")
				ev.Block = b
				ev.Stripe = info.ID
				ev.Node = n
				ev.Trace = trace
				jnl.Publish(ev)
			}
		}
	}
	if err := c.nn.CommitEncoding(info.ID, plan); err != nil {
		return sp, false, err
	}
	// Encoding is background work driven by the RaidNode, not a tenant
	// request: bill each member block's owner for its share of the stripe.
	for i, b := range info.Blocks {
		if sp.Aborted[i] {
			continue
		}
		c.acct.Charge(c.acct.Owner(b), "encode", 1, int64(c.cfg.BlockSizeBytes))
	}
	return sp, plan.Violation, nil
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

// currentLayout assembles the live layout of an encoded stripe.
func (r *RaidNode) currentLayout(sm *StripeMeta) (topology.StripeLayout, error) {
	layout := topology.StripeLayout{Stripe: sm.Info.ID}
	for _, b := range sm.Info.Blocks {
		meta, err := r.c.nn.Block(b)
		if err != nil {
			return layout, err
		}
		layout.Data = append(layout.Data, meta.Nodes...)
	}
	if sm.Plan != nil {
		layout.Parity = append(layout.Parity, sm.Plan.Parity...)
	}
	return layout, nil
}

// BlockMover relocates blocks of violating stripes with a background
// context. See BlockMoverCtx.
func (r *RaidNode) BlockMover() (moved int, movedBytes int64, err error) {
	return r.BlockMoverCtx(context.Background())
}

// BlockMoverCtx relocates blocks of violating stripes until each rack holds
// at most c blocks of the stripe, returning the number of blocks moved and
// the bytes of relocation traffic generated (the overhead EAR avoids).
// Stripes are independent, so up to moverFanIn of them are fixed
// concurrently.
func (r *RaidNode) BlockMoverCtx(ctx context.Context) (moved int, movedBytes int64, err error) {
	bad, err := r.PlacementMonitor()
	if err != nil {
		return 0, 0, err
	}
	g, gctx := workgroup.WithContext(ctx)
	g.SetLimit(moverFanIn)
	var mu sync.Mutex
	for _, id := range bad {
		id := id
		g.Go(func() error {
			n, b, err := r.fixStripe(gctx, id)
			mu.Lock()
			moved += n
			movedBytes += b
			mu.Unlock()
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return moved, movedBytes, err
	}
	return moved, movedBytes, nil
}

// fixStripe moves members of one stripe out of over-full racks until no rack
// holds more than c of them. It re-fetches the stripe metadata every round:
// Stripe returns a snapshot, and each relocation changes the authoritative
// layout the next round must see.
func (r *RaidNode) fixStripe(ctx context.Context, id topology.StripeID) (moved int, movedBytes int64, err error) {
	c := r.c
	for {
		sm, err := c.nn.Stripe(id)
		if err != nil {
			return moved, movedBytes, err
		}
		used, rackCount, err := c.stripeOccupancy(sm)
		if err != nil {
			return moved, movedBytes, err
		}
		pos, from, err := c.crowdedMember(sm, rackCount)
		if err != nil {
			return moved, movedBytes, err
		}
		if pos < 0 {
			for _, cnt := range rackCount {
				if cnt > c.maxPerRack() {
					return moved, movedBytes, fmt.Errorf("hdfs: stripe %d: an over-full rack holds no sole copy to move", id)
				}
			}
			return moved, movedBytes, nil
		}
		target, err := c.pickTarget(id, used, rackCount, nil)
		if err != nil {
			return moved, movedBytes, err
		}
		if err := c.relocateMember(ctx, sm, pos, from, target); err != nil {
			return moved, movedBytes, err
		}
		moved++
		movedBytes += int64(c.cfg.BlockSizeBytes)
	}
}

// crowdedMember returns the lowest position of the stripe (data before
// parity) whose only live copy sits in a rack holding more than c of the
// stripe's members, and the node holding it; the position is -1 when there is
// none. The same state always names the same member.
func (c *Cluster) crowdedMember(sm *StripeMeta, rackCount map[topology.RackID]int) (int, topology.NodeID, error) {
	for pos := 0; pos < c.cfg.N; pos++ {
		live, _, err := c.posHolders(sm, pos, nil)
		if err != nil {
			return -1, 0, err
		}
		if len(live) != 1 {
			continue
		}
		rk, err := c.top.RackOf(live[0])
		if err != nil {
			return -1, 0, err
		}
		if rackCount[rk] > c.maxPerRack() {
			return pos, live[0], nil
		}
	}
	return -1, 0, nil
}

// relocateMember moves member pos of the stripe from its only holder to
// target, the BlockMover's relocation: a rebuild at the target (rebuildMember —
// while the source copy reads clean the fold is a copy of it through the
// source's disk and the network, and a corrupt one is rebuilt from the rest of
// the stripe instead of failing the pass), the ReplicaRelocated event, and,
// only now that the NameNode names the new holder, the delete of the copy it
// moved away from. An error before the metadata commit leaves the source copy
// the recorded one.
func (c *Cluster) relocateMember(ctx context.Context, sm *StripeMeta, pos int, from, target topology.NodeID) error {
	if _, err := c.rebuildMember(ctx, sm, pos, target); err != nil {
		return err
	}
	ev := events.New(events.ReplicaRelocated, "blockmover")
	ev.Stripe, ev.Node, ev.Peer = sm.Info.ID, from, target
	ev.Bytes = int64(c.cfg.BlockSizeBytes)
	if pos < c.cfg.K {
		ev.Block = sm.Info.Blocks[pos]
	} else {
		ev.Detail = "parity"
	}
	c.Journal().Publish(ev)
	dn, err := c.DataNodeOf(from)
	if err != nil {
		return err
	}
	return dn.Store.Delete(c.memberKey(sm, pos))
}
