package hdfs

// The chain engine. Encoding a stripe, repairing a lost member and reading
// a lost block degraded are one operation: fold coefficient rows over stripe
// members along planned chains, one chain per row. The holders of the members
// are covered once (placement.PlanPipeline, toward the fold's anchor), and
// the cover is ordered once per row toward that row's sink
// (placement.OrderPipeline: rack-contiguous, the sink's rack last, the sink
// itself last). Each row's chain walks the block slice by slice: each hop
// receives the row's upstream partial sum over a fabric stream, folds its
// locally stored members into it with gf256.MulAddSlice, and forwards the
// result downstream, so the row ends on its sink wherever the sink is a hop
// of the cover; only a row whose sink is not one ends in a delivery stage.
// A node reads its members once for all rows, ahead from the shaped disk
// while the sums are still on their way; every stage books its forward from
// the instant the slice was ready, and the slice is sized so the fill stays
// a small share of a block time (foldSliceBytes), so a chain is many slices
// deep and every stage stays busy. Transfer and arithmetic for slice i+1
// overlap the forwarding of slice i, and a rack holding several members
// aggregates them before crossing the core: one block per row per hop, so
// one partial sum per row crosses per rack boundary instead of one block per
// remote member. With the m parity rows the sums are the stripe's parity
// (RapidRAID), each ending on the node that stores it; with one decode row
// they are the lost member (rack-aware regenerating repair), delivered to the
// repair target or the reading client. The engine stores nothing: the sums
// land in the caller's buffers and the caller commits them only after the
// whole fold succeeded, so a canceled fold leaves no trace in any store. The
// stage loop (runStages) also carries the replicated write, a run with no
// members to fold whose stages keep what they forward (client.go).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ear/internal/blockstore"
	"ear/internal/fabric"
	"ear/internal/gf256"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// chainStage is one stage of a stage run, and it carries one row: a planned
// hop of a fold, which folds its local members into the row's partial sum; a
// delivery stage, which receives a finished row at a sink that is no hop of
// the cover; or a replica of a replicated write, which keeps what it
// receives.
type chainStage struct {
	node topology.NodeID
	// row holds the coefficients of the stage's row, indexed by stripe
	// position (nil for a write), and positions and blocks the node's local
	// members it folds with them, shared by every stage of the fold on the
	// node (none at a delivery stage or in a write).
	row       []byte
	positions []int
	blocks    [][]byte
	// up is the stage whose accumulator this one receives (nil at a head,
	// whose accumulator comes filled: zeros for a fold, the caller's bytes for
	// a write); next are the stages that receive from this one.
	up   *chainStage
	next []*chainStage
	// acc is the row's partial sum once this stage has folded: the caller's
	// output buffer where the row ends at its sink.
	acc []byte
	// in is the inbound stream from up's node (nil at a head), which up books
	// on.
	in *fabric.Stream
	// ready carries the slices up has finished and booked on in, in slice
	// order: the index and the instant its bytes arrive.
	ready chan sliceArrival
	// diskRead carries, in slice order, the instant each slice of the node's
	// members arrives from its disk (nil at a stage without members).
	diskRead chan time.Time
	// stagger is how long after a slice's inputs arrived the stage wakes for
	// it; it still books the slice as ready at the arrival. The rows of one
	// fold share links, and so do the folds in flight together: a microsecond
	// per row and the fold's stripe-keyed phase (under a microsecond) order
	// their same-instant bookings by row and stripe instead of by the
	// scheduler.
	stagger time.Duration
	tFirst  time.Time
	tLast   time.Time
}

// sliceArrival is one slice a stage may adopt once the instant has passed.
type sliceArrival struct {
	idx     int
	arrival time.Time
}

// diskReader is one node's read-ahead: the disk stream its members are booked
// on once, slice by slice, for every stage of the run on the node (stages[0]
// names the node and the members).
type diskReader struct {
	disk   *fabric.Stream
	stages []*chainStage
}

// newStage appends to stages a stage at node that receives acc from up.
func newStage(stages []*chainStage, node topology.NodeID, up *chainStage, acc []byte) []*chainStage {
	st := &chainStage{node: node, up: up, acc: acc}
	if up != nil {
		up.next = append(up.next, st)
	}
	return append(stages, st)
}

// chainLedger counts the network transfers of one fold, one block each.
type chainLedger struct {
	// hops are the inbound partial-sum transfers between holders, summed over
	// the rows' chains; crossHops those that crossed the rack core.
	hops, crossHops int
	// deliveries are the finished rows a chain's last holder streamed to a
	// sink that is no hop of the cover.
	deliveries, crossDeliveries int
}

// holder names one stored copy of a stripe position.
type holder struct {
	node topology.NodeID
	pos  int
}

// holderError reports that a hop could not read a member it was planned to
// fold (missing or corrupt copy). The callers re-plan around the named
// holder.
type holderError struct {
	holder
	stripe topology.StripeID
	err    error
}

func (e *holderError) Error() string {
	return fmt.Sprintf("stripe %d position %d on node %d: %v", e.stripe, e.pos, e.node, e.err)
}

func (e *holderError) Unwrap() error { return e.err }

// minSliceBytes is the smallest slice a fold derives: below it the per-slice
// cost of a booking dominates whatever the link rate.
const minSliceBytes = 4 << 10

// fillShare bounds a stage run's fill to 1/fillShare of a block time.
const fillShare = 16

// sliceCPUTime is the link time below which a slice costs more in per-slice
// CPU (a booking, a wake-up, a fold call) than it saves in fill.
const sliceCPUTime = 100 * time.Microsecond

// foldSliceBytes returns the slice a stage run anchored at the given node
// walks the block in, the one slice rule of the package. A run whose longest
// path has S fabric streams in series takes B/R + (S-1)·s/R for block B, link
// rate R and slice s: one block time plus the fill, since every stage books
// its forward from the instant the slice was ready, not from when its host
// woke up. A smaller slice fills faster but costs more bookings — each takes
// CPU, and runs sharing a link interleave at the slice grain — so the slice is
// the largest power of two up to fabric.ChunkBytes that keeps the fill within
// 1/fillShare of the block time, at least minSliceBytes. Where a link moves
// more than a slice in sliceCPUTime at the anchor's current NIC rate (rates
// change under Fabric.SetAllRates), as on an unshaped fabric, per-slice CPU is
// the only cost and the slice grows past that too. Of 256 KiB blocks on 16
// MiB/s links, a 13-stage degraded read walks 4 KiB slices and an encode
// whose row chains are three streams deep 8 KiB; a run one stream deep (a
// copy; a write whose other replica is the writer's own) has no fill and
// walks fabric.ChunkBytes, the grain a Send is shaped at anyway.
func (c *Cluster) foldSliceBytes(anchor topology.NodeID, streams int) int {
	rate, err := c.fab.NodeRate(anchor)
	if err != nil {
		return fabric.ChunkBytes // an unknown anchor fails when its stream opens
	}
	slice := minSliceBytes
	for slice < fabric.ChunkBytes &&
		(float64(2*slice) <= rate*sliceCPUTime.Seconds() || 2*slice*(streams-1)*fillShare <= c.cfg.BlockSizeBytes) {
		slice *= 2
	}
	return slice
}

// runStages walks one block through the stages slice by slice, the only
// stage loop in the package. Every stage with no upstream is a head, and a
// stage is listed after the one it receives from. Every stream of the run — a
// stage's inbound stream from its upstream stage's node, and one disk stream
// per node with members (a same-node stream is the node's disk) — is opened
// here before any stage runs and closed before runStages returns. Each stage
// runs on a goroutine of its own, and booking is the sender's: a stage that
// has finished a slice books it on the inbound stream of every stage after it
// and hands the slice's arrival instant down; one read-ahead worker per node
// with members books their slices on its disk, once for all of the node's
// stages, and hands each arrival to every one of them. Both book ahead of the
// arrivals as far as a stream's window allows, so links and disks stay busy
// while the receiving stage is still waking up. The receiving stage sleeps
// once a slice, until both the upstream sum and its node's members have
// arrived and its stagger has passed, adopts the upstream accumulator, folds
// its row over the members and passes the slice on, booked as ready at the
// arrival rather than at the later instant its host woke up at (a head's
// slices are ready at the run's start). The read-ahead starts phase after the
// run's start and books its slices as ready at the start: runs that start
// together and share a disk book it in the order of their phases instead of
// the scheduler's, at no cost in disk time. The walk's grain is
// foldSliceBytes of the anchor and of how many streams deep the stages are;
// span opens stage s's span under the one carried by ctx, and every span
// carries the grain as its "slice" arg. Every goroutine is joined before
// runStages returns the run's start and end; the first error (a cancelled
// ctx included) stops them all within one slice.
func (c *Cluster) runStages(ctx context.Context, stages []*chainStage, anchor topology.NodeID, phase time.Duration, span func(s int, st *chainStage) *telemetry.Span) (start, end time.Time, err error) {
	blockSize := c.cfg.BlockSizeBytes
	streams := 0
	for _, st := range stages {
		depth := 0
		for s := st; s.up != nil; s = s.up {
			depth++
		}
		streams = max(streams, depth)
	}
	slice := c.foldSliceBytes(anchor, streams)
	sliceArg := strconv.Itoa(slice)
	nSlices := (blockSize + slice - 1) / slice
	var opened []*fabric.Stream
	defer func() {
		for _, s := range opened {
			s.Close()
		}
	}()
	open := func(src, dst topology.NodeID) (*fabric.Stream, error) {
		s, err := c.fab.OpenStream(ctx, src, dst)
		if err == nil {
			opened = append(opened, s)
		}
		return s, err
	}
	var readers []*diskReader
	for _, st := range stages {
		if st.up != nil {
			if st.in, err = open(st.up.node, st.node); err != nil {
				return start, end, err
			}
		}
		// One entry per slice, so a sender never blocks on a channel; the
		// group context covers abandonment.
		st.ready = make(chan sliceArrival, nSlices)
		if len(st.positions) == 0 {
			continue
		}
		i := slices.IndexFunc(readers, func(r *diskReader) bool { return r.stages[0].node == st.node })
		if i < 0 {
			disk, err := open(st.node, st.node)
			if err != nil {
				return start, end, err
			}
			i = len(readers)
			readers = append(readers, &diskReader{disk: disk})
		}
		readers[i].stages = append(readers[i].stages, st)
		st.diskRead = make(chan time.Time, nSlices)
	}
	start = time.Now()
	for _, st := range stages {
		if st.up == nil {
			for idx := 0; idx < nSlices; idx++ {
				st.ready <- sliceArrival{idx, start}
			}
			close(st.ready)
		}
	}

	g, gctx := workgroup.WithContext(ctx)
	for _, r := range readers {
		// Read-ahead: the members do not depend on the upstream, so they are
		// booked on the shaped disk slice by slice, all ready at the start,
		// beside the inbound slices instead of between receive and fold.
		g.Go(func() error {
			if err := fabric.SleepUntil(gctx, start.Add(phase)); err != nil {
				return err
			}
			for lo := 0; lo < blockSize; lo += slice {
				arrival, err := r.disk.Book(gctx, len(r.stages[0].positions)*(min(lo+slice, blockSize)-lo), start)
				if err != nil {
					return err
				}
				for _, st := range r.stages {
					st.diskRead <- arrival
				}
			}
			return nil
		})
	}
	for s, st := range stages {
		g.Go(func() error {
			defer span(s, st).Arg("slice", sliceArg).End()
			for {
				var r sliceArrival
				var chOk bool
				select {
				case r, chOk = <-st.ready:
					if !chOk {
						for _, n := range st.next {
							close(n.ready)
						}
						return nil
					}
				case <-gctx.Done():
					return gctx.Err()
				}
				lo := r.idx * slice
				hi := min(lo+slice, blockSize)
				arrival := r.arrival
				if st.diskRead != nil {
					// Slices arrive in order on both channels, so the next
					// instant is this slice's.
					select {
					case read := <-st.diskRead:
						if read.After(arrival) {
							arrival = read
						}
					case <-gctx.Done():
						return gctx.Err()
					}
				}
				if err := fabric.SleepUntil(gctx, arrival.Add(st.stagger)); err != nil {
					return err
				}
				// Adopt the upstream accumulator for this slice and fold the
				// node's members into it.
				if st.up != nil {
					copy(st.acc[lo:hi], st.up.acc[lo:hi])
				}
				for pi, pos := range st.positions {
					if coef := st.row[pos]; coef != 0 {
						gf256.MulAddSlice(coef, st.blocks[pi][lo:hi], st.acc[lo:hi])
					}
				}
				now := time.Now()
				if st.tFirst.IsZero() {
					st.tFirst = now
				}
				st.tLast = now
				// Send the slice on, ready when its inputs arrived, attributed by
				// the fabric to every link of the hop.
				for _, n := range st.next {
					sent, err := n.in.Book(gctx, hi-lo, arrival)
					if err != nil {
						return err
					}
					n.ready <- sliceArrival{r.idx, sent}
				}
			}
		})
	}
	err = g.Wait()
	return start, time.Now(), err
}

// chainFold computes out[j] = sum over pos of rows[j][pos] * content(pos)
// and lands it at sinks[j]. holders[pos] lists the live holders of stripe
// position pos (empty: the position contributes nothing — zero content or an
// unused survivor) and key maps a position to its store key. The holders are
// covered once, planned toward the anchor (placement.PlanPipeline), which
// takes no part in the fold unless it holds a member, and each row walks that
// cover in a chain of its own ordered toward sinks[j]
// (placement.OrderPipeline), which ends on the sink when it is a hop of the
// cover and otherwise streams each finished slice to it from the chain's last
// hop. With nothing but zeros to fold, the anchor originates them. Every out
// buffer is one block long and is fully overwritten on success; on error its
// content is undefined. Each covered member is read once, whatever the number
// of rows, and a member whose checksum-verified read fails is reported as a
// holderError before any stream opens. Hop spans hang off the span carried by
// ctx. chainFold plans, reads the members and keeps the ledger; runStages
// moves the bytes.
func (c *Cluster) chainFold(ctx context.Context, stripe topology.StripeID, rows [][]byte, holders [][]topology.NodeID, key func(pos int) blockstore.Key, anchor topology.NodeID, sinks []topology.NodeID, out [][]byte) (chainLedger, error) {
	var ledger chainLedger
	cover, err := placement.PlanPipeline(c.top, holders, anchor)
	if err != nil {
		return ledger, fmt.Errorf("stripe %d: %w", stripe, err)
	}
	if len(cover) == 0 {
		cover = []placement.PipelineHop{{Node: anchor}}
	}
	blockSize := c.cfg.BlockSizeBytes
	// Accumulators that are not a caller's buffer and the covered members are
	// pooled and always released.
	var pooled [][]byte
	defer func() {
		for _, a := range pooled {
			c.bufPool.Put(a)
		}
	}()
	get := func() []byte {
		b := c.bufPool.Get(blockSize)
		pooled = append(pooled, b)
		return b
	}
	// Every covered member is read, checksum-verified, before any stream
	// opens: a fold that fails with a holderError has moved no byte, so the
	// ledger of the callers' re-planned fold is the whole network cost.
	members := make(map[topology.NodeID][][]byte, len(cover))
	for _, h := range cover {
		if len(h.Positions) == 0 {
			continue
		}
		dn, err := c.DataNodeOf(h.Node)
		if err != nil {
			return ledger, err
		}
		for _, pos := range h.Positions {
			b := get()
			members[h.Node] = append(members[h.Node], b)
			if err := dn.Store.GetInto(key(pos), b); err != nil {
				return ledger, &holderError{holder{h.Node, pos}, stripe, err}
			}
		}
	}

	// The fold's phase is keyed by stripe: the folds a map task or a recovery
	// keeps in flight start together and share links and disks.
	phase := time.Duration(stripe % 1000)
	// Per row, one stage per covered hop in that row's order, starting from
	// zeros, and a delivery stage when the sink is no hop.
	stages := make([]*chainStage, 0, len(rows)*(len(cover)+1))
	for j, sink := range sinks {
		first := len(stages)
		sinkRack, _ := c.top.RackOf(sink) // an unknown sink fails when its stream opens
		var up *chainStage
		for _, h := range placement.OrderPipeline(cover, sink, sinkRack, sinks...) {
			acc := out[j]
			if h.Node != sink {
				acc = get()
			}
			if up == nil {
				clear(acc)
			}
			stages = newStage(stages, h.Node, up, acc)
			up = stages[len(stages)-1]
			up.row, up.positions, up.blocks = rows[j], h.Positions, members[h.Node]
		}
		if up.node != sink {
			stages = newStage(stages, sink, up, out[j])
		}
		for _, st := range stages[first:] {
			st.stagger = time.Duration(j)*time.Microsecond + phase
		}
	}
	parent := telemetry.SpanFromContext(ctx)
	start, end, err := c.runStages(ctx, stages, anchor, phase, func(s int, st *chainStage) *telemetry.Span {
		return parent.ChildTrack("raidnode.chain-hop").
			Arg(telemetry.ComponentArg, "raidnode").
			Arg("stripe", strconv.FormatInt(int64(stripe), 10)).
			Arg("node", strconv.Itoa(int(st.node))).
			Arg("hop", strconv.Itoa(s)).
			Arg("members", strconv.Itoa(len(st.positions)))
	})
	if err != nil {
		return ledger, err
	}
	// A stage with an upstream and members is a hop; one without members is
	// a delivery.
	for _, st := range stages {
		switch {
		case st.up == nil:
		case len(st.positions) > 0:
			ledger.hops++
			if st.in.Cross() {
				ledger.crossHops++
			}
		default:
			ledger.deliveries++
			if st.in.Cross() {
				ledger.crossDeliveries++
			}
		}
	}
	if tel := c.metrics(); tel != nil {
		busy := time.Duration(0)
		for _, st := range stages {
			busy += st.tLast.Sub(st.tFirst)
			tel.pipeHopFill.Observe(st.tFirst.Sub(start).Seconds())
			tel.pipeHopDrain.Observe(end.Sub(st.tLast).Seconds())
		}
		if wall := end.Sub(start); wall > 0 {
			tel.pipeDepth.Observe(busy.Seconds() / wall.Seconds())
		}
		tel.poolHit.Set(c.bufPool.HitRate())
	}
	return ledger, nil
}

// pipelineParity materializes the stripe's parity blocks by folding the m
// parity rows over the replica holders, one chain per row, so that parity j
// ends on plan.Parity[j]. The holders are covered toward the first parity
// holder in the encoder's rack (toward the encoder when that rack holds no
// parity). A replica whose local read fails is excluded and the cover
// re-planned over the member's remaining live replicas, until a member has
// none left; an excluded replica the plan keeps is rewritten from a verified
// copy before the caller deletes the others (rewriteKept). It is the
// ParityFunc of every encode job that names no other: pooled parity buffers
// the caller must release, the aborted-member mask, CrossRackDownloads (the
// per-row hops whose partial sum crossed a rack, plus one per rewrite that
// crossed), CrossRackUploads (the deliveries that crossed) and
// PartialSumBytes (one block per per-row hop between holders).
func (c *Cluster) pipelineParity(ctx context.Context, info *placement.StripeInfo, encoder topology.NodeID, plan *placement.PostEncodingPlan) (sp StripeParity, err error) {
	anchor := encoder
	if j := slices.IndexFunc(plan.Parity, func(p topology.NodeID) bool {
		same, _ := c.top.SameRack(p, encoder) // an unknown node fails when its stream opens
		return same
	}); j >= 0 {
		anchor = plan.Parity[j]
	}
	m := c.coder.M()
	rows := make([][]byte, m)
	for j := range rows {
		row, err := c.coder.ParityRowView(j)
		if err != nil {
			return sp, err
		}
		rows[j] = row
	}
	// Aborted members and short-stripe padding contribute zeros and need no
	// hop.
	aborted := make([]bool, len(info.Blocks))
	replicas := make([][]topology.NodeID, c.cfg.K)
	for i, b := range info.Blocks {
		live, err := c.nn.LiveReplicas(b)
		if err != nil {
			return sp, err
		}
		if len(live) == 0 {
			if meta, merr := c.nn.Block(b); merr == nil && meta.Aborted {
				aborted[i] = true
				continue
			}
			return sp, fmt.Errorf("stripe %d block %d: %w", info.ID, b, ErrNoReplica)
		}
		replicas[i] = live
	}
	pbufs := make([][]byte, m)
	for j := range pbufs {
		pbufs[j] = c.bufPool.Get(c.cfg.BlockSizeBytes)
	}
	ok := false
	defer func() {
		if !ok {
			for _, p := range pbufs {
				c.bufPool.Put(p)
			}
		}
	}()
	key := func(pos int) blockstore.Key { return DataKey(info.Blocks[pos]) }
	var excluded []holder
	for {
		ledger, err := c.chainFold(ctx, info.ID, rows, replicas, key, anchor, plan.Parity, pbufs)
		var he *holderError
		if errors.As(err, &he) {
			excluded = append(excluded, he.holder)
			replicas[he.pos] = slices.DeleteFunc(replicas[he.pos], func(n topology.NodeID) bool { return n == he.node })
			if len(replicas[he.pos]) > 0 {
				continue
			}
		}
		if err != nil {
			return sp, err
		}
		sp.CrossRackDownloads = ledger.crossHops
		sp.CrossRackUploads = ledger.crossDeliveries
		sp.PartialSumBytes = int64(ledger.hops) * int64(c.cfg.BlockSizeBytes)
		break
	}
	for _, bad := range excluded {
		if plan.Keep[bad.pos] != bad.node {
			continue // the caller deletes it with the other redundant replicas
		}
		crossed, err := c.rewriteKept(ctx, info, bad, replicas[bad.pos])
		if err != nil {
			return sp, err
		}
		sp.CrossRackDownloads += crossed
	}
	ok = true
	sp.Blocks, sp.Aborted = pbufs, aborted
	return sp, nil
}

// rewriteKept replaces the unreadable copy of stripe member bad.pos on
// bad.node, the replica the post-encoding plan keeps, with the content of one
// of the member's other live replicas: a unit-row fold from the nearest
// readable source to that node, then the store swap. Without it the encode
// would delete every good copy and leave the bad one as the block's only
// replica. It returns the cross-rack block transfers the copy took (0 or 1).
func (c *Cluster) rewriteKept(ctx context.Context, info *placement.StripeInfo, bad holder, sources []topology.NodeID) (int, error) {
	row := make([]byte, c.cfg.K)
	row[bad.pos] = 1
	holders := make([][]topology.NodeID, c.cfg.K)
	holders[bad.pos] = slices.Clone(sources)
	key := func(pos int) blockstore.Key { return DataKey(info.Blocks[pos]) }
	buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
	defer c.bufPool.Put(buf)
	for {
		ledger, err := c.chainFold(ctx, info.ID, [][]byte{row}, holders, key, bad.node, []topology.NodeID{bad.node}, [][]byte{buf})
		var he *holderError
		if errors.As(err, &he) {
			holders[bad.pos] = slices.DeleteFunc(holders[bad.pos], func(n topology.NodeID) bool { return n == he.node })
			if len(holders[bad.pos]) > 0 {
				continue
			}
		}
		if err != nil {
			return 0, err
		}
		dn, err := c.DataNodeOf(bad.node)
		if err != nil {
			return 0, err
		}
		_ = dn.Store.Delete(key(bad.pos))
		if err := dn.Store.Put(key(bad.pos), buf); err != nil {
			return 0, err
		}
		return ledger.crossHops + ledger.crossDeliveries, nil
	}
}

// A member of an encoded stripe is addressed by (sm, pos): data members at
// 0..len(sm.Info.Blocks)-1, short-stripe padding (zeros, stored nowhere) up to
// k, parity rows from k to n-1. memberKey, recordedHolders and posHolders are
// the only code that turns that address into a store key or a node.

// memberKey returns the store key of stripe position pos, which must not be
// padding: the member block's data key below k, the stripe's parity key from k.
func (c *Cluster) memberKey(sm *StripeMeta, pos int) blockstore.Key {
	if pos < c.cfg.K {
		return DataKey(sm.Info.Blocks[pos])
	}
	return ParityKey(sm.Info.ID, pos-c.cfg.K)
}

// recordedHolders lists the nodes the NameNode records for position pos of an
// encoded stripe, dead ones included (posHolders narrows them to who can
// serve): a member block's replica set, nothing for padding, the planned
// holder of a parity row.
func (c *Cluster) recordedHolders(sm *StripeMeta, pos int) ([]topology.NodeID, error) {
	switch {
	case pos < len(sm.Info.Blocks):
		meta, err := c.nn.Block(sm.Info.Blocks[pos])
		if err != nil {
			return nil, err
		}
		return meta.Nodes, nil
	case pos < c.cfg.K:
		return nil, nil
	default:
		return []topology.NodeID{sm.Plan.Parity[pos-c.cfg.K]}, nil
	}
}

// posHolders resolves who can serve position i of an encoded stripe: its
// live holders minus those a failed local read has excluded, and whether
// the position's content is known at all — through a holder, or as the
// zeros of an aborted member or of short-stripe padding (no holder, no hop).
func (c *Cluster) posHolders(sm *StripeMeta, i int, bad map[holder]bool) ([]topology.NodeID, bool, error) {
	var nodes []topology.NodeID
	switch {
	case i < len(sm.Info.Blocks):
		live, err := c.nn.LiveReplicas(sm.Info.Blocks[i])
		if err != nil {
			return nil, false, err
		}
		if len(live) == 0 {
			meta, err := c.nn.Block(sm.Info.Blocks[i])
			return nil, err == nil && meta.Aborted, err
		}
		nodes = live
	case i < c.cfg.K:
		return nil, true, nil
	default:
		if node := sm.Plan.Parity[i-c.cfg.K]; !c.nn.IsDead(node) {
			nodes = []topology.NodeID{node}
		}
	}
	nodes = slices.DeleteFunc(nodes, func(n topology.NodeID) bool { return bad[holder{n, i}] })
	return nodes, len(nodes) > 0, nil
}

// reconstructInto rebuilds stripe position pos (data or parity) into out at
// the sink by folding one row along the chain. While a copy of the position
// survives the row is the unit row and the fold is a copy from the nearest
// holder; otherwise the k lowest surviving positions (data before parity,
// the central decoder's choice) are folded with the coefficients of the
// cached decode row, one partial sum per survivor rack boundary. A holder
// whose local read fails is treated as erased: it is excluded and the
// survivors re-selected, up to the n-k erasures the code absorbs.
func (c *Cluster) reconstructInto(ctx context.Context, sm *StripeMeta, pos int, sink topology.NodeID, out []byte) (chainLedger, error) {
	if sm.Plan == nil {
		return chainLedger{}, fmt.Errorf("%w: stripe %d not encoded", ErrUnknownStripe, sm.Info.ID)
	}
	k, n := c.cfg.K, c.cfg.N
	key := func(p int) blockstore.Key { return c.memberKey(sm, p) }
	bad := make(map[holder]bool)
	for {
		row := make([]byte, n)
		holders := make([][]topology.NodeID, n)
		live, known, err := c.posHolders(sm, pos, bad)
		if err != nil {
			return chainLedger{}, err
		}
		if known {
			row[pos], holders[pos] = 1, live
		} else {
			indices := make([]int, 0, k)
			for i := 0; i < n && len(indices) < k; i++ {
				if i == pos {
					continue
				}
				h, ok, err := c.posHolders(sm, i, bad)
				if err != nil {
					return chainLedger{}, err
				}
				if ok {
					holders[i] = h
					indices = append(indices, i)
				}
			}
			if len(indices) < k {
				return chainLedger{}, fmt.Errorf("%w: stripe %d position %d: only %d of %d survivors available",
					ErrNoReplica, sm.Info.ID, pos, len(indices), k)
			}
			coeffs, err := c.coder.DecodeRow(indices, pos)
			if err != nil {
				return chainLedger{}, err
			}
			for x, i := range indices {
				row[i] = coeffs[x]
			}
		}
		ledger, err := c.chainFold(ctx, sm.Info.ID, [][]byte{row}, holders, key, sink, []topology.NodeID{sink}, [][]byte{out})
		var he *holderError
		if !errors.As(err, &he) || len(bad) == n-k {
			return ledger, err
		}
		bad[he.holder] = true
	}
}
