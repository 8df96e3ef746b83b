package hdfs

// The chain engine. Encoding a stripe, repairing a lost member and reading
// a lost block degraded are one operation: fold coefficient rows over stripe
// members along a planned chain. The holders of the members form a chain
// (placement.PlanPipeline: rack-contiguous, the anchor's rack last) and walk
// the block slice by slice: each hop receives the upstream partial sums over
// a fabric stream, folds its locally stored members into them with
// gf256.MulAddSlice, and forwards the result downstream; the last holder
// streams each finished row to the node that will store it. A hop reads its
// members ahead from the shaped disk while the sums are still on their way,
// every stage books its forward from the instant the slice was ready, and
// the slice is sized so the fill stays a small share of a block time
// (foldSliceBytes), so the chain is many slices deep and every stage stays
// busy. Transfer and arithmetic for slice i+1 overlap the forwarding of slice
// i, and a rack holding several members aggregates them before crossing the
// core, so one set of partial sums crosses per rack boundary instead of one
// block per remote member, and no link carries more than one block per row.
// With the m parity rows the sums are the stripe's parity (RapidRAID),
// delivered to the m parity holders; with one decode row they are the lost
// member (rack-aware regenerating repair), delivered to the repair target or
// the reading client. The engine stores nothing: the sums land in the
// caller's buffers and the caller commits them only after the whole fold
// succeeded, so a canceled fold leaves no trace in any store. The stage loop
// (runStages) also carries the replicated write, a run with no members to
// fold whose stages keep what they forward (client.go).

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

// chainStage is one stage of a stage run: a planned hop of a fold, which
// carries every row and folds its local members into them; a delivery stage,
// which receives one finished row at that row's sink; or a replica of a
// replicated write, which keeps what it receives.
type chainStage struct {
	node      topology.NodeID
	positions []int
	// up is the stage whose accumulators this one receives (nil at the head,
	// whose accumulators its builder has filled: zeros for a fold, the
	// caller's bytes for a write); next are the stages that receive from this
	// one.
	up   *chainStage
	next []*chainStage
	// acc is indexed by row and holds one accumulator per row the stage
	// carries: every row at a hop, one at a delivery stage (nil elsewhere).
	// A row that ends at its sink accumulates in the caller's output buffer.
	acc [][]byte
	// blocks holds the hop's local members, parallel to positions.
	blocks [][]byte
	// in is the inbound stream from up's node (nil at the head) and disk the
	// node's own disk stream the local members are read over (nil at a stage
	// without members). runStages opens both before any stage runs; up books
	// on in, the read-ahead worker on disk, and the stage closes both when it
	// returns. carried is how many rows a slice on in moves.
	in, disk *fabric.Stream
	carried  int
	// ready carries the slices up has finished and booked on in, in slice
	// order: the index and the instant its bytes arrive.
	ready chan sliceArrival
	// diskRead carries, in slice order, the instant each slice of the local
	// members the read-ahead worker has booked on disk arrives.
	diskRead chan time.Time
	tFirst   time.Time
	tLast    time.Time
}

// sliceArrival is one slice a stage may adopt once the instant has passed.
type sliceArrival struct {
	idx     int
	arrival time.Time
}

// newStage appends to stages a stage at node that receives acc from up.
func newStage(stages []*chainStage, node topology.NodeID, up *chainStage, acc [][]byte) []*chainStage {
	st := &chainStage{node: node, up: up, acc: acc}
	if up != nil {
		up.next = append(up.next, st)
	}
	return append(stages, st)
}

// chainLedger counts the network transfers of one fold.
type chainLedger struct {
	// hops are the inbound partial-sum transfers between holders, one block
	// per row each; crossHops those that crossed the rack core.
	hops, crossHops int
	// deliveries are the finished rows the last holder streamed to a sink
	// other than itself, one block each.
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
// the only cost and the slice grows past that too. A 13-stage degraded read
// or a 4-hop encode of 256 KiB blocks on 16 MiB/s links walks 4 KiB slices; a
// run one stream deep (a copy; a write whose other replica is the writer's
// own) has no fill and walks fabric.ChunkBytes, the grain a Send is shaped at
// anyway.
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
// stage loop in the package. stages[0] is the head and is listed before every
// stage that receives from it, directly or not. Every stream of the run — a
// stage's inbound stream from its upstream stage's node, and the disk stream
// of a stage with local members (a same-node stream is the node's disk) — is
// opened here before any stage runs. Each stage runs on a goroutine of its
// own, and booking is the sender's: a stage that has finished a slice books
// it, one slice per carried row, on the inbound stream of every stage after
// it and hands the slice's arrival instant down; a worker beside a stage with
// members books their slices on the disk from the run's start. Both book
// ahead of the arrivals as far as a stream's window allows, so links and
// disks stay busy while the receiving stage is still waking up. The
// receiving stage sleeps once a slice, until both the upstream sums and its
// own members have arrived, adopts the upstream accumulators, folds rows over
// its members and passes the slice on, booked as ready at that instant rather
// than at the later one its host woke up at (the head's slices are ready at
// the run's start). The walk's grain is foldSliceBytes of the anchor and
// of how many streams deep the stages are; span opens stage s's span under
// the one carried by ctx, and every span carries the grain as its "slice"
// arg. Every goroutine is joined before runStages returns the run's start
// and end; the first error (a cancelled ctx included) stops them all within
// one slice.
func (c *Cluster) runStages(ctx context.Context, stages []*chainStage, anchor topology.NodeID, rows [][]byte, span func(s int, st *chainStage) *telemetry.Span) (start, end time.Time, err error) {
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
	for i, st := range stages {
		if st.up != nil {
			st.in, err = c.fab.OpenStream(ctx, st.up.node, st.node)
		}
		if err == nil && len(st.positions) > 0 {
			st.disk, err = c.fab.OpenStream(ctx, st.node, st.node)
		}
		if err != nil {
			// No stage runs, so none closes what was opened so far.
			for _, opened := range stages[:i+1] {
				opened.closeStreams()
			}
			return start, end, err
		}
		for _, a := range st.acc {
			if a != nil {
				st.carried++
			}
		}
		// One entry per slice, so a sender never blocks on a channel; the
		// group context covers abandonment.
		st.ready = make(chan sliceArrival, nSlices)
		if st.disk != nil {
			st.diskRead = make(chan time.Time, nSlices)
		}
	}
	start = time.Now()
	for idx := 0; idx < nSlices; idx++ {
		stages[0].ready <- sliceArrival{idx, start}
	}
	close(stages[0].ready)

	g, gctx := workgroup.WithContext(ctx)
	for s, st := range stages {
		if st.disk != nil {
			// Read-ahead: the local members do not depend on the upstream, so
			// they are booked on the shaped disk slice by slice, all ready at
			// the start, beside the inbound slices instead of between receive
			// and fold.
			g.Go(func() error {
				for lo := 0; lo < blockSize; lo += slice {
					arrival, err := st.disk.Book(gctx, len(st.positions)*(min(lo+slice, blockSize)-lo), start)
					if err != nil {
						return err
					}
					st.diskRead <- arrival
				}
				return nil
			})
		}
		g.Go(func() error {
			defer span(s, st).Arg("slice", sliceArg).End()
			defer st.closeStreams()
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
				if err := fabric.SleepUntil(gctx, arrival); err != nil {
					return err
				}
				// Adopt the upstream accumulators for this slice and fold the
				// local members into them.
				if st.up != nil {
					for j, a := range st.acc {
						if a != nil {
							copy(a[lo:hi], st.up.acc[j][lo:hi])
						}
					}
				}
				for pi, pos := range st.positions {
					for j, row := range rows {
						if coef := row[pos]; coef != 0 {
							gf256.MulAddSlice(coef, st.blocks[pi][lo:hi], st.acc[j][lo:hi])
						}
					}
				}
				now := time.Now()
				if st.tFirst.IsZero() {
					st.tFirst = now
				}
				st.tLast = now
				// Send the slice on: one slice-sized sum per row the receiver
				// carries, ready when its inputs arrived, attributed by the
				// fabric to every link of the hop.
				for _, n := range st.next {
					sent, err := n.in.Book(gctx, n.carried*(hi-lo), arrival)
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

// closeStreams closes the streams runStages opened for the stage.
func (st *chainStage) closeStreams() {
	if st.in != nil {
		st.in.Close()
	}
	if st.disk != nil {
		st.disk.Close()
	}
}

// chainFold computes out[j] = sum over pos of rows[j][pos] * content(pos)
// and lands it at sinks[j]. holders[pos] lists the live holders of stripe
// position pos (empty: the position contributes nothing — zero content or an
// unused survivor) and key maps a position to its store key. The chain is
// planned toward the anchor (placement.PlanPipeline), which takes no part in
// the fold unless it holds a member; the last planned holder streams each
// finished slice of row j to sinks[j] over a stream of its own, unless it is
// that sink. With nothing but zeros to fold, the anchor originates them.
// Every out buffer is one block long and is fully overwritten on success; on
// error its content is undefined. A planned member whose checksum-verified
// read fails is reported as a holderError before any stream opens. Hop spans
// hang off the span carried by ctx. chainFold plans, reads the members and
// keeps the ledger; runStages moves the bytes.
func (c *Cluster) chainFold(ctx context.Context, stripe topology.StripeID, rows [][]byte, holders [][]topology.NodeID, key func(pos int) blockstore.Key, anchor topology.NodeID, sinks []topology.NodeID, out [][]byte) (chainLedger, error) {
	var ledger chainLedger
	hops, err := placement.PlanPipeline(c.top, holders, anchor, sinks...)
	if err != nil {
		return ledger, fmt.Errorf("stripe %d: %w", stripe, err)
	}
	if len(hops) == 0 {
		hops = []placement.PipelineHop{{Node: anchor}}
	}
	blockSize := c.cfg.BlockSizeBytes
	m := len(rows)

	// One stage per planned hop, then one delivery stage per row whose sink
	// is not the last hop.
	stages := make([]*chainStage, 0, len(hops)+m)
	var tail *chainStage
	for _, h := range hops {
		stages = newStage(stages, h.Node, tail, make([][]byte, m))
		tail = stages[len(stages)-1]
		tail.positions = h.Positions
	}
	for j, sink := range sinks {
		if sink == tail.node {
			tail.acc[j] = out[j]
			continue
		}
		acc := make([][]byte, m)
		acc[j] = out[j]
		stages = newStage(stages, sink, tail, acc)
	}
	// Accumulators that are not a caller's buffer and the hops' local members
	// are pooled and always released.
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
	// Every planned member is read, checksum-verified, before any stream
	// opens: a fold that fails with a holderError has moved no byte, so the
	// ledger of the callers' re-planned fold is the whole network cost.
	for _, st := range stages[:len(hops)] {
		if len(st.positions) == 0 {
			continue
		}
		dn, err := c.DataNodeOf(st.node)
		if err != nil {
			return ledger, err
		}
		for _, pos := range st.positions {
			b := get()
			st.blocks = append(st.blocks, b)
			if err := dn.Store.GetInto(key(pos), b); err != nil {
				return ledger, &holderError{holder{st.node, pos}, stripe, err}
			}
		}
	}
	for _, st := range stages[:len(hops)] {
		for j, a := range st.acc {
			if a == nil {
				st.acc[j] = get()
			}
		}
	}
	// The head of the chain starts every row from zeros.
	for _, a := range stages[0].acc {
		clear(a)
	}
	parent := telemetry.SpanFromContext(ctx)
	start, end, err := c.runStages(ctx, stages, anchor, rows, func(s int, st *chainStage) *telemetry.Span {
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
	for _, st := range stages[1:len(hops)] {
		ledger.hops++
		if st.in.Cross() {
			ledger.crossHops++
		}
	}
	for _, st := range stages[len(hops):] {
		ledger.deliveries++
		if st.in.Cross() {
			ledger.crossDeliveries++
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
// parity rows over the replica holders along a chain whose last holder
// streams parity j to plan.Parity[j]. The chain is planned toward the first
// parity holder in the encoder's rack, so that it ends on a node that stores
// a row (toward the encoder when that rack holds no parity). A replica
// whose local read fails is excluded and the chain re-planned over the
// member's remaining live replicas, until a member has none left; an
// excluded replica the plan keeps is rewritten from a verified copy before
// the caller deletes the others (rewriteKept). It is the ParityFunc of every
// encode job that names no other: pooled parity buffers the caller must
// release, the aborted-member mask, CrossRackDownloads (m block-equivalents
// per rack boundary the partial sums crossed plus one per rewrite that
// crossed), CrossRackUploads (the deliveries that crossed) and
// PartialSumBytes (total partial-sum bytes shipped between hops).
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
		sp.CrossRackDownloads = ledger.crossHops * m
		sp.CrossRackUploads = ledger.crossDeliveries
		sp.PartialSumBytes = int64(ledger.hops) * int64(m) * int64(c.cfg.BlockSizeBytes)
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
