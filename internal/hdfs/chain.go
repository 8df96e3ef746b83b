package hdfs

// The chain engine. Encoding a stripe, repairing a lost member and reading
// a lost block degraded are one operation: fold coefficient rows over stripe
// members along a planned chain. The holders of the members form a chain
// (placement.PlanPipeline: rack-contiguous, the sink's rack last) and walk
// the block chunk by chunk: each hop receives the upstream partial sums over
// a fabric stream, folds its locally stored members into them with
// gf256.MulAddSlice, and forwards the result downstream. Transfer and
// arithmetic for chunk i+1 overlap the forwarding of chunk i, and a rack
// holding several members aggregates them before crossing the core, so one
// set of partial sums crosses per rack boundary instead of one block per
// remote member. With the m parity rows the sums are the stripe's parity
// (RapidRAID); with one decode row they are the lost member (rack-aware
// regenerating repair). The engine stores nothing: the sums land in the
// caller's buffers and the caller commits them only after the whole chain
// succeeded, so a canceled fold leaves no trace in any store.

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

// chainStage is one hop of a fold at runtime: the planned hop plus one
// accumulator per row and timing stamps. The last stage accumulates into
// the caller's output buffers.
type chainStage struct {
	node      topology.NodeID
	positions []int
	acc       [][]byte
	// crossIn records whether the inbound partial-sum stream crossed the
	// rack core (set by the stage goroutine, read after the join).
	crossIn bool
	tFirst  time.Time
	tLast   time.Time
}

// chainLedger counts the network transfers of one fold: every hop after the
// first received one block-sized partial sum per row from its predecessor.
type chainLedger struct {
	hops      int // inbound partial-sum hops
	crossHops int // of those, hops that crossed the rack core
}

// holder names one stored copy of a stripe position.
type holder struct {
	node topology.NodeID
	pos  int
}

// holderError reports that a hop could not read a member it was planned to
// fold (missing or corrupt copy). Repair re-plans around the named holder.
type holderError struct {
	holder
	stripe topology.StripeID
	err    error
}

func (e *holderError) Error() string {
	return fmt.Sprintf("stripe %d position %d on node %d: %v", e.stripe, e.pos, e.node, e.err)
}

func (e *holderError) Unwrap() error { return e.err }

// chainFold computes out[j] = sum over pos of rows[j][pos] * content(pos)
// at the sink. holders[pos] lists the live holders of stripe position pos
// (empty: the position contributes nothing — zero content or an unused
// survivor) and key maps a position to its store key. Every out buffer is
// one block long and is fully overwritten on success; on error its content
// is undefined. Hop spans hang off the span carried by ctx.
func (c *Cluster) chainFold(ctx context.Context, stripe topology.StripeID, rows [][]byte, holders [][]topology.NodeID, key func(pos int) blockstore.Key, sink topology.NodeID, out [][]byte) (chainLedger, error) {
	var ledger chainLedger
	hops, err := placement.PlanPipeline(c.top, holders, sink)
	if err != nil {
		return ledger, fmt.Errorf("stripe %d: %w", stripe, err)
	}
	if len(hops) == 0 {
		// Nothing but known zeros to fold: every sum is zero.
		for _, o := range out {
			copy(o, c.zeroBlock)
		}
		return ledger, nil
	}
	blockSize := c.cfg.BlockSizeBytes
	m := len(rows)

	// One stage per planned hop, plus a terminal receive-only stage when the
	// chain does not already end at the sink. Intermediate accumulators are
	// pooled and always released.
	stages := make([]*chainStage, 0, len(hops)+1)
	for _, h := range hops {
		stages = append(stages, &chainStage{node: h.Node, positions: h.Positions})
	}
	if stages[len(stages)-1].node != sink {
		stages = append(stages, &chainStage{node: sink})
	}
	last := len(stages) - 1
	stages[last].acc = out
	for _, st := range stages[:last] {
		st.acc = make([][]byte, m)
		for j := range st.acc {
			st.acc[j] = c.bufPool.Get(blockSize)
		}
	}
	defer func() {
		for _, st := range stages[:last] {
			for _, a := range st.acc {
				c.bufPool.Put(a)
			}
		}
	}()

	chunk := c.cfg.PipelineChunkBytes
	nChunks := (blockSize + chunk - 1) / chunk
	start := time.Now()

	// ready[s] carries chunk indices whose partial sums have landed in
	// stage s's upstream accumulator (stage 0 starts from zeros). Buffered to
	// nChunks so a fast upstream never blocks; the group context covers
	// abandonment.
	ready := make([]chan int, len(stages))
	for s := range ready {
		ready[s] = make(chan int, nChunks)
	}
	for idx := 0; idx < nChunks; idx++ {
		ready[0] <- idx
	}
	close(ready[0])

	parent := telemetry.SpanFromContext(ctx)
	g, gctx := workgroup.WithContext(ctx)
	for s, st := range stages {
		g.Go(func() error {
			hop := parent.ChildTrack("raidnode.chain-hop").
				Arg(telemetry.ComponentArg, "raidnode").
				Arg("stripe", strconv.FormatInt(int64(stripe), 10)).
				Arg("node", strconv.Itoa(int(st.node))).
				Arg("hop", strconv.Itoa(s)).
				Arg("members", strconv.Itoa(len(st.positions)))
			defer hop.End()
			// Inbound partial-sum stream from the previous hop: m chunk-sized
			// partials per chunk index, attributed by the fabric to every
			// link the hop traverses.
			var in *fabric.Stream
			if s > 0 {
				var err error
				in, err = c.fab.OpenStream(gctx, stages[s-1].node, st.node)
				if err != nil {
					return err
				}
				defer in.Close()
				st.crossIn = in.Cross()
			}
			// Local members: read once into pooled buffers; the shaped disk
			// stream charges their bytes chunk by chunk as they are folded.
			var blocks [][]byte
			var disk *fabric.Stream
			if len(st.positions) > 0 {
				dn, err := c.DataNodeOf(st.node)
				if err != nil {
					return err
				}
				blocks = make([][]byte, len(st.positions))
				defer func() {
					for _, b := range blocks {
						c.bufPool.Put(b)
					}
				}()
				for pi, pos := range st.positions {
					blocks[pi] = c.bufPool.Get(blockSize)
					if err := dn.Store.GetInto(key(pos), blocks[pi]); err != nil {
						return &holderError{holder{st.node, pos}, stripe, err}
					}
				}
				disk, err = c.fab.OpenStream(gctx, st.node, st.node)
				if err != nil {
					return err
				}
				defer disk.Close()
			}
			for {
				var idx int
				var chOk bool
				select {
				case idx, chOk = <-ready[s]:
					if !chOk {
						if s < last {
							close(ready[s+1])
						}
						return nil
					}
				case <-gctx.Done():
					return gctx.Err()
				}
				lo := idx * chunk
				hi := min(lo+chunk, blockSize)
				// Receive and adopt the upstream partial sums for this chunk
				// range (zeros at the head of the chain).
				if in != nil {
					if err := in.Send(gctx, m*(hi-lo)); err != nil {
						return err
					}
				}
				for j := range rows {
					from := c.zeroBlock
					if in != nil {
						from = stages[s-1].acc[j]
					}
					copy(st.acc[j][lo:hi], from[lo:hi])
				}
				if len(st.positions) > 0 {
					if err := disk.Send(gctx, len(st.positions)*(hi-lo)); err != nil {
						return err
					}
					for pi, pos := range st.positions {
						for j, row := range rows {
							if coef := row[pos]; coef != 0 {
								gf256.MulAddSlice(coef, blocks[pi][lo:hi], st.acc[j][lo:hi])
							}
						}
					}
				}
				now := time.Now()
				if st.tFirst.IsZero() {
					st.tFirst = now
				}
				st.tLast = now
				if s < last {
					ready[s+1] <- idx
				}
			}
		})
	}
	if err := g.Wait(); err != nil {
		return ledger, err
	}
	end := time.Now()
	for _, st := range stages[1:] {
		ledger.hops++
		if st.crossIn {
			ledger.crossHops++
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
// parity rows over the replica holders toward the encoder. It returns pooled
// parity buffers the caller must release and the aborted-member mask, and
// fills res.cross (m block-equivalents per rack boundary crossed) and
// res.partialBytes (total partial-sum bytes shipped between hops).
func (c *Cluster) pipelineParity(ctx context.Context, info *placement.StripeInfo, encoder topology.NodeID, res *stripeResult) ([][]byte, []bool, error) {
	m := c.coder.M()
	rows := make([][]byte, m)
	for j := range rows {
		row, err := c.coder.ParityRowView(j)
		if err != nil {
			return nil, nil, err
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
			return nil, nil, err
		}
		if len(live) == 0 {
			if meta, merr := c.nn.Block(b); merr == nil && meta.Aborted {
				aborted[i] = true
				continue
			}
			return nil, nil, fmt.Errorf("stripe %d block %d: %w", info.ID, b, ErrNoReplica)
		}
		replicas[i] = live
	}
	pbufs := make([][]byte, m)
	for j := range pbufs {
		pbufs[j] = c.bufPool.Get(c.cfg.BlockSizeBytes)
	}
	key := func(pos int) blockstore.Key { return DataKey(info.Blocks[pos]) }
	ledger, err := c.chainFold(ctx, info.ID, rows, replicas, key, encoder, pbufs)
	if err != nil {
		for _, p := range pbufs {
			c.bufPool.Put(p)
		}
		return nil, nil, err
	}
	res.cross = ledger.crossHops * m
	res.partialBytes = int64(ledger.hops) * int64(m) * int64(c.cfg.BlockSizeBytes)
	return pbufs, aborted, nil
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
	key := func(p int) blockstore.Key {
		if p < k {
			return DataKey(sm.Info.Blocks[p])
		}
		return ParityKey(sm.Info.ID, p-k)
	}
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
		ledger, err := c.chainFold(ctx, sm.Info.ID, [][]byte{row}, holders, key, sink, [][]byte{out})
		var he *holderError
		if !errors.As(err, &he) || len(bad) == n-k {
			return ledger, err
		}
		bad[he.holder] = true
	}
}
