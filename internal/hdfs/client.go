package hdfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/fabric"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// DataKey builds the store key for a data block replica.
func DataKey(id topology.BlockID) blockstore.Key {
	return blockstore.Key{ID: int64(id), Kind: blockstore.Data}
}

// ParityKey builds the store key for parity block idx of a stripe. Stripe
// IDs and parity indices are folded into one ID space.
func ParityKey(stripe topology.StripeID, idx int) blockstore.Key {
	return blockstore.Key{ID: int64(stripe)*1024 + int64(idx), Kind: blockstore.Parity}
}

// WriteBlock writes one block from the given client node with a background
// context. See WriteBlockCtx.
func (c *Cluster) WriteBlock(client topology.NodeID, data []byte) (topology.BlockID, error) {
	return c.WriteBlockCtx(context.Background(), client, data)
}

// WriteBlockCtx writes one block from the given client node. The NameNode
// allocates the block for that writer (AllocateBlockFrom): the first replica
// is the client's own copy — or, when EAR's flow graph moved it, a node of the
// client's rack — and the remaining replicas follow the placement policy.
// The data then flows down the HDFS replication pipeline (client -> replica 1
// -> replica 2 -> ...) slice by slice on the chain engine's stage loop
// (runStages), every hop shaped by the fabric. Hops overlap — while replica
// 1 forwards slice i to replica 2 the client's slice i+1 is already on its
// way, since every hop books ahead of the arrivals — and a node's own copy is
// a disk stream beside its forward, not a hop in front of it, so an r-way
// write costs roughly one block transfer plus the pipeline fill of r-1
// network hops, not r transfers.
//
// A client outside the topology is rejected with topology.ErrUnknownNode
// before anything is allocated. Cancelling ctx aborts the write at once, with
// at most a stream's window of slices left booked per hop; the allocation is
// then abandoned via NameNode.AbortBlock and no replica is committed to any
// store.
func (c *Cluster) WriteBlockCtx(ctx context.Context, client topology.NodeID, data []byte) (topology.BlockID, error) {
	if len(data) != c.cfg.BlockSizeBytes {
		return 0, fmt.Errorf("%w: block of %d bytes, configured size %d",
			ErrInvalidConfig, len(data), c.cfg.BlockSizeBytes)
	}
	if _, err := c.top.RackOf(client); err != nil {
		return 0, err
	}
	if m := c.metrics(); m != nil {
		defer func(t0 time.Time) { m.writeLat.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	span, ctx := c.opSpan(ctx, "client", "client.write-block")
	span.Arg("node", strconv.Itoa(int(client)))
	defer span.End()
	meta, err := c.nn.AllocateBlockFrom(ctx, len(data), client)
	if err != nil {
		return 0, err
	}
	span.Arg("block", strconv.FormatInt(int64(meta.ID), 10))
	if err := c.replicate(ctx, client, meta, data); err != nil {
		c.abortWrite(meta)
		return 0, err
	}
	if err := c.nn.CommitBlockCtx(ctx, meta.ID); err != nil {
		return 0, err
	}
	c.acct.Charge(tenant.FromContext(ctx), "write", 1, int64(len(data)))
	return meta.ID, nil
}

// abortWrite abandons a failed write: the allocation is voided on the
// NameNode and any replica a hop already stored is deleted (best effort —
// the block is already unreachable once aborted).
func (c *Cluster) abortWrite(meta *BlockMeta) {
	_ = c.nn.AbortBlock(meta.ID)
	for _, n := range meta.Nodes {
		if dn, err := c.DataNodeOf(n); err == nil {
			dn.Store.Delete(DataKey(meta.ID))
		}
	}
}

// publishReplicaWritten journals the durable landing of one replica,
// stamped with the context's trace.
func (c *Cluster) publishReplicaWritten(ctx context.Context, id topology.BlockID, n topology.NodeID, size int) {
	j := c.Journal()
	if j == nil {
		return
	}
	ev := events.New(events.ReplicaWritten, "datanode")
	ev.Block = id
	ev.Node = n
	ev.Bytes = int64(size)
	ev.Trace = telemetry.TraceFromContext(ctx)
	j.Publish(ev)
}

// replicate streams the block down the replication chain: a stage run whose
// head is the client holding the caller's bytes, followed by one stage per
// replica that receives them and forwards them to the next. The stages share
// the caller's bytes, which no stage writes. A replica on the node it
// receives from (the writer's own copy) is a disk stream beside that node's
// forward, so the next replica receives from the same stage. Replicas are
// committed to their stores only after the whole run succeeded, so a failed
// or canceled write leaves nothing behind. The block is sealed beside the
// run, the one copy and the one checksum the write makes, and every replica's
// store adopts that copy, never the caller's slice.
func (c *Cluster) replicate(ctx context.Context, client topology.NodeID, meta *BlockMeta, data []byte) error {
	if len(meta.Nodes) == 0 {
		return fmt.Errorf("%w: block %d placed on no nodes", ErrNoReplica, meta.ID)
	}
	stages := newStage(nil, client, nil, &data)
	from := stages[0]
	for _, n := range meta.Nodes {
		stages = newStage(stages, n, from, &data)
		if n != from.node {
			from = stages[len(stages)-1]
		}
	}
	replicas := stages[1:]
	parent := telemetry.SpanFromContext(ctx)
	// Sealed beside the run, and awaited on every path, as it reads data.
	sealed := make(chan blockstore.Sealed, 1)
	go func() { sealed <- blockstore.Seal(data) }()
	run, err := c.runStages(ctx, stages, client, func(s int, st *chainStage) *telemetry.Span {
		if s == 0 {
			return nil // the client is the write's own span
		}
		// Hops overlap in time, so each sits on its own display track; the
		// span belongs to the receiving DataNode.
		return parent.ChildTrack("datanode.pipeline-hop").
			Arg(telemetry.ComponentArg, "datanode").
			Arg("node", strconv.Itoa(int(st.node))).
			Arg("hop", strconv.Itoa(s-1))
	})
	block := <-sealed
	if err != nil {
		return err
	}
	if m := c.metrics(); m != nil && !replicas[len(replicas)-1].tFirst.IsZero() {
		m.pipeFill.Observe(replicas[len(replicas)-1].tFirst.Sub(run.start).Seconds())
	}
	for _, st := range replicas {
		dn, err := c.DataNodeOf(st.node)
		if err != nil {
			return err
		}
		if err := dn.Store.Adopt(DataKey(meta.ID), block); err != nil {
			return fmt.Errorf("replica on node %d: %w", st.node, err)
		}
		c.publishReplicaWritten(ctx, meta.ID, st.node, len(data))
	}
	return nil
}

// chooseReplica picks the replica of block id a reader should use: the reader
// itself if it holds one, else a same-rack replica, else any, spread over
// blocks and readers by a draw that is a function of (seed, block, reader).
func (c *Cluster) chooseReplica(id topology.BlockID, nodes []topology.NodeID, reader topology.NodeID) (topology.NodeID, error) {
	if len(nodes) == 0 {
		return 0, ErrNoReplica
	}
	readerRack, err := c.top.RackOf(reader)
	if err != nil {
		return 0, err
	}
	var sameRack []topology.NodeID
	for _, n := range nodes {
		if n == reader {
			return n, nil
		}
		rk, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if rk == readerRack {
			sameRack = append(sameRack, n)
		}
	}
	if len(sameRack) > 0 {
		nodes = sameRack
	}
	return nodes[drawFor(c.cfg.Seed, int64(id), int64(reader))%uint64(len(nodes))], nil
}

// ReadBlock reads a block with a background context. See ReadBlockCtx.
func (c *Cluster) ReadBlock(client topology.NodeID, id topology.BlockID) ([]byte, error) {
	return c.ReadBlockCtx(context.Background(), client, id)
}

// ReadBlockCtx reads a block to the client node from its nearest live
// replica. A replica whose local read fails (missing or corrupt copy, the
// latter journaled as ReplicaCorrupt) is skipped for the next live one, and
// when none is left — every holder dead or unreadable — the read degrades to
// erasure-coded reconstruction if the block's stripe is encoded. The store
// verifies a copy under the transfer's first chunk, so a copy that fails
// costs that chunk, booked and never delivered. Cancelling ctx aborts the
// transfer at once, with at most the stream's window of chunks left booked.
func (c *Cluster) ReadBlockCtx(ctx context.Context, client topology.NodeID, id topology.BlockID) ([]byte, error) {
	if m := c.metrics(); m != nil {
		defer func(t0 time.Time) { m.readLat.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	span, ctx := c.opSpan(ctx, "client", "client.read-block")
	span.Arg("block", strconv.FormatInt(int64(id), 10))
	defer span.End()
	live, err := c.nn.LiveReplicas(id)
	if err != nil {
		return nil, err
	}
	var readErr error
	var out []byte
	for len(live) > 0 {
		src, err := c.chooseReplica(id, live, client)
		if err != nil {
			return nil, err
		}
		dn, err := c.DataNodeOf(src)
		if err != nil {
			return nil, err
		}
		// The store fills the caller's buffer while the first chunk travels.
		st, err := c.fab.OpenStream(ctx, src, client)
		if err != nil {
			return nil, err
		}
		first := min(fabric.ChunkBytes, c.cfg.BlockSizeBytes)
		arrival, err := st.Book(ctx, first, time.Time{})
		if err != nil {
			st.Close()
			return nil, err
		}
		if out == nil {
			out = make([]byte, c.cfg.BlockSizeBytes)
		}
		if err := dn.Store.GetInto(DataKey(id), out); err != nil {
			st.Close()
			if errors.Is(err, blockstore.ErrCorrupt) {
				stripe := events.NoneStripe
				if meta, merr := c.nn.Block(id); merr == nil {
					stripe = meta.Stripe
				}
				c.replicaCorrupt(ctx, stripe, DataKey(id), src)
			}
			readErr = fmt.Errorf("block %d on node %d: %w", id, src, err)
			live = slices.DeleteFunc(live, func(n topology.NodeID) bool { return n == src })
			continue
		}
		last, err := st.Book(ctx, len(out)-first, time.Time{})
		if err == nil {
			err = fabric.SleepUntilExact(ctx, later(arrival, last))
		}
		st.Close()
		if err != nil {
			return nil, err
		}
		c.acct.Charge(tenant.FromContext(ctx), "read", 1, int64(len(out)))
		return out, nil
	}
	out, err = c.DegradedReadCtx(ctx, client, id)
	if err != nil && readErr != nil {
		return nil, fmt.Errorf("%w (degraded read: %v)", readErr, err)
	}
	return out, err
}

// DegradedRead reconstructs a lost block with a background context. See
// DegradedReadCtx.
func (c *Cluster) DegradedRead(client topology.NodeID, id topology.BlockID) ([]byte, error) {
	return c.DegradedReadCtx(context.Background(), client, id)
}

// DegradedReadCtx reconstructs a lost block from its stripe at the client
// (Section VI's degraded read): a loop of one member fold (foldMember), in
// which the survivors fold the decode row along the chain, so one partial sum
// per survivor rack crosses the core, and a survivor that fails its checksum
// as the fold reads it is planned around. A block that still has a readable
// copy is that copy. A delivered block is charged to the context's tenant as
// one "read" op.
func (c *Cluster) DegradedReadCtx(ctx context.Context, client topology.NodeID, id topology.BlockID) ([]byte, error) {
	sm, pos, err := c.blockMember(id)
	if err != nil {
		return nil, err
	}
	loop := newStageLoop(c)
	defer loop.close()
	var out []byte
	if err := loop.run(ctx, 1, func(int) (bool, error) {
		return true, c.foldMember(ctx, loop, sm, pos, client, make(map[holder]bool), func() {}, func(block blockstore.Sealed, _ chainLedger, err error) error {
			out = block.Bytes()
			return err
		})
	}); err != nil {
		return nil, err
	}
	// A degraded read delivers a block like any read; ReadBlockCtx charges
	// only its replica path, so the fallback through here counts once.
	c.acct.Charge(tenant.FromContext(ctx), "read", 1, int64(len(out)))
	return out, nil
}

// RepairBlock rebuilds a lost block with a background context. See
// RepairBlockCtx.
func (c *Cluster) RepairBlock(id topology.BlockID) (topology.NodeID, error) {
	return c.RepairBlockCtx(context.Background(), id)
}

// RepairBlockCtx rebuilds a lost block of an encoded stripe onto a fresh live
// node and updates the NameNode: a sweep that plans the block's member while
// no live copy serves it. It returns the node chosen, or a live holder of a
// block that was not lost, which folds nothing. A block whose stripe is not
// yet encoded is still replicated: its repair fails with ErrUnknownStripe,
// since the commit would cut its replica set to the one copy.
func (c *Cluster) RepairBlockCtx(ctx context.Context, id topology.BlockID) (topology.NodeID, error) {
	var holder topology.NodeID
	_, err := c.sweep(ctx, func() ([]recoverTask, error) {
		sm, pos, err := c.blockMember(id)
		if err != nil {
			return nil, err
		}
		if sm.Plan == nil {
			return nil, fmt.Errorf("%w: stripe %d not encoded", ErrUnknownStripe, sm.Info.ID)
		}
		if live, _, err := c.posHolders(sm, pos, nil); err != nil {
			return nil, err
		} else if len(live) > 0 {
			holder = live[0]
			return nil, nil
		}
		return []recoverTask{{sm: sm, pos: pos}}, nil
	}, func(loop *stageLoop, t recoverTask, done func(error) error) error {
		holder = t.target
		return c.repairMember(ctx, loop, t, new(RecoveryStats), done)
	})
	return holder, err
}

// blockMember resolves a block to its stripe-member address: the stripe it
// was grouped into and its position there.
func (c *Cluster) blockMember(id topology.BlockID) (*StripeMeta, int, error) {
	meta, err := c.nn.Block(id)
	if err != nil {
		return nil, 0, err
	}
	if meta.Stripe < 0 {
		return nil, 0, fmt.Errorf("%w: block %d is in no stripe to rebuild it from", ErrNoReplica, id)
	}
	sm, err := c.nn.Stripe(meta.Stripe)
	if err != nil {
		return nil, 0, err
	}
	pos := slices.Index(sm.Info.Blocks, id)
	if pos < 0 {
		return nil, 0, fmt.Errorf("%w: block %d missing from stripe %d", ErrUnknownStripe, id, meta.Stripe)
	}
	return sm, pos, nil
}

// replicaCorrupt journals a ReplicaCorrupt event: a read found the copy
// stored under key on node, a member of stripe (NoneStripe: of none), failing
// its checksum.
func (c *Cluster) replicaCorrupt(ctx context.Context, stripe topology.StripeID, key blockstore.Key, node topology.NodeID) {
	ev := events.New(events.ReplicaCorrupt, "datanode")
	ev.Stripe, ev.Node = stripe, node
	ev.Trace = telemetry.TraceFromContext(ctx)
	if key.Kind == blockstore.Data {
		ev.Block = topology.BlockID(key.ID)
	} else {
		ev.Detail = "parity"
	}
	c.Journal().Publish(ev)
}
