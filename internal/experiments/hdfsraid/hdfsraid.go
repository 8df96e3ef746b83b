// Package hdfsraid is the encode the paper measures EAR against: Facebook's
// HDFS-RAID (Section II-A) downloads one replica of each of a stripe's k data
// blocks to the encoding node, encodes there, and uploads the m parity blocks
// to their holders. The system itself encodes along a chain
// (internal/hdfs/chain.go); this baseline belongs to the evaluation, is built
// on the cluster's exported surface alone, and reaches a cluster one encode
// job at a time through RaidNode.EncodeAllWith.
package hdfsraid

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"ear/internal/blockstore"
	"ear/internal/hdfs"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// Parity returns the gather over the cluster as the ParityFunc of an encode
// job: c.RaidNode().EncodeAllWith(ctx, hdfsraid.Parity(c)). A stripe's k
// downloads run at once (Section II-A's parallel reads), then encode, then
// the m uploads, under the map task's download / encode / parity-write spans.
// The downloads land in pooled buffers, which all go back before it returns;
// the parity blocks are its own, sealed, since the encode stores them as they
// are.
func Parity(c *hdfs.Cluster) hdfs.ParityFunc {
	pool, size := c.BufferPool(), c.Config().BlockSizeBytes
	// zero stands in for aborted members and short-stripe padding; the coding
	// kernels only read their inputs, so one block serves every stripe.
	zero := make([]byte, size)
	return func(ctx context.Context, info *placement.StripeInfo, encoder topology.NodeID, plan *placement.PostEncodingPlan) (sp hdfs.StripeParity, err error) {
		parent := telemetry.SpanFromContext(ctx)
		var held [][]byte
		defer func() {
			for _, b := range held {
				pool.Put(b)
			}
		}()
		data := make([][]byte, c.Config().K)
		for i := range data {
			data[i] = zero
		}
		aborted := make([]bool, len(info.Blocks))
		// A download counts as cross-rack when it completes, so a failed
		// gather never reports traffic that was only planned.
		var cross atomic.Int64
		dl := parent.Child("download").Arg("stripe", strconv.FormatInt(int64(info.ID), 10))
		dg, dctx := workgroup.WithContext(ctx)
		for i, b := range info.Blocks {
			buf := pool.Get(size)
			held = append(held, buf)
			dg.Go(func() error {
				crossed, gone, err := fetch(dctx, c, b, encoder, buf)
				if err != nil {
					return fmt.Errorf("stripe %d block %d: %w", info.ID, b, err)
				}
				aborted[i] = gone
				if !gone {
					data[i] = buf
				}
				if crossed {
					cross.Add(1)
				}
				return nil
			})
		}
		err = dg.Wait()
		sp.CrossRackDownloads = int(cross.Load())
		dl.Arg("cross_rack_downloads", strconv.Itoa(sp.CrossRackDownloads)).End()
		if err != nil {
			return sp, err
		}
		pbufs := make([][]byte, c.Coder().M())
		for j := range pbufs {
			pbufs[j] = make([]byte, size)
		}
		enc := parent.Child("encode")
		err = c.Coder().EncodeInto(data, pbufs)
		enc.End()
		if err != nil {
			return sp, err
		}
		pw := parent.Child("parity-write")
		ug, uctx := workgroup.WithContext(ctx)
		for j, node := range plan.Parity {
			ug.Go(func() error {
				if err := c.Fabric().Send(uctx, encoder, node, size); err != nil {
					return fmt.Errorf("upload parity %d to node %d: %w", j, node, err)
				}
				return nil
			})
		}
		err = ug.Wait()
		pw.End()
		if err != nil {
			return sp, err
		}
		for _, node := range plan.Parity {
			// Every upload succeeded, so both nodes are the topology's.
			if same, _ := c.Topology().SameRack(node, encoder); !same {
				sp.CrossRackUploads++
			}
		}
		for _, b := range pbufs {
			sp.Blocks = append(sp.Blocks, blockstore.Own(b))
		}
		sp.Aborted = aborted
		return sp, nil
	}
}

// fetch downloads block b to the encoder from the nearest live replica — the
// encoder's own, else one in its rack, else any; among equals the block ID
// picks, so a run is reproducible without a shared rng. It reports whether
// the download crossed racks, or that the member was aborted and has no
// bytes anywhere.
func fetch(ctx context.Context, c *hdfs.Cluster, b topology.BlockID, encoder topology.NodeID, buf []byte) (crossed, aborted bool, err error) {
	live, err := c.NameNode().LiveReplicas(b)
	if err != nil {
		return false, false, err
	}
	if len(live) == 0 {
		if meta, merr := c.NameNode().Block(b); merr == nil && meta.Aborted {
			return false, true, nil
		}
		return false, false, hdfs.ErrNoReplica
	}
	var near []topology.NodeID
	for _, n := range live {
		same, err := c.Topology().SameRack(n, encoder)
		if err != nil {
			return false, false, err
		}
		if n == encoder {
			near = []topology.NodeID{n}
			break
		}
		if same {
			near = append(near, n)
		}
	}
	if len(near) == 0 {
		crossed, near = true, live
	}
	src := near[int(b)%len(near)]
	dn, err := c.DataNodeOf(src)
	if err != nil {
		return false, false, err
	}
	if err := dn.Store.GetInto(hdfs.DataKey(b), buf); err != nil {
		return false, false, fmt.Errorf("node %d: %w", src, err)
	}
	return crossed, false, c.Fabric().Send(ctx, src, encoder, len(buf))
}
