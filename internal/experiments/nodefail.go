package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/progress"
)

// NodeFailResult is RunNodeFail's output: the recovery driver's statistics,
// the auditor's verdict and the residual durability exposure after the
// sweep, plus a rendered summary table.
type NodeFailResult struct {
	Stats    hdfs.RecoveryStats `json:"stats"`
	Audit    audit.Report       `json:"audit"`
	Progress progress.Report    `json:"progress"`
	Summary  *Table             `json:"-"`
}

// RunNodeFail is the node-failure smoke scenario: encode stripes on a
// multi-node-rack cluster, kill the node holding the most stripe members,
// run the parallel recovery driver, and verify the cluster healed — every
// lost member repaired, no metadata referencing the dead node, the
// event-sourced auditor free of ongoing violations, and the progress
// tracker's durability-exposure ledger fully closed. It exercises chain
// repair end to end under the invariant checkers.
func RunNodeFail(opts TestbedOptions) (*NodeFailResult, error) {
	// Recovery needs multi-node racks (rack-local partial aggregation) and
	// a C large enough that a (9,6) stripe fits four racks.
	if opts.Racks == 0 {
		opts.Racks = 4
	}
	if opts.NodesPerRack == 0 {
		opts.NodesPerRack = 4
	}
	if opts.C == 0 {
		opts.C = 3
	}
	if opts.Stripes == 0 {
		opts.Stripes = 6
	}
	opts = opts.withDefaults()
	const n, k = 9, 6
	cfg := opts.clusterConfig("ear", n, k)
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	opts.apply(c)

	pl := planes.Attach(c, planes.Audit|planes.Progress)

	rng := rand.New(rand.NewSource(opts.Seed + 131))
	if _, err := populate(c, opts.Stripes, rng); err != nil {
		return nil, err
	}
	// Seal the stripes populate left open as well: RecoverNode rebuilds
	// members of encoded stripes, so a still-replicated block that lost one
	// copy with the node would stay at risk and fail the ledger check below.
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		return nil, err
	}
	if _, err := Chain.encodeAll(c); err != nil {
		return nil, err
	}
	if err := settlePlacement(c); err != nil {
		return nil, err
	}

	dead := busiestEncodedNode(c)
	if dead < 0 {
		return nil, fmt.Errorf("%w: nothing encoded, no node worth killing", ErrBadOptions)
	}
	c.NameNode().MarkDead(dead)
	if pl.Tracker.Report().BlocksAtRisk == 0 {
		return nil, fmt.Errorf("node %d died holding stripe members, but the progress tracker opened no exposure windows", dead)
	}

	stats, err := c.RecoverNode(context.Background(), dead)
	if err != nil {
		return nil, fmt.Errorf("recover node %d: %w", dead, err)
	}
	if stats.BlocksRepaired+stats.ParityRepaired == 0 {
		return nil, fmt.Errorf("recovery of the busiest node %d repaired nothing", dead)
	}

	// The healed cluster must not reference the dead node anywhere.
	nn := c.NameNode()
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			return nil, err
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				return nil, err
			}
			if meta.Aborted {
				continue
			}
			for _, node := range meta.Nodes {
				if node == dead {
					return nil, fmt.Errorf("block %d still located on dead node %d after recovery", b, dead)
				}
			}
		}
		for j, node := range sm.Plan.Parity {
			if node == dead {
				return nil, fmt.Errorf("stripe %d parity %d still located on dead node %d after recovery", sid, j, dead)
			}
		}
	}

	res := &NodeFailResult{Stats: stats, Audit: pl.Auditor.Report(), Progress: pl.Tracker.Report()}
	if v := res.Audit.Ongoing; len(v) > 0 {
		return nil, fmt.Errorf("auditor reports %d ongoing violations after recovery, first: %s",
			len(v), v[0].Detail)
	}
	if res.Progress.BlocksAtRisk != 0 {
		return nil, fmt.Errorf("progress tracker reports %d blocks still at risk after recovery",
			res.Progress.BlocksAtRisk)
	}

	t := &Table{
		ID: "nodefail",
		Caption: fmt.Sprintf("Node-failure recovery smoke: chain repair, %d racks x %d nodes, (%d,%d), c=%d",
			cfg.Racks, cfg.NodesPerRack, n, k, cfg.C),
		Headers: []string{"metric", "value"},
		Notes: []string{
			"auditor: no ongoing violations; progress tracker: zero residual blocks at risk",
		},
	}
	t.AddRow("failed node", fmt.Sprintf("%d", dead))
	t.AddRow("data blocks repaired", fmt.Sprintf("%d", stats.BlocksRepaired))
	t.AddRow("parities repaired", fmt.Sprintf("%d", stats.ParityRepaired))
	t.AddRow("bytes repaired (MB)", f2(float64(stats.BytesRepaired)/(1<<20)))
	t.AddRow("cross-rack traffic (MB)", f2(float64(stats.CrossRackBytes)/(1<<20)))
	t.AddRow("total traffic (MB)", f2(float64(stats.TotalBytes)/(1<<20)))
	t.AddRow("recovery throughput (MB/s)", f2(stats.ThroughputMBps()))
	res.Summary = t
	return res, nil
}
