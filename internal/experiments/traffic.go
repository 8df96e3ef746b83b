package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ear/internal/events"
	"ear/internal/hdfs"
	"ear/internal/topology"
)

// PhaseTraffic is the rack-locality byte breakdown of one phase of a block
// lifecycle (write, encode, delete), measured two independent ways: summed
// from the journal's transfer-finished events and subtracted from the
// fabric's payload counters. The two must agree — every network stream is
// journaled — so a discrepancy flags lost events or unbracketed transfers.
type PhaseTraffic struct {
	Phase     string `json:"phase"`
	Transfers int    `json:"transfers"`
	// CrossRackBytes / IntraRackBytes are journal-derived (transfer-finished
	// events of network streams; local same-node disk streams are excluded,
	// matching the fabric's payload accounting).
	CrossRackBytes int64 `json:"cross_rack_bytes"`
	IntraRackBytes int64 `json:"intra_rack_bytes"`
	// FabricCrossBytes / FabricIntraBytes are the fabric snapshot deltas over
	// the same phase, the independent ground truth.
	FabricCrossBytes int64 `json:"fabric_cross_bytes"`
	FabricIntraBytes int64 `json:"fabric_intra_bytes"`
}

// discrepancy returns the larger relative disagreement between the journal
// and fabric byte totals (0 when both agree, including the all-zero case).
func (p PhaseTraffic) discrepancy() float64 {
	rel := func(a, b int64) float64 {
		if a == b {
			return 0
		}
		den := float64(b)
		if b == 0 {
			den = float64(a)
		}
		d := float64(a-b) / den
		if d < 0 {
			d = -d
		}
		return d
	}
	c := rel(p.CrossRackBytes, p.FabricCrossBytes)
	if i := rel(p.IntraRackBytes, p.FabricIntraBytes); i > c {
		c = i
	}
	return c
}

// TrafficResult is RunTraffic's output: the per-phase breakdown and a
// rendered summary table. (The per-link utilization timeline of the run is
// the Timeline plane's: earexp -exp traffic -timeline out.json.)
type TrafficResult struct {
	Policy string         `json:"policy"`
	Phases []PhaseTraffic `json:"phases"`
	// MaxDiscrepancy is the worst relative disagreement between the
	// journal-derived and fabric-derived byte totals across all phases.
	MaxDiscrepancy float64 `json:"max_discrepancy"`
	Summary        *Table  `json:"-"`
}

// RunTraffic runs one write -> encode -> delete lifecycle on a fresh cluster
// and reports the cross-rack vs intra-rack traffic of each phase. The write
// phase populates enough blocks to seal the configured stripes; the encode
// phase runs the RaidNode's encoding job (whose third step deletes redundant
// replicas in place — deletes are metadata plus local disk, so the phase's
// network bytes live in encode's gather and parity uploads); the delete
// phase runs the PlacementMonitor + BlockMover pass that relocates blocks of
// any stripe left violating rack-level fault tolerance (zero traffic on a
// clean EAR run, the paper's headline saving). arm names the encode the
// encode phase runs.
func RunTraffic(opts TestbedOptions, policy string, n, k int, arm EncodeArm) (*TrafficResult, error) {
	opts = opts.withDefaults()
	cfg := opts.clusterConfig(policy, n, k)
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// The journal must hold every transfer event of the run: bound it by the
	// worst-case stream count (writes replicate every block, encoding touches
	// every block and parity, repair pulls up to k survivors per lost member,
	// each stream publishes two events) with slack. It goes in before the
	// observers, so planes a ClusterHook attaches read the same journal.
	blocks := opts.Stripes * k * 2
	capacity := (blocks*(cfg.Replicas+2) + opts.Stripes*(k+n) + opts.Stripes*(k+1)) * 4
	j := events.NewJournal(capacity)
	c.SetJournal(j)
	opts.apply(c)

	res := &TrafficResult{Policy: policy}
	cursor := j.Seq()
	prev := c.Fabric().Snapshot()
	measure := func(phase string, run func() error) error {
		if err := run(); err != nil {
			return fmt.Errorf("%s phase: %w", phase, err)
		}
		cur := c.Fabric().Snapshot()
		d := cur.Sub(prev)
		pt := PhaseTraffic{
			Phase:            phase,
			FabricCrossBytes: d.CrossRackBytes,
			FabricIntraBytes: d.IntraRackBytes,
		}
		evs, next, dropped := j.Since(cursor, 0, events.Filter{Type: events.TransferFinished})
		if dropped > 0 {
			return fmt.Errorf("%s phase: journal dropped %d events (capacity %d too small)",
				phase, dropped, capacity)
		}
		for _, e := range evs {
			if e.Node == e.Peer {
				continue // local disk stream, not network payload
			}
			pt.Transfers++
			if e.Cross {
				pt.CrossRackBytes += e.Bytes
			} else {
				pt.IntraRackBytes += e.Bytes
			}
		}
		cursor, prev = next, cur
		res.Phases = append(res.Phases, pt)
		if d := pt.discrepancy(); d > res.MaxDiscrepancy {
			res.MaxDiscrepancy = d
		}
		return nil
	}

	rng := rand.New(rand.NewSource(opts.Seed + 77))
	if err := measure("write", func() error {
		_, err := populate(c, opts.Stripes, rng)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("encode", func() error {
		_, err := arm.encodeAll(c)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("delete", func() error {
		_, _, err := c.RaidNode().BlockMover()
		return err
	}); err != nil {
		return nil, err
	}
	// Repair phase: kill the node holding the most encoded data blocks,
	// recover every lost member, revive the node. Repair streams are
	// journaled like any other transfer, so the journal-vs-fabric
	// cross-check extends to the repair chain.
	if err := measure("repair", func() error {
		dead := busiestEncodedNode(c)
		if dead < 0 {
			return fmt.Errorf("%w: no encoded blocks to lose", ErrBadOptions)
		}
		c.NameNode().MarkDead(dead)
		if _, err := c.RecoverNode(context.Background(), dead); err != nil {
			return err
		}
		c.NameNode().MarkAlive(dead)
		return nil
	}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "traffic",
		Caption: fmt.Sprintf("Per-phase cross-rack vs intra-rack traffic, policy %s (%d,%d), %s encode, chain repair", policy, n, k, arm),
		Headers: []string{"phase", "transfers", "xrack MB", "intra MB", "fabric xrack MB", "fabric intra MB"},
		Notes: []string{
			fmt.Sprintf("journal vs fabric max discrepancy: %.3f%%", res.MaxDiscrepancy*100),
		},
	}
	for _, p := range res.Phases {
		t.AddRow(p.Phase, fmt.Sprintf("%d", p.Transfers),
			f2(float64(p.CrossRackBytes)/(1<<20)), f2(float64(p.IntraRackBytes)/(1<<20)),
			f2(float64(p.FabricCrossBytes)/(1<<20)), f2(float64(p.FabricIntraBytes)/(1<<20)))
	}
	res.Summary = t
	return res, nil
}

// busiestEncodedNode returns the live node holding the most members (data
// blocks or parities) of encoded stripes, or -1 when nothing is encoded —
// the node whose failure exercises recovery hardest.
func busiestEncodedNode(c *hdfs.Cluster) topology.NodeID {
	nn := c.NameNode()
	load := make(map[topology.NodeID]int)
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			continue
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil || meta.Aborted {
				continue
			}
			for _, n := range meta.Nodes {
				if !nn.IsDead(n) {
					load[n]++
				}
			}
		}
		for _, n := range sm.Plan.Parity {
			if !nn.IsDead(n) {
				load[n]++
			}
		}
	}
	best, bestLoad := topology.NodeID(-1), 0
	for n, l := range load {
		if l > bestLoad || (l == bestLoad && best >= 0 && n < best) {
			best, bestLoad = n, l
		}
	}
	return best
}
