// Package simcfs is the discrete-event CFS simulator of the paper's Section
// V-B (Figure 11), built on the sim kernel. The PlacementManager role is
// played by the placement package; this package provides the Topology module
// (per-node NICs and shared per-rack core links as FIFO facilities) and the
// TrafficManager (write, encoding, and background traffic streams), plus the
// experiment runner that measures encoding and write throughput under RR and
// EAR.
package simcfs

import (
	"fmt"
	"sort"

	"ear/internal/sim"
	"ear/internal/topology"
)

// Cluster models the simulated network: every node has full-duplex NIC
// facilities (up and down), and every rack shares full-duplex core-facing
// links (up and down). An intra-rack transfer occupies the two NICs; a
// cross-rack transfer additionally occupies the source rack's uplink and the
// destination rack's downlink, which is where the paper's scarce
// cross-rack bandwidth contention arises.
type Cluster struct {
	sim *sim.Sim
	top *topology.Topology
	// bandwidthMBps applies to every link (Experiment B.2(c) varies all
	// top-of-rack and core links together).
	bandwidthMBps float64

	nodeUp   []*sim.Facility
	nodeDown []*sim.Facility
	rackUp   []*sim.Facility
	rackDown []*sim.Facility
	// disk, when non-nil, charges local (same-node) reads at diskMBps:
	// with one node per rack (the validation topology) the encoder's own
	// blocks are read from its disk, not for free.
	disk     []*sim.Facility
	diskMBps float64

	// order[f] gives the canonical acquisition index of each facility to
	// keep multi-link reservations deadlock-free.
	order map[*sim.Facility]int

	// traffic accounting (MB)
	crossRackMB float64
	intraRackMB float64
}

// NewCluster builds the link facilities for a topology.
func NewCluster(s *sim.Sim, top *topology.Topology, bandwidthMBps float64) (*Cluster, error) {
	if bandwidthMBps <= 0 {
		return nil, fmt.Errorf("simcfs: bandwidth %g MB/s", bandwidthMBps)
	}
	c := &Cluster{
		sim:           s,
		top:           top,
		bandwidthMBps: bandwidthMBps,
		nodeUp:        make([]*sim.Facility, top.Nodes()),
		nodeDown:      make([]*sim.Facility, top.Nodes()),
		rackUp:        make([]*sim.Facility, top.Racks()),
		rackDown:      make([]*sim.Facility, top.Racks()),
		order:         make(map[*sim.Facility]int),
	}
	idx := 0
	add := func(f *sim.Facility) {
		c.order[f] = idx
		idx++
	}
	for i := 0; i < top.Nodes(); i++ {
		up, err := s.NewFacility(fmt.Sprintf("node%d.up", i), 1)
		if err != nil {
			return nil, err
		}
		down, err := s.NewFacility(fmt.Sprintf("node%d.down", i), 1)
		if err != nil {
			return nil, err
		}
		c.nodeUp[i], c.nodeDown[i] = up, down
		add(up)
		add(down)
	}
	for r := 0; r < top.Racks(); r++ {
		up, err := s.NewFacility(fmt.Sprintf("rack%d.up", r), 1)
		if err != nil {
			return nil, err
		}
		down, err := s.NewFacility(fmt.Sprintf("rack%d.down", r), 1)
		if err != nil {
			return nil, err
		}
		c.rackUp[r], c.rackDown[r] = up, down
		add(up)
		add(down)
	}
	return c, nil
}

// EnableDisk attaches a single-server disk facility to every node; local
// transfers are then held for mb/diskMBps seconds.
func (c *Cluster) EnableDisk(diskMBps float64) error {
	if diskMBps <= 0 {
		return fmt.Errorf("simcfs: disk bandwidth %g MB/s", diskMBps)
	}
	disks := make([]*sim.Facility, c.top.Nodes())
	for i := range disks {
		f, err := c.sim.NewFacility(fmt.Sprintf("node%d.disk", i), 1)
		if err != nil {
			return err
		}
		disks[i] = f
	}
	c.disk = disks
	c.diskMBps = diskMBps
	return nil
}

// CrossRackMB returns the cumulative cross-rack traffic in MB.
func (c *Cluster) CrossRackMB() float64 { return c.crossRackMB }

// IntraRackMB returns the cumulative intra-rack traffic in MB.
func (c *Cluster) IntraRackMB() float64 { return c.intraRackMB }

// pathFacilities returns the links a transfer occupies, sorted canonically.
func (c *Cluster) pathFacilities(src, dst topology.NodeID) ([]*sim.Facility, bool, error) {
	srcRack, err := c.top.RackOf(src)
	if err != nil {
		return nil, false, err
	}
	dstRack, err := c.top.RackOf(dst)
	if err != nil {
		return nil, false, err
	}
	fs := []*sim.Facility{c.nodeUp[src], c.nodeDown[dst]}
	cross := srcRack != dstRack
	if cross {
		fs = append(fs, c.rackUp[srcRack], c.rackDown[dstRack])
	}
	sort.Slice(fs, func(i, j int) bool { return c.order[fs[i]] < c.order[fs[j]] })
	return fs, cross, nil
}

// Transfer moves mb megabytes from src to dst, holding every link on the
// path for mb/bandwidth seconds (the CSIM resource-holding model the
// paper's simulator uses). A transfer to the same node is free.
func (c *Cluster) Transfer(p *sim.Proc, src, dst topology.NodeID, mb float64) error {
	if mb < 0 {
		return fmt.Errorf("simcfs: negative transfer size %g", mb)
	}
	if src == dst || mb == 0 {
		// Local access: no network resources; a shaped disk pass when
		// disk modeling is enabled.
		if _, err := c.top.RackOf(src); err != nil {
			return err
		}
		if _, err := c.top.RackOf(dst); err != nil {
			return err
		}
		if c.disk != nil && mb > 0 {
			return c.disk[src].Use(p, mb/c.diskMBps)
		}
		return nil
	}
	fs, cross, err := c.pathFacilities(src, dst)
	if err != nil {
		return err
	}
	sim.ReserveMany(p, fs)
	err = p.Hold(mb / c.bandwidthMBps)
	sim.ReleaseMany(fs)
	if err != nil {
		return err
	}
	if cross {
		c.crossRackMB += mb
	} else {
		c.intraRackMB += mb
	}
	return nil
}
