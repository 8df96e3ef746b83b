package simcfs

import (
	"math"
	"testing"

	"ear/internal/sim"
	"ear/internal/topology"
)

func TestClusterTransferTiming(t *testing.T) {
	s := sim.New()
	top, err := topology.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, top, 100) // 100 MB/s
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var intra, cross, local float64
	_ = s.Spawn("p", 0, func(p *sim.Proc) error {
		start := p.Now()
		if err := c.Transfer(p, 0, 1, 200); err != nil { // same rack
			return err
		}
		intra = p.Now() - start
		start = p.Now()
		if err := c.Transfer(p, 0, 2, 100); err != nil { // cross rack
			return err
		}
		cross = p.Now() - start
		start = p.Now()
		if err := c.Transfer(p, 3, 3, 500); err != nil { // local
			return err
		}
		local = p.Now() - start
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if intra != 2.0 {
		t.Errorf("intra-rack transfer took %g s, want 2", intra)
	}
	if cross != 1.0 {
		t.Errorf("cross-rack transfer took %g s, want 1", cross)
	}
	if local != 0 {
		t.Errorf("local transfer took %g s, want 0", local)
	}
	if c.IntraRackMB() != 200 || c.CrossRackMB() != 100 {
		t.Errorf("traffic accounting: intra %g, cross %g", c.IntraRackMB(), c.CrossRackMB())
	}
}

func TestClusterSharedRackUplinkContention(t *testing.T) {
	// Two nodes in rack 0 transfer cross-rack concurrently: they serialize
	// on the shared rack uplink even though their NICs are distinct.
	s := sim.New()
	top, err := topology.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, top, 100)
	if err != nil {
		t.Fatal(err)
	}
	var done []float64
	for i := 0; i < 2; i++ {
		src := topology.NodeID(i) // nodes 0 and 1 in rack 0
		dst := topology.NodeID(2 + i)
		_ = s.Spawn("x", 0, func(p *sim.Proc) error {
			if err := c.Transfer(p, src, dst, 100); err != nil {
				return err
			}
			done = append(done, p.Now())
			return nil
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Errorf("completions = %v, want [1 2] (uplink serialized)", done)
	}
	if u := c.rackUp[0].Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("rack 0 uplink utilization = %g, want 1 (busy throughout)", u)
	}
}

func TestClusterValidation(t *testing.T) {
	s := sim.New()
	top, _ := topology.New(2, 2)
	if _, err := NewCluster(s, top, 0); err == nil {
		t.Error("0 bandwidth: expected error")
	}
	c, _ := NewCluster(s, top, 100)
	var terr error
	_ = s.Spawn("p", 0, func(p *sim.Proc) error {
		terr = c.Transfer(p, 0, 1, -5)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if terr == nil {
		t.Error("negative size: expected error")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Racks != 20 || p.NodesPerRack != 20 || p.K != 10 || p.N != 14 ||
		p.LinkBandwidthMBps != 125 || p.BlockSizeMB != 64 || p.Replicas != 3 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if p.Policy != PolicyRR {
		t.Errorf("default policy = %v", p.Policy)
	}
	if PolicyRR.String() != "rr" || PolicyEAR.String() != "ear" || PolicyKind(9).String() != "policy(9)" {
		t.Error("PolicyKind.String wrong")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{Racks: 4, K: 10, N: 14}); err == nil {
		t.Error("stripe larger than rack count: expected error")
	}
	if _, err := Run(Params{WriteRate: 1, EncodeProcesses: -1}); err == nil {
		// Encoding disabled, no WriteDuration: open-ended.
		t.Error("open-ended traffic: expected error")
	}
	if _, err := Run(Params{StripesPerProcess: -2}); err == nil {
		t.Error("negative stripes per process: expected error")
	}
}

// smallEncodeParams returns a fast-to-simulate encode-only configuration.
func smallEncodeParams(policy PolicyKind, seed int64) Params {
	return Params{
		Policy:            policy,
		Racks:             8,
		NodesPerRack:      4,
		K:                 4,
		N:                 6,
		EncodeProcesses:   4,
		StripesPerProcess: 3,
		Seed:              seed,
	}
}

func TestRunEncodeOnly(t *testing.T) {
	res, err := Run(smallEncodeParams(PolicyRR, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.EncodedStripes != 12 {
		t.Fatalf("encoded %d stripes, want 12", res.EncodedStripes)
	}
	if res.EncodedMB != float64(12*4*64) {
		t.Errorf("EncodedMB = %g", res.EncodedMB)
	}
	if res.EncodeThroughputMBps <= 0 {
		t.Errorf("throughput = %g", res.EncodeThroughputMBps)
	}
	if res.EncodeEnd <= res.EncodeStart {
		t.Errorf("encode window [%g, %g]", res.EncodeStart, res.EncodeEnd)
	}
	if res.StripeCompletions.Len() != 12 {
		t.Errorf("completion series has %d points", res.StripeCompletions.Len())
	}
	if res.CrossRackDownloads == 0 {
		t.Error("RR should incur cross-rack downloads")
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	a, err := Run(smallEncodeParams(PolicyEAR, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallEncodeParams(PolicyEAR, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.EncodeEnd != b.EncodeEnd || a.CrossRackMB != b.CrossRackMB {
		t.Errorf("same seed diverged: end %g vs %g, cross %g vs %g",
			a.EncodeEnd, b.EncodeEnd, a.CrossRackMB, b.CrossRackMB)
	}
	c, err := Run(smallEncodeParams(PolicyEAR, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.EncodeEnd == c.EncodeEnd && a.CrossRackMB == c.CrossRackMB {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestEARZeroCrossRackDownloadsAndNoRelocation(t *testing.T) {
	res, err := Run(smallEncodeParams(PolicyEAR, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CrossRackDownloads != 0 {
		t.Errorf("EAR cross-rack downloads = %d, want 0", res.CrossRackDownloads)
	}
	if res.Relocations != 0 {
		t.Errorf("EAR relocations = %d, want 0", res.Relocations)
	}
}

func TestEAROutperformsRRInEncoding(t *testing.T) {
	// The headline result: EAR encodes faster and moves less cross-rack
	// data than RR under identical conditions.
	var rrThpt, earThpt, rrCross, earCross float64
	for seed := int64(0); seed < 3; seed++ {
		rr, err := Run(smallEncodeParams(PolicyRR, seed))
		if err != nil {
			t.Fatal(err)
		}
		e, err := Run(smallEncodeParams(PolicyEAR, seed))
		if err != nil {
			t.Fatal(err)
		}
		rrThpt += rr.EncodeThroughputMBps
		earThpt += e.EncodeThroughputMBps
		rrCross += rr.CrossRackMB
		earCross += e.CrossRackMB
	}
	if earThpt <= rrThpt {
		t.Errorf("EAR throughput %g <= RR %g", earThpt/3, rrThpt/3)
	}
	if earCross >= rrCross {
		t.Errorf("EAR cross-rack MB %g >= RR %g", earCross/3, rrCross/3)
	}
}

func TestRunWithWriteAndBackgroundTraffic(t *testing.T) {
	p := smallEncodeParams(PolicyEAR, 3)
	p.WriteRate = 2
	p.BackgroundRate = 2
	p.BackgroundMeanMB = 32
	res, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WritesDone == 0 {
		t.Fatal("no writes completed")
	}
	if res.MeanWriteResponse <= 0 {
		t.Errorf("MeanWriteResponse = %g", res.MeanWriteResponse)
	}
	if res.WriteThroughputMBps <= 0 {
		t.Errorf("WriteThroughputMBps = %g", res.WriteThroughputMBps)
	}
	if res.WriteResponses.Len() != res.WritesDone {
		t.Errorf("series %d != writes %d", res.WriteResponses.Len(), res.WritesDone)
	}
}

func TestRunWriteOnlyWindow(t *testing.T) {
	p := Params{
		Policy:          PolicyRR,
		Racks:           6,
		NodesPerRack:    3,
		K:               3,
		N:               5,
		WriteRate:       3,
		WriteDuration:   30,
		EncodeProcesses: -1,
	}
	res, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.EncodedStripes != 0 {
		t.Error("no encoding requested")
	}
	if res.WritesDone < 50 {
		t.Errorf("writes done = %d, want ~90", res.WritesDone)
	}
	if res.MeanWriteResponseDuringEncode != 0 {
		t.Error("during-encode mean should be 0 with no encoding")
	}
}

func TestEncodeStartTimeDelaysEncoding(t *testing.T) {
	p := smallEncodeParams(PolicyEAR, 4)
	p.EncodeStartTime = 50
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.EncodeStart != 50 {
		t.Errorf("EncodeStart = %g, want 50", res.EncodeStart)
	}
	if res.EncodeEnd <= 50 {
		t.Errorf("EncodeEnd = %g, want > 50", res.EncodeEnd)
	}
	// Completion series is relative to encode start.
	if res.StripeCompletions.Points[0].T < 0 {
		t.Error("completion timestamps should be relative to encode start")
	}
}

func TestEncoderSpillAblation(t *testing.T) {
	// Forcing EAR's encode tasks off the core rack (spill = 1) must
	// reintroduce cross-rack downloads.
	p := smallEncodeParams(PolicyEAR, 5)
	p.EncoderSpillProb = 1.0
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossRackDownloads == 0 {
		t.Error("fully spilled EAR should incur cross-rack downloads")
	}
	strict, err := Run(smallEncodeParams(PolicyEAR, 5))
	if err != nil {
		t.Fatal(err)
	}
	if strict.EncodeThroughputMBps <= res.EncodeThroughputMBps {
		t.Errorf("strict core-rack scheduling (%.1f MB/s) should beat spilled (%.1f MB/s)",
			strict.EncodeThroughputMBps, res.EncodeThroughputMBps)
	}
}

func TestRRRelocationsObserved(t *testing.T) {
	// With few racks, RR stripes frequently violate rack-level fault
	// tolerance (Figure 3's regime observed end to end).
	p := smallEncodeParams(PolicyRR, 6)
	p.Racks = 7
	p.K = 6
	p.N = 7
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relocations == 0 {
		t.Error("RR with R=7, k=6 should frequently require relocation")
	}
}

func TestClusterDiskShaping(t *testing.T) {
	s := sim.New()
	top, err := topology.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(s, top, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableDisk(50); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableDisk(0); err == nil {
		t.Error("EnableDisk(0): expected error")
	}
	var local float64
	_ = s.Spawn("p", 0, func(p *sim.Proc) error {
		start := p.Now()
		if err := c.Transfer(p, 0, 0, 100); err != nil { // local, disk-shaped
			return err
		}
		local = p.Now() - start
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if local != 2.0 {
		t.Errorf("disk-shaped local transfer took %g s, want 2 (100 MB at 50 MB/s)", local)
	}
}

func TestRunWithDiskModel(t *testing.T) {
	p := smallEncodeParams(PolicyEAR, 12)
	p.NodesPerRack = 1
	p.Racks = 8
	p.Replicas = 2
	noDisk, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.DiskBandwidthMBps = 100
	withDisk, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Charging local reads must slow EAR's encoding (its downloads are
	// all local with one node per rack).
	if withDisk.EncodeEnd <= noDisk.EncodeEnd {
		t.Errorf("disk model did not slow encoding: %g <= %g", withDisk.EncodeEnd, noDisk.EncodeEnd)
	}
}
