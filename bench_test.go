// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md. Each
// benchmark drives the same code path as the corresponding cmd/ tool at a
// reduced scale and reports the headline quantity as a custom metric.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package ear_test

import (
	"math/rand"
	"testing"
	"time"

	"ear"
	"ear/internal/analysis"
	"ear/internal/experiments"
	"ear/internal/placement"
	"ear/internal/simcfs"
	"ear/internal/topology"
)

// --- Core micro-benchmarks -------------------------------------------------

func benchPolicy(b *testing.B, name string) {
	top, err := topology.New(20, 20)
	if err != nil {
		b.Fatal(err)
	}
	cfg := placement.Config{Topology: top, K: 10, N: 14}
	rng := rand.New(rand.NewSource(1))
	var pol placement.Policy
	switch name {
	case "rr":
		pol, err = placement.NewRandom(cfg, rng)
	case "ear":
		pol, err = placement.NewEAR(cfg, rng)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Place(topology.BlockID(i)); err != nil {
			b.Fatal(err)
		}
		pol.TakeSealed()
	}
}

// BenchmarkPlacementRR measures the baseline placement cost per block.
func BenchmarkPlacementRR(b *testing.B) { benchPolicy(b, "rr") }

// BenchmarkPlacementEAR measures EAR's placement cost per block, including
// the max-flow admission check.
func BenchmarkPlacementEAR(b *testing.B) { benchPolicy(b, "ear") }

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkAblationCoreRackFlag quantifies the strict core-rack scheduling
// flag (Section IV's third modification): with the flag off, EAR's encode
// maps spill to arbitrary nodes and cross-rack downloads return.
func BenchmarkAblationCoreRackFlag(b *testing.B) {
	for _, mode := range []struct {
		name  string
		spill float64
	}{{"strict", 0}, {"spilled", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			var thpt float64
			for i := 0; i < b.N; i++ {
				res, err := simcfs.Run(simcfs.Params{
					Policy:            simcfs.PolicyEAR,
					Racks:             8,
					NodesPerRack:      4,
					K:                 4,
					N:                 6,
					EncodeProcesses:   4,
					StripesPerProcess: 3,
					EncoderSpillProb:  mode.spill,
					Seed:              int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				thpt += res.EncodeThroughputMBps
			}
			b.ReportMetric(thpt/float64(b.N), "MB/s")
		})
	}
}

// BenchmarkAblationTargetRacks measures Section III-D's packing knob. The
// encode-path cross-rack traffic falls with c (min(n-k, c) parity blocks of
// a stripe stay in its core rack); the other benefit of c > 1 appears in
// recovery traffic, which RunRecovery measures, at the price of rack fault
// tolerance.
func BenchmarkAblationTargetRacks(b *testing.B) {
	for _, mode := range []struct {
		name       string
		c, targets int
	}{{"c1-spread", 1, 0}, {"c2-7racks", 2, 7}, {"c4-4racks", 4, 4}} {
		b.Run(mode.name, func(b *testing.B) {
			var cross float64
			for i := 0; i < b.N; i++ {
				res, err := simcfs.Run(simcfs.Params{
					Policy:            simcfs.PolicyEAR,
					C:                 mode.c,
					TargetRacks:       mode.targets,
					EncodeProcesses:   4,
					StripesPerProcess: 2,
					Seed:              int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				cross += res.CrossRackMB
			}
			b.ReportMetric(cross/float64(b.N), "crossMB")
		})
	}
}

// BenchmarkAblationDeletionStrategy compares the matching-based replica
// deletion against HDFS's naive keep-first deletion under RR: the matching
// repairs many layouts the naive strategy would have to relocate.
func BenchmarkAblationDeletionStrategy(b *testing.B) {
	top, err := topology.New(12, 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := placement.Config{Topology: top, K: 8, N: 10, C: 1}
	rng := rand.New(rand.NewSource(3))
	pol, err := placement.NewRandom(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	var naiveViolations, matchedViolations, stripes float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placements := make([]topology.Placement, cfg.K)
		blocks := make([]topology.BlockID, cfg.K)
		for j := range placements {
			pl, err := pol.Place(topology.BlockID(i*cfg.K + j))
			if err != nil {
				b.Fatal(err)
			}
			placements[j] = pl
			blocks[j] = pl.Block
		}
		info := &placement.StripeInfo{ID: topology.StripeID(i), CoreRack: -1, Blocks: blocks, Placements: placements}
		plan, err := placement.PlanPostEncoding(cfg, info, rng)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Violation {
			matchedViolations++
		}
		// Naive deletion: keep the first replica of every block.
		naive := topology.StripeLayout{Stripe: info.ID}
		for _, pl := range placements {
			naive.Data = append(naive.Data, pl.Nodes[0])
		}
		naive.Parity = plan.Parity
		if naive.Validate(top, cfg.C) != nil {
			naiveViolations++
		}
		stripes++
	}
	b.ReportMetric(matchedViolations/stripes*100, "matched-viol%")
	b.ReportMetric(naiveViolations/stripes*100, "naive-viol%")
}

// --- Per-figure experiment benchmarks ---------------------------------------

// fastTestbed matches the experiments package's quick scale.
func fastTestbed() experiments.TestbedOptions {
	return experiments.TestbedOptions{
		Stripes:              4,
		BlockSizeBytes:       64 << 10,
		BandwidthBytesPerSec: 16 << 20,
		Seed:                 1,
	}
}

// BenchmarkFig3ViolationProbability regenerates Figure 3's analytic grid.
func BenchmarkFig3ViolationProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(experiments.Fig3Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1Iterations regenerates the Theorem 1 comparison.
func BenchmarkTheorem1Iterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		means, err := analysis.IterationStats(14, 10, 1, 20, 20, 100, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(means[len(means)-1], "iters@k")
	}
}

// BenchmarkExpA1EncodingThroughput regenerates Figure 8(a) on the scaled
// mini-HDFS testbed.
func BenchmarkExpA1EncodingThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1(fastTestbed()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpA1UDP regenerates Figure 8(b) (injected cross traffic).
func BenchmarkExpA1UDP(b *testing.B) {
	opts := fastTestbed()
	opts.Stripes = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1UDP(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpA2WriteDuringEncode regenerates Figure 9.
func BenchmarkExpA2WriteDuringEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunA2(experiments.A2Options{
			TestbedOptions: fastTestbed(),
			WriteRate:      10,
			LeadTime:       300 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpA3MapReduce regenerates Figure 10 (SWIM replay).
func BenchmarkExpA3MapReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunA3(experiments.A3Options{
			TestbedOptions:   fastTestbed(),
			Jobs:             6,
			MeanInterarrival: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpB1Validation regenerates Figure 12 and Table I.
func BenchmarkExpB1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunB1(experiments.B1Options{Stripes: 24, LeadTime: 60, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// benchB2 runs one Figure 13 panel at reduced scale and reports the median
// encode gain of its first swept value.
func benchB2(b *testing.B, factor experiments.B2Factor, value float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunB2(experiments.B2Options{
			Factor: factor,
			Runs:   2,
			Values: []float64{value},
			Scale:  4,
			Seed:   int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkExpB2VaryK regenerates Figure 13(a).
func BenchmarkExpB2VaryK(b *testing.B) { benchB2(b, experiments.B2VaryK, 10) }

// BenchmarkExpB2VaryM regenerates Figure 13(b).
func BenchmarkExpB2VaryM(b *testing.B) { benchB2(b, experiments.B2VaryM, 4) }

// BenchmarkExpB2VaryBandwidth regenerates Figure 13(c).
func BenchmarkExpB2VaryBandwidth(b *testing.B) { benchB2(b, experiments.B2VaryBandwidth, 1) }

// BenchmarkExpB2VaryWriteRate regenerates Figure 13(d).
func BenchmarkExpB2VaryWriteRate(b *testing.B) { benchB2(b, experiments.B2VaryWriteRate, 2) }

// BenchmarkExpB2VaryRackFT regenerates Figure 13(e).
func BenchmarkExpB2VaryRackFT(b *testing.B) { benchB2(b, experiments.B2VaryRackFT, 2) }

// BenchmarkExpB2VaryReplicas regenerates Figure 13(f).
func BenchmarkExpB2VaryReplicas(b *testing.B) { benchB2(b, experiments.B2VaryReplicas, 3) }

// BenchmarkExpC1StorageBalance regenerates Figure 14.
func BenchmarkExpC1StorageBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunC1(experiments.LoadBalanceOptions{Blocks: 2000, Runs: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpC2ReadBalance regenerates Figure 15.
func BenchmarkExpC2ReadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunC2(experiments.LoadBalanceOptions{
			FileSizes: []int{100, 1000},
			Runs:      2,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndEncode measures the full mini-HDFS encode pipeline (the
// quickstart path) per stripe.
func BenchmarkEndToEndEncode(b *testing.B) {
	cluster, err := ear.NewCluster(ear.ClusterConfig{
		Racks:                8,
		NodesPerRack:         4,
		Policy:               "ear",
		K:                    4,
		N:                    6,
		C:                    1,
		BlockSizeBytes:       32 << 10,
		BandwidthBytesPerSec: 1 << 30,
		Seed:                 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 32<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cluster.NameNode().PendingStripeCount() < 1 {
			rng.Read(payload)
			if _, err := cluster.WriteBlock(0, payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cluster.RaidNode().EncodeAll(); err != nil {
			b.Fatal(err)
		}
	}
}
