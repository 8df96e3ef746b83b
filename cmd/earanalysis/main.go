// Command earanalysis reproduces the paper's analytical and Monte-Carlo
// results: Figure 3 (Equation 1's rack-fault-tolerance violation
// probability of the preliminary EAR), Theorem 1 (expected layout
// iterations), and the Section V-C load-balancing experiments C.1 (storage,
// Figure 14) and C.2 (read hotness, Figure 15).
//
// With -traffic, it also runs one write -> encode -> delete -> repair
// lifecycle per placement policy on the scaled testbed — with the gather
// encode and again with the pipelined encode, repair always along the
// chain — and prints the cross-rack vs intra-rack byte breakdown of each
// phase, cross-checked against the fabric's own payload counters.
//
// With -tenants, it runs a tenant-tagged transition under both policies
// and cross-checks that the per-tenant byte attribution sums to the
// fabric's own cross-/intra-rack totals within 1%, printing the
// per-tenant breakdown.
//
// Usage:
//
//	earanalysis -fig3 -mc 500
//	earanalysis -theorem1 -stripes 1000
//	earanalysis -c1 -c2 -runs 50
//	earanalysis -traffic
//	earanalysis -tenants
package main

import (
	"flag"
	"fmt"
	"os"

	"ear/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "earanalysis:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig3     = flag.Bool("fig3", false, "reproduce Figure 3 (violation probability)")
		theorem1 = flag.Bool("theorem1", false, "reproduce the Theorem 1 iteration table")
		c1       = flag.Bool("c1", false, "reproduce Experiment C.1 (storage balance, Figure 14)")
		c2       = flag.Bool("c2", false, "reproduce Experiment C.2 (read hotness, Figure 15)")
		traffic  = flag.Bool("traffic", false, "per-phase cross-rack vs intra-rack traffic breakdown (RR and EAR)")
		tenants  = flag.Bool("tenants", false, "per-tenant accounting cross-check: run a tenant-tagged transition and verify per-tenant byte attribution sums to the fabric totals within 1%")
		all      = flag.Bool("all", false, "run every analysis")
		mc       = flag.Int("mc", 0, "Monte-Carlo stripes per Figure 3 cell (0 = analytic only)")
		stripes  = flag.Int("stripes", 500, "stripes measured for Theorem 1")
		blocks   = flag.Int("blocks", 10000, "blocks placed in C.1")
		runs     = flag.Int("runs", 20, "averaging runs for C.1 / C.2")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if !*fig3 && !*theorem1 && !*c1 && !*c2 && !*traffic && !*tenants {
		*all = true
	}
	if *all {
		*fig3, *theorem1, *c1, *c2, *traffic, *tenants = true, true, true, true, true, true
	}
	if *fig3 {
		t, err := experiments.RunFig3(experiments.Fig3Options{MonteCarloStripes: *mc, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if *theorem1 {
		t, err := experiments.RunTheorem1(experiments.Theorem1Options{Stripes: *stripes, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if *c1 {
		t, err := experiments.RunC1(experiments.LoadBalanceOptions{Blocks: *blocks, Runs: *runs, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if *c2 {
		t, err := experiments.RunC2(experiments.LoadBalanceOptions{Runs: *runs, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if *traffic {
		for _, arm := range []experiments.EncodeArm{experiments.Gather, experiments.Chain} {
			for _, policy := range []string{"rr", "ear"} {
				opts := experiments.TestbedOptions{Seed: *seed}
				res, err := experiments.RunTraffic(opts, policy, 9, 6, arm)
				if err != nil {
					return err
				}
				fmt.Println(res.Summary)
			}
		}
	}
	if *tenants {
		// RunTransition itself fails if any policy's per-tenant byte
		// attribution drifts more than 1% from the fabric's own counters,
		// so a clean table here is the cross-check passing.
		res, err := experiments.RunTransition(experiments.TransitionOptions{
			TestbedOptions: experiments.TestbedOptions{Stripes: 8, Seed: *seed},
		})
		if err != nil {
			return fmt.Errorf("tenant accounting cross-check: %w", err)
		}
		fmt.Println(res.Summary)
		for _, run := range res.Runs {
			fmt.Printf("-- %s per-tenant bytes (fabric: %d cross-rack, %d intra-rack) --\n",
				run.Policy, run.FabricCrossBytes, run.FabricIntraBytes)
			for _, ts := range run.Tenants {
				fmt.Printf("%-12s cross=%-12d intra=%-12d", ts.Tenant, ts.CrossRackBytes, ts.IntraRackBytes)
				for _, op := range ts.Ops {
					fmt.Printf(" %s=%d/%dB", op.Op, op.Count, op.Bytes)
				}
				fmt.Println()
			}
		}
	}
	return nil
}
