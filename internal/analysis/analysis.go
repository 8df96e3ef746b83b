// Package analysis implements the paper's closed-form analyses and
// Monte-Carlo studies: Equation (1) for the probability that the
// preliminary EAR violates rack-level fault tolerance (Figure 3), the
// Theorem 1 bound on EAR's expected layout iterations, and the Section V-C
// load-balancing experiments (storage distribution, Figure 14, and the read
// hotness index H, Figure 15).
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ear/internal/placement"
	"ear/internal/topology"
)

// ErrInvalidArgs indicates out-of-range analysis parameters.
var ErrInvalidArgs = errors.New("analysis: invalid arguments")

// ViolationProbability evaluates Equation (1): the probability that a
// stripe placed by the preliminary EAR (first replicas in the core rack,
// second and third replicas in one random non-core rack per block) violates
// rack-level fault tolerance and requires relocation:
//
//	f = 1 - [ C(R-1, k)·k! + C(k, 2)·C(R-1, k-1)·(k-1)! ] / (R-1)^k
//
// The stripe survives only when the k remote racks are all distinct, or
// exactly two blocks share one rack (k-1 distinct racks).
func ViolationProbability(k, racks int) (float64, error) {
	if k < 1 || racks < 2 {
		return 0, fmt.Errorf("%w: k=%d racks=%d", ErrInvalidArgs, k, racks)
	}
	r1 := racks - 1
	// All terms in log space: the factorials overflow quickly otherwise.
	logDen := float64(k) * math.Log(float64(r1))
	var ok float64
	if r1 >= k {
		// C(R-1, k) * k! = (R-1)! / (R-1-k)! — falling factorial.
		ok += math.Exp(logFallingFactorial(r1, k) - logDen)
	}
	if k >= 2 && r1 >= k-1 {
		// C(k, 2) * C(R-1, k-1) * (k-1)!
		logTerm := math.Log(float64(k*(k-1)/2)) + logFallingFactorial(r1, k-1)
		ok += math.Exp(logTerm - logDen)
	}
	f := 1 - ok
	if f < 0 {
		f = 0
	}
	return f, nil
}

// logFallingFactorial returns log(n * (n-1) * ... * (n-k+1)).
func logFallingFactorial(n, k int) float64 {
	var s float64
	for i := 0; i < k; i++ {
		s += math.Log(float64(n - i))
	}
	return s
}

// Theorem1Bound returns the paper's bound on the expected number of layout
// iterations for the i-th block of a stripe (1-based):
//
//	E_i <= [ 1 - floor((i-1)/c) / (R-1) ]^-1
func Theorem1Bound(i, c, racks int) (float64, error) {
	if i < 1 || c < 1 || racks < 2 {
		return 0, fmt.Errorf("%w: i=%d c=%d racks=%d", ErrInvalidArgs, i, c, racks)
	}
	full := (i - 1) / c
	denom := 1 - float64(full)/float64(racks-1)
	if denom <= 0 {
		return math.Inf(1), nil
	}
	return 1 / denom, nil
}

// MonteCarloViolation estimates the rack-fault-tolerance violation
// probability of the preliminary EAR empirically: it places stripes with
// the flow check disabled and asks the post-encoding planner whether a
// valid deletion exists. The result should track Equation (1). The planner
// draws from an rng of its own, seeded by one draw from the caller's, so what
// it draws to place parity leaves the placements of later stripes alone.
func MonteCarloViolation(k, racks, nodesPerRack, stripes int, rng *rand.Rand) (float64, error) {
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return 0, err
	}
	cfg := placement.Config{
		Topology:    top,
		K:           k,
		N:           k + 1, // the (k+1, k) setting of Section III-A's analysis
		C:           1,
		Preliminary: true,
	}
	planRng := rand.New(rand.NewSource(rng.Int63()))
	pol, err := placement.NewEAR(cfg, rng)
	if err != nil {
		return 0, err
	}
	violations := 0
	checked := 0
	var block topology.BlockID
	for checked < stripes {
		if _, err := pol.Place(block); err != nil {
			return 0, err
		}
		block++
		for _, s := range pol.TakeSealed() {
			plan, err := placement.PlanPostEncoding(cfg, s, planRng)
			if err != nil {
				return 0, err
			}
			if plan.Violation {
				violations++
			}
			checked++
			if checked == stripes {
				break
			}
		}
	}
	return float64(violations) / float64(stripes), nil
}

// IterationStats measures EAR's empirical layout-iteration counts per block
// index over the given number of stripes, for comparison with Theorem 1.
// The returned slice has k entries; entry i is the mean iteration count for
// the (i+1)-th block of a stripe.
func IterationStats(n, k, c, racks, nodesPerRack, stripes int, rng *rand.Rand) ([]float64, error) {
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return nil, err
	}
	cfg := placement.Config{Topology: top, K: k, N: n, C: c}
	pol, err := placement.NewEAR(cfg, rng)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	done := 0
	var block topology.BlockID
	for done < stripes {
		if _, err := pol.Place(block); err != nil {
			return nil, err
		}
		block++
		for _, s := range pol.TakeSealed() {
			for i, it := range s.Iterations {
				sums[i] += float64(it)
				counts[i]++
			}
			done++
			if done == stripes {
				break
			}
		}
	}
	means := make([]float64, k)
	for i := range means {
		if counts[i] > 0 {
			means[i] = sums[i] / counts[i]
		}
	}
	return means, nil
}

// StorageBalance runs the Figure 14 experiment: place the given number of
// blocks under a policy and return the per-rack share of replicas, sorted
// in descending order (fractions summing to 1).
func StorageBalance(pol placement.Policy, top *topology.Topology, blocks int) ([]float64, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("%w: %d blocks", ErrInvalidArgs, blocks)
	}
	counts := make([]float64, top.Racks())
	total := 0.0
	for b := 0; b < blocks; b++ {
		pl, err := pol.Place(topology.BlockID(b))
		if err != nil {
			return nil, err
		}
		for _, n := range pl.Nodes {
			r, err := top.RackOf(n)
			if err != nil {
				return nil, err
			}
			counts[r]++
			total++
		}
	}
	for i := range counts {
		counts[i] /= total
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	return counts, nil
}

// HotnessIndex runs the Figure 15 experiment for one file of the given size
// (in blocks): every block is equally likely to be read and a read goes to
// a uniformly chosen rack among those holding a replica, so rack i receives
// load L(i) = sum over blocks of 1/(racks holding the block) / fileSize.
// The hotness index is H = max_i L(i).
func HotnessIndex(pol placement.Policy, top *topology.Topology, fileSize int) (float64, error) {
	if fileSize <= 0 {
		return 0, fmt.Errorf("%w: file size %d", ErrInvalidArgs, fileSize)
	}
	load := make([]float64, top.Racks())
	for b := 0; b < fileSize; b++ {
		pl, err := pol.Place(topology.BlockID(b))
		if err != nil {
			return 0, err
		}
		set, err := pl.RackSet(top)
		if err != nil {
			return 0, err
		}
		share := 1.0 / float64(len(set)) / float64(fileSize)
		for r := range set {
			load[r] += share
		}
	}
	max := 0.0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max, nil
}
