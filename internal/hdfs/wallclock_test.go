//go:build !race && !goexperiment.synctest

package hdfs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
)

// What a fake clock cannot see stays on the host's timers: the wall-clock
// heldTo of latency_test.go, one smoke a phase, and the tests that time the
// host itself. None of it is built under the race detector, which slows
// every wake-up.

// heldTo on the wall clock: the best median of up to five rounds of ops runs
// (the limit bounds what the engine can do, not what else the host was doing
// during one round) is logged beside the model as the phase's host tax, and
// must lie between the model, since the fabric never delivers early, and the
// limit.
func heldTo(t *testing.T, what string, ops int, model, limit time.Duration, op func()) {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 5 && best >= limit; round++ {
		runs := make([]time.Duration, ops)
		for i := range runs {
			runs[i] = took(op)
		}
		slices.Sort(runs)
		best = min(best, runs[ops/2])
	}
	if best <= model-time.Microsecond || best >= limit {
		t.Errorf("%s took %v, want within [%v, %v)", what, best, model, limit)
	}
	t.Logf("%s took %v on the wall, %v modelled: host tax x%.3f", what, best, model, float64(best)/float64(model))
}

// TestLifecycleHostTax logs what each phase of the lifecycle takes on the
// host's timers; TestLifecycleRepeats, run -v in a bubble, logs the virtual
// durations to set beside them.
func TestLifecycleHostTax(t *testing.T) {
	run := lifecycleOnBench(t)
	t.Logf("on the wall: 4k writes %v, k reads %v, encode %v (link bound %v), degraded read %v, recovery %v (link bound %v)",
		run.write, run.read, run.encode, run.encodeBound, run.degraded, run.recover, run.recoverBound)
}

// TestJournalOverheadOnEncode bounds the journal's cost on the encode path.
// The journal's cost is per event while encoding is per byte, so with
// realistic block sizes the journal must be noise: replaying the run's own
// event stream into a fresh journal + auditor measures the per-event cost,
// and that cost times the events the run published must stay under 3% of
// the run's wall time. It times CPU, which a fake clock does not see: in a
// bubble the replay takes 0 ns and the test would pass vacuously.
func TestJournalOverheadOnEncode(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 1 << 20 // realistic enough that encode time is per-byte work
	c := newCluster(t, cfg)
	j, _ := attachAuditor(c)
	rng := rand.New(rand.NewSource(61))
	writeBlocks(t, c, 4*cfg.K, rng)
	c.NameNode().FlushOpenStripes()
	seqBefore := j.Seq()
	t0 := time.Now()
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	encodeDur := time.Since(t0)
	published := j.Seq() - seqBefore
	if published == 0 {
		t.Fatal("encode published no events")
	}

	// Replay the actual event stream — not a synthetic one — into a fresh
	// journal and auditor, several rounds for timing resolution. Each round
	// gets its own auditor so its model walks the same transitions the live
	// run drove.
	stream := j.Snapshot()
	const rounds = 10
	var replay time.Duration
	for r := 0; r < rounds; r++ {
		probe := events.NewJournal(0)
		pa := audit.New(c.Topology(), audit.Config{
			Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true,
		})
		pa.Attach(probe)
		p0 := time.Now()
		for _, e := range stream {
			probe.Publish(e)
		}
		replay += time.Since(p0)
	}
	perPublish := replay / time.Duration(rounds*len(stream))

	overhead := perPublish * time.Duration(published)
	if limit := encodeDur * 3 / 100; overhead > limit {
		t.Errorf("journal overhead %v for %d events exceeds 3%% of encode time %v (per publish %v)",
			overhead, published, encodeDur, perPublish)
	}
	t.Logf("encode %v, %d events, per-publish %v, est overhead %.3f%%",
		encodeDur, published, perPublish,
		100*float64(overhead)/float64(encodeDur))
}
