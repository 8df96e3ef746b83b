package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/planes"
)

// clusterObserver instruments every cluster an experiment builds (testbed
// experiments build one per policy or per code) with the planes the command
// line asked for: -audit the invariant auditor, -progress the transition
// tracker, -health the background health monitor, -timeline the fabric
// sampler (the per-cluster timelines are merged on the run's wall clock so
// the output reads as one experiment-wide series), -tenants the accounting
// snapshot; -bundle alone attaches none but keeps every cluster's set, so a
// failed run can dump its journal. An experiment that attaches planes of
// its own gets these.
type clusterObserver struct {
	start time.Time
	which planes.Which

	mu   sync.Mutex
	sets []*planes.Set
}

// hook is the TestbedOptions.ClusterHook: called once per cluster built.
func (o *clusterObserver) hook(c *hdfs.Cluster) {
	s := planes.Attach(c, o.which)
	o.mu.Lock()
	o.sets = append(o.sets, s)
	o.mu.Unlock()
}

// stop ends every cluster's background loops; reports stay readable.
func (o *clusterObserver) stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.sets {
		s.Stop()
	}
}

// auditReport prints one summary line per cluster and every violation, then
// applies the paper's reliability claim as the pass/fail bar: an EAR
// cluster must be clean outright — no violation, not even a transient one,
// because EAR's whole point is that the transition to erasure coding never
// opens a fault-tolerance window — while an RR baseline cluster must only
// *converge* (no violation still ongoing at the end of the run; the
// transient misplacement-then-relocation windows are RR's designed
// behavior and are reported, not failed). Any failure makes the process
// exit nonzero, which is what CI keys on.
func (o *clusterObserver) auditReport() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	failures := 0
	for _, s := range o.sets {
		r := s.Auditor.Report()
		fmt.Printf("audit %-16s events=%d blocks=%d stripes=%d encoded=%d ongoing=%d transient=%d clean=%v\n",
			s.Label, r.Events, r.Blocks, r.Stripes, r.Encoded,
			len(r.Ongoing), len(r.Transient), r.Clean)
		for _, v := range append(append([]audit.Violation(nil), r.Ongoing...), r.Transient...) {
			state := "ONGOING"
			if v.Transient() {
				state = "transient"
			}
			fmt.Printf("  %-9s %-22s stripe=%d block=%d seq=[%d..%d] resolved=%d %s\n",
				state, v.Invariant, v.Stripe, v.Block, v.OpenedSeq, v.LastSeq, v.ResolvedSeq, v.Detail)
		}
		switch {
		case s.Policy == "ear" && r.Total() > 0:
			failures += r.Total()
		case len(r.Ongoing) > 0:
			failures += len(r.Ongoing)
		}
	}
	if failures > 0 {
		return fmt.Errorf("audit: %d invariant violation(s)", failures)
	}
	return nil
}

// dump writes one report of every cluster's set to path.
func (o *clusterObserver) dump(path string, report func(*planes.Set) any) error {
	o.mu.Lock()
	out := make([]any, len(o.sets))
	for i, s := range o.sets {
		out[i] = report(s)
	}
	o.mu.Unlock()
	return writeJSONFile(path, out)
}

// mergedTimeline merges the per-cluster timelines onto the shared run clock.
func (o *clusterObserver) mergedTimeline() fabric.Timeline {
	o.mu.Lock()
	defer o.mu.Unlock()
	var tl fabric.Timeline
	for _, s := range o.sets {
		tl.Merge(s.Sampler.Timeline(), s.Attached.Sub(o.start).Seconds())
	}
	return tl
}

// writeJSONFile writes v to path as indented JSON.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
