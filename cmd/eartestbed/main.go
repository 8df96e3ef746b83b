// Command eartestbed runs the paper's testbed experiments (Section V-A) on
// the mini-HDFS cluster with a bandwidth-shaped fabric: A.1 measures raw
// encoding throughput across codes and under injected cross traffic
// (Figure 8), A.2 measures the impact of encoding on concurrent writes
// (Figure 9), and A.3 replays a SWIM-style MapReduce workload (Figure 10).
//
// The testbed is scaled: 256 KiB blocks and proportionally scaled links
// stand in for the paper's 64 MB blocks on 1 Gb/s Ethernet, so shapes and
// ratios are preserved while runs finish in seconds.
//
// Usage:
//
//	eartestbed -exp a1 -stripes 24
//	eartestbed -exp a1udp
//	eartestbed -exp a2
//	eartestbed -exp a3 -jobs 50
//	eartestbed -exp encodewindow
//
// The "encodewindow" experiment measures how much the pipelined distributed
// encode shrinks the encode window — the wall-clock span during which
// stripes sit between replication and full parity protection — under
// injected background traffic: the paper's gather baseline, then the chain.
//
// The "nodefail" experiment is the node-failure recovery smoke: it encodes
// stripes on a multi-node-rack EAR cluster, kills the node holding the most
// stripe members, and runs the parallel recovery driver with the
// invariant auditor and the transition progress tracker attached — the run
// fails unless every lost member is repaired, no metadata references the
// dead node, the auditor ends with no ongoing violations, and the
// durability-exposure ledger closes to zero:
//
//	eartestbed -exp nodefail -stripes 6
//
// The "transition" experiment drives a full replication-to-erasure-coding
// transition under both policies with the whole observability plane
// attached: the progress tracker must reach 100% encoded with no residual
// at-risk blocks, its durability-exposure windows must agree with the
// invariant auditor, and per-tenant byte attribution (writes are spread
// across -tenant-count tenants) must reproduce the fabric's byte totals:
//
//	eartestbed -exp transition -tenant-count 3
//
// With -progress, every cluster any experiment builds gets a transition
// progress tracker and the final reports (encode backlog, ETA, durability
// exposure windows) are written as JSON; with -tenants, every cluster's
// per-tenant accounting snapshot is written as JSON:
//
//	eartestbed -exp a1 -audit -progress progress.json -tenants tenants.json
//
// With -trace, the encode jobs' span timeline is written as Chrome trace
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev (the buffer
// is also flushed on SIGINT/SIGTERM, so an interrupted run still yields a
// trace). With -require-trace N, the run exits nonzero unless the span
// buffer holds at least N traces that cross a component boundary (client,
// namenode, datanode, raidnode) — the CI assertion that trace propagation
// stays wired end to end. With -audit, every cluster the experiment builds
// gets an event journal plus an invariant auditor, and the run exits
// nonzero if any placement invariant was violated. With -timeline,
// per-link fabric utilization is sampled and written as JSON; with
// -health, every cluster runs the slow-node health monitor and the final
// per-node scores are written as JSON:
//
//	eartestbed -exp a1 -trace out.json -require-trace 1
//	eartestbed -exp a1 -audit -timeline timeline.json -health health.json
//
// The "crash" experiment is the durable-metadata-plane scenario and runs in
// two invocations sharing -meta-dir: the first populates an EAR cluster,
// starts encoding, and SIGKILLs its own process the moment the first stripe
// reports encoded (so the run dies mid-transition with exit code 137); the
// second recovers the metadata plane from the write-ahead log, audits the
// recovered layout, requeues the interrupted encodings, and serves fresh
// writes:
//
//	eartestbed -exp crash -crash-phase run -meta-dir /tmp/earmeta   # exits 137
//	eartestbed -exp crash -crash-phase recover -meta-dir /tmp/earmeta
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ear/internal/experiments"
	"ear/internal/planes"
	"ear/internal/stats"
	"ear/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eartestbed:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "a1", `experiment: "a1", "a1udp", "a2", "a3", "encodewindow", "transition", "recovery", "nodefail", or "crash"`)
		stripes    = flag.Int("stripes", 24, "stripes per encoding run (paper: 96)")
		jobs       = flag.Int("jobs", 50, "SWIM jobs in A.3")
		rate       = flag.Float64("writerate", 4, "A.2 write arrival rate (req/s)")
		lead       = flag.Duration("lead", 2*time.Second, "A.2 write lead time before encoding")
		series     = flag.Bool("series", false, "print the A.2 write-response series")
		seed       = flag.Int64("seed", 1, "random seed")
		traceOut   = flag.String("trace", "", "write the encode-path span timeline to this file as Chrome trace JSON")
		traceMin   = flag.Int("require-trace", 0, "exit nonzero unless at least N traces cross a component boundary")
		auditRun   = flag.Bool("audit", false, "run the invariant auditor over every cluster; exit nonzero on any violation")
		auditOut   = flag.String("audit-out", "", "also write the audit reports to this file as JSON (implies -audit)")
		timeline   = flag.String("timeline", "", "write the per-link fabric utilization timeline to this file as JSON")
		healthMon  = flag.String("health", "", "run the health monitor on every cluster and write final per-node scores to this file as JSON")
		progOut    = flag.String("progress", "", "run the transition progress tracker on every cluster and write final reports (backlog, ETA, durability exposure) to this file as JSON")
		tenantsOut = flag.String("tenants", "", "write every cluster's per-tenant resource accounting snapshot to this file as JSON")
		tenantN    = flag.Int("tenant-count", 3, "distinct tenants the transition experiment spreads its writes across")
		metaDir    = flag.String("meta-dir", "", "durable metadata-plane directory (required by -exp crash)")
		crashPhase = flag.String("crash-phase", "run", `crash experiment phase: "run" (dies by SIGKILL) or "recover"`)
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()
	if *auditOut != "" {
		*auditRun = true
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", *logLevel)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	var tracer *telemetry.Tracer
	if *traceOut != "" || *traceMin > 0 {
		tracer = telemetry.NewTracer()
	}
	base := experiments.TestbedOptions{Stripes: *stripes, Seed: *seed, Tracer: tracer}

	// dumps are the per-cluster report files and the plane each one needs.
	dumps := []struct {
		path  string
		plane planes.Which
		what  string
	}{
		{*healthMon, planes.Health, "health"},
		{*progOut, planes.Progress, "progress"},
		{*tenantsOut, planes.Tenants, "tenants"},
		{*auditOut, planes.Audit, "audit"},
	}
	obs := &clusterObserver{start: time.Now()}
	for _, d := range dumps {
		if d.path != "" {
			obs.which |= d.plane
		}
	}
	if *auditRun {
		obs.which |= planes.Audit
	}
	if *timeline != "" {
		obs.which |= planes.Timeline
	}
	if obs.which != 0 {
		base.ClusterHook = obs.hook
	}

	// flushTrace writes the span buffer exactly once; it runs on the normal
	// exit path and from the signal handler, so an interrupted run (SIGINT /
	// SIGTERM mid-experiment) still yields a loadable trace file.
	var traceOnce sync.Once
	flushTrace := func() {
		if *traceOut == "" {
			return
		}
		traceOnce.Do(func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				slog.Error("trace create failed", "err", err)
				return
			}
			if err := tracer.WriteChromeTrace(f); err != nil {
				slog.Error("trace write failed", "err", err)
				f.Close()
				return
			}
			if err := f.Close(); err != nil {
				slog.Error("trace close failed", "err", err)
				return
			}
			slog.Info("trace written", "path", *traceOut, "spans", len(tracer.Spans()))
		})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		slog.Warn("interrupted, flushing trace buffer", "signal", s)
		flushTrace()
		os.Exit(1)
	}()

	slog.Info("running experiment", "exp", *exp, "stripes", *stripes, "seed", *seed)
	start := time.Now()
	switch *exp {
	case "a1":
		t, err := experiments.RunA1(base)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "a1udp":
		t, err := experiments.RunA1UDP(base)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "a2":
		res, err := experiments.RunA2(experiments.A2Options{
			TestbedOptions: base,
			WriteRate:      *rate,
			LeadTime:       *lead,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
		if *series {
			for _, s := range []*stats.Series{res.RRSeries, res.EARSeries} {
				// The paper plots the mean of three consecutive writes.
				smoothed, err := s.Smooth(3)
				if err != nil {
					return err
				}
				fmt.Printf("-- %s write responses (t, seconds) --\n", s.Name)
				for _, p := range smoothed.Points {
					fmt.Printf("%.2f\t%.3f\n", p.T, p.V)
				}
			}
		}
	case "a3":
		res, err := experiments.RunA3(experiments.A3Options{TestbedOptions: base, Jobs: *jobs})
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
	case "encodewindow":
		res, err := experiments.RunEncodeWindow(base)
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
	case "transition":
		res, err := experiments.RunTransition(experiments.TransitionOptions{
			TestbedOptions: base,
			Tenants:        *tenantN,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
	case "recovery":
		t, err := experiments.RunRecovery(experiments.RecoveryOptions{Stripes: *stripes / 3, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "nodefail":
		res, err := experiments.RunNodeFail(base)
		if err != nil {
			return err
		}
		fmt.Println(res.Summary)
	case "crash":
		copts := experiments.CrashOptions{TestbedOptions: base, MetaDir: *metaDir}
		switch *crashPhase {
		case "run":
			err := experiments.RunCrashRun(copts, func() error {
				slog.Info("first stripe encoded; killing the process mid-transition")
				return syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			})
			if err != nil {
				return err
			}
			// A returned SIGKILL means the signal was not delivered.
			return fmt.Errorf("crash run phase survived its own SIGKILL")
		case "recover":
			rep, err := experiments.RunCrashRecover(copts)
			if err != nil {
				return err
			}
			fmt.Println(rep)
		default:
			return fmt.Errorf("unknown -crash-phase %q (want run or recover)", *crashPhase)
		}
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	slog.Debug("experiment finished", "elapsed", time.Since(start))
	signal.Stop(sig)
	close(sig)
	flushTrace()

	if *traceMin > 0 {
		got := telemetry.MultiComponentTraces(tracer.Spans())
		if got < *traceMin {
			return fmt.Errorf("trace check: %d multi-component trace(s), want >= %d — trace propagation is broken somewhere between client, namenode, datanode and raidnode", got, *traceMin)
		}
		slog.Info("trace check passed", "multi_component_traces", got, "required", *traceMin)
	}
	obs.stop()
	if *timeline != "" {
		tl := obs.mergedTimeline()
		if err := writeJSONFile(*timeline, tl); err != nil {
			return fmt.Errorf("timeline write: %w", err)
		}
		slog.Info("timeline written", "path", *timeline, "links", len(tl.Links))
	}
	for _, d := range dumps {
		if d.path == "" {
			continue
		}
		if err := obs.dump(d.path, d.plane); err != nil {
			return fmt.Errorf("%s write: %w", d.what, err)
		}
		slog.Info(d.what+" report written", "path", d.path)
	}
	if *auditRun {
		return obs.auditReport()
	}
	return nil
}
