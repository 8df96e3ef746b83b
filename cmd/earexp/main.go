// Command earexp runs the paper's evaluation (Section V) and the cluster's
// reliability scenarios from one table of experiments, the catalog below.
// -exp takes a comma-separated list of names, or "all" (the default): fig3
// through c2, the source of EXPERIMENTS.md. A flag left at 0 takes the
// experiment's own default; -quick a reduced scale, which a set flag beats.
// Every cluster an experiment builds gets the planes the observation flags
// (-audit, -progress, -health, -tenants, -timeline, -trace) name; with
// -bundle a failed run writes every cluster's planes, metrics and last
// events to one file.
//
//	earexp -quick
//	earexp -exp b2 -vary k -runs 30
//	earexp -exp a1 -stripes 8 -audit -trace trace.json -require-trace 1
//	earexp -exp crash -crash-phase run -meta-dir /tmp/earmeta    # exits 137
//	earexp -exp crash -crash-phase recover -meta-dir /tmp/earmeta
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"time"

	exp "ear/internal/experiments"
	"ear/internal/planes"
	"ear/internal/stats"
	"ear/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "earexp:", err)
		os.Exit(1)
	}
}

// env is what an experiment reads from the command line.
type env struct {
	out                       io.Writer
	quick, series             bool
	stripes, runs, mc         int
	vary, metaDir, crashPhase string
	tb                        exp.TestbedOptions // seed, stripes and observers of every cluster
}

// pick is a flag's value: the command line's, else -quick's, else 0 (default).
func (e *env) pick(v, quick int) int {
	if v == 0 && e.quick {
		return quick
	}
	return v
}

// print prints t unless err is set, and returns err.
func (e *env) print(t fmt.Stringer, err error) error {
	if err == nil {
		fmt.Fprintln(e.out, t)
	}
	return err
}

// printSeries prints one curve, a point a line, under -series.
func (e *env) printSeries(title, format string, s *stats.Series) {
	if !e.series {
		return
	}
	fmt.Fprintf(e.out, "-- %s --\n", title)
	for _, p := range s.Points {
		fmt.Fprintf(e.out, format, p.T, p.V)
	}
}

// experiment is one entry of the catalog: its -exp name, its progress label
// (empty: it labels its own steps), and whether -exp all runs it.
type experiment struct {
	name, label string
	paper       bool
	run         func(e *env) error
}

var b2Factors = []exp.B2Factor{exp.B2VaryK, exp.B2VaryM, exp.B2VaryBandwidth, exp.B2VaryWriteRate, exp.B2VaryRackFT, exp.B2VaryReplicas}

var catalog = []experiment{
	{"fig3", "figure 3", true, func(e *env) error {
		return e.print(exp.RunFig3(exp.Fig3Options{MonteCarloStripes: e.mc, Seed: e.tb.Seed}))
	}},
	{"theorem1", "theorem 1", true, func(e *env) error {
		return e.print(exp.RunTheorem1(exp.Theorem1Options{Stripes: e.pick(e.stripes, 120), Seed: e.tb.Seed}))
	}},
	{"a1", "experiment A.1 (fig 8a)", true, func(e *env) error { return e.print(exp.RunA1(e.tb)) }},
	{"a1udp", "experiment A.1 UDP (fig 8b)", true, func(e *env) error { return e.print(exp.RunA1UDP(e.tb)) }},
	{"a2", "experiment A.2 (fig 9)", true, func(e *env) error {
		res, err := exp.RunA2(exp.A2Options{TestbedOptions: e.tb})
		if err != nil {
			return err
		}
		fmt.Fprintln(e.out, res.Summary)
		for _, s := range []*stats.Series{res.RRSeries, res.EARSeries} {
			smoothed, _ := s.Smooth(3) // the paper plots the mean of three writes
			e.printSeries(s.Name+" write responses (t, seconds)", "%.2f\t%.3f\n", smoothed)
		}
		return nil
	}},
	{"a3", "experiment A.3 (fig 10)", true, func(e *env) error {
		res, err := exp.RunA3(exp.A3Options{TestbedOptions: e.tb, Jobs: e.pick(0, 12)})
		if err == nil {
			fmt.Fprintln(e.out, res.Summary)
		}
		return err
	}},
	{"b1", "experiment B.1 (fig 12 + table I)", true, func(e *env) error {
		res, err := exp.RunB1(exp.B1Options{Stripes: e.pick(e.stripes, 24), LeadTime: float64(e.pick(0, 60)), Seed: e.tb.Seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "%v\n%v\n", res.Progress, res.TableI)
		for _, policy := range []string{"rr", "ear"} {
			e.printSeries(policy+" encoded-stripes series (t, count)", "%.2f\t%.0f\n", res.Series[policy])
		}
		return nil
	}},
	{"b2", "", true, func(e *env) error {
		factors := b2Factors
		if e.vary != "" {
			factors = []exp.B2Factor{exp.B2Factor(e.vary)}
		}
		for _, f := range factors {
			opts := exp.B2Options{Factor: f, Runs: e.pick(e.runs, 3), Scale: e.pick(0, 4), Seed: e.tb.Seed}
			err := step(fmt.Sprintf("experiment B.2 (fig 13 %s)", f), func() error {
				res, err := exp.RunB2(opts)
				if err == nil {
					fmt.Fprintf(e.out, "%v\n%v\n", res.Encode, res.Write)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}},
	{"recovery", "recovery trade-off (sec III-D)", true, func(e *env) error {
		return e.print(exp.RunRecovery(exp.RecoveryOptions{Stripes: e.pick(e.stripes, 3), Seed: e.tb.Seed}))
	}},
	{"c1", "experiment C.1 (fig 14)", true, func(e *env) error {
		return e.print(exp.RunC1(exp.LoadBalanceOptions{Runs: e.pick(e.runs, 5), Seed: e.tb.Seed}))
	}},
	{"c2", "experiment C.2 (fig 15)", true, func(e *env) error {
		return e.print(exp.RunC2(exp.LoadBalanceOptions{Runs: e.pick(e.runs, 5), Seed: e.tb.Seed}))
	}},
	{"encodewindow", "encode window, chain vs gather", false, func(e *env) error {
		res, err := exp.RunEncodeWindow(e.tb)
		if err == nil {
			fmt.Fprintln(e.out, res.Summary)
		}
		return err
	}},
	{"transition", "transition with progress, audit and tenants", false, func(e *env) error {
		res, err := exp.RunTransition(exp.TransitionOptions{TestbedOptions: e.tb})
		if err != nil {
			return err
		}
		fmt.Fprintln(e.out, res.Summary)
		for _, run := range res.Runs {
			fmt.Fprintf(e.out, "-- %s per-tenant bytes (fabric: %d cross-rack, %d intra-rack) --\n",
				run.Policy, run.FabricCrossBytes, run.FabricIntraBytes)
			for _, ts := range run.Tenants {
				fmt.Fprintf(e.out, "%-12s cross=%-12d intra=%-12d", ts.Tenant, ts.CrossRackBytes, ts.IntraRackBytes)
				for _, op := range ts.Ops {
					fmt.Fprintf(e.out, " %s=%d/%dB", op.Op, op.Count, op.Bytes)
				}
				fmt.Fprintln(e.out)
			}
		}
		return nil
	}},
	{"nodefail", "node failure and chain recovery", false, func(e *env) error {
		res, err := exp.RunNodeFail(e.tb)
		if err == nil {
			fmt.Fprintln(e.out, res.Summary)
		}
		return err
	}},
	{"traffic", "per-phase traffic breakdown", false, func(e *env) error {
		for _, arm := range []exp.EncodeArm{exp.Gather, exp.Chain} {
			for _, policy := range []string{"rr", "ear"} {
				res, err := exp.RunTraffic(e.tb, policy, 9, 6, arm)
				if err != nil {
					return err
				}
				fmt.Fprintln(e.out, res.Summary)
			}
		}
		return nil
	}},
	{"crash", "crash mid-encode", false, func(e *env) error {
		opts := exp.CrashOptions{TestbedOptions: e.tb, MetaDir: e.metaDir}
		if e.crashPhase == "recover" {
			return e.print(exp.RunCrashRecover(opts))
		}
		err := exp.RunCrashRun(opts, func() error {
			slog.Info("first stripe encoded; killing the process mid-transition")
			// Process.Kill is SIGKILL on Unix, so the shell sees exit 137.
			self, err := os.FindProcess(os.Getpid())
			if err != nil {
				return err
			}
			return self.Kill()
		})
		if err == nil { // a kill that returns was not delivered
			err = errors.New("crash run phase survived its own SIGKILL")
		}
		return err
	}},
}

// step runs one labelled piece of the run between two progress lines.
func step(label string, fn func() error) error {
	if label == "" {
		return fn()
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "[earexp] running %s...\n", label)
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Fprintf(os.Stderr, "[earexp] %s done in %v\n", label, time.Since(start).Round(time.Millisecond))
	return nil
}

// oneOf fails unless v is one of valid, and names them.
func oneOf[T ~string](name string, v T, valid ...T) error {
	if slices.Contains(valid, v) {
		return nil
	}
	return fmt.Errorf("unknown %s %q (want one of %v)", name, v, valid)
}

// choose resolves -exp against the catalog.
func choose(list string) (sel []experiment, err error) {
	names := []string{"all"}
	for _, x := range catalog {
		names = append(names, x.name)
	}
	for _, name := range strings.Split(list, ",") {
		err = errors.Join(err, oneOf("-exp", name, names...))
		for _, x := range catalog {
			if x.name == name || name == "all" && x.paper {
				sel = append(sel, x)
			}
		}
	}
	return sel, err
}

// report is a file the run writes and the plane it needs on every cluster.
type report struct {
	plane planes.Which
	path  *string
}

// writeTrace writes the span buffer to path as Chrome trace JSON.
func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(tr.WriteChromeTrace(f), f.Close())
}

func run(args []string, stdout io.Writer) error {
	e := &env{out: stdout}
	fs := flag.NewFlagSet("earexp", flag.ContinueOnError)
	list := fs.String("exp", "all", `comma-separated experiments, or "all"`)
	fs.Int64Var(&e.tb.Seed, "seed", 1, "random seed")
	fs.BoolVar(&e.quick, "quick", false, "reduced scale; a flag set on the command line beats it")
	fs.IntVar(&e.stripes, "stripes", 0, "stripes: theorem1, b1, recovery and every testbed experiment (0: its default)")
	fs.IntVar(&e.runs, "runs", 0, "seeded runs per configuration: b2, c1, c2 (0: its default)")
	fs.IntVar(&e.mc, "mc", 400, "Monte-Carlo stripes per Figure 3 cell (0: analytic only)")
	fs.StringVar(&e.vary, "vary", "", "b2's factor: k, m, bw, writerate, rackft or replicas (empty: all six)")
	fs.BoolVar(&e.series, "series", false, "also print a2's write-response and b1's encoded-stripes series")
	traceOut := fs.String("trace", "", "write the span timeline to this file as Chrome trace JSON")
	traceMin := fs.Int("require-trace", 0, "exit nonzero unless at least N traces cross a component boundary")
	auditRun := fs.Bool("audit", false, "run the invariant auditor over every cluster; exit nonzero on any violation")
	// reports are the files the run writes, each with the plane it needs
	// on every cluster (the trace needs none).
	reports := []report{
		{0, traceOut},
		{planes.Audit, fs.String("audit-out", "", "also write the audit reports to this file as JSON (implies -audit)")},
		{planes.Health, fs.String("health", "", "run the health monitor on every cluster; write final per-node scores to this file as JSON")},
		{planes.Progress, fs.String("progress", "", "run the progress tracker on every cluster; write final reports (backlog, ETA, exposure) to this file as JSON")},
		{planes.Tenants, fs.String("tenants", "", "write every cluster's per-tenant accounting snapshot to this file as JSON")},
		{planes.Timeline, fs.String("timeline", "", "write the per-link fabric utilization timeline to this file as JSON")},
	}
	bundleOut := fs.String("bundle", "", "if the run fails, write every cluster's bundle (each attached plane's report, the metrics and the journal's last 1000 events) to this file as JSON")
	fs.StringVar(&e.metaDir, "meta-dir", "", "durable metadata-plane directory (required by crash)")
	fs.StringVar(&e.crashPhase, "crash-phase", "run", `crash's phase: "run" (dies by SIGKILL) or "recover"`)
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mcSet := false
	fs.Visit(func(f *flag.Flag) { mcSet = mcSet || f.Name == "mc" })
	if e.quick && !mcSet {
		e.mc = 150
	}
	e.tb.Stripes = e.pick(e.stripes, 6)
	sel, err := choose(*list)
	var lvl slog.Level
	err = errors.Join(err, oneOf("-crash-phase", e.crashPhase, "run", "recover"), lvl.UnmarshalText([]byte(*logLevel)))
	if e.vary != "" {
		err = errors.Join(err, oneOf("-vary", exp.B2Factor(e.vary), b2Factors...))
	}
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	obs := &clusterObserver{start: time.Now()}
	if *auditRun {
		obs.which = planes.Audit
	}
	for _, r := range reports {
		if *r.path != "" {
			obs.which |= r.plane
		}
	}
	if obs.which != 0 || *bundleOut != "" {
		e.tb.ClusterHook = obs.hook
	}
	if *traceOut != "" || *traceMin > 0 {
		e.tb.Tracer = telemetry.NewTracer()
	}

	err = observed(e, sel, obs, reports, *traceMin)
	if err != nil && *bundleOut != "" {
		obs.stop()
		err = errors.Join(err, obs.dump(*bundleOut, func(s *planes.Set) any { return s.Bundle() }))
	}
	return err
}

// observed runs the selected experiments, writes the reports and applies the
// trace and audit checks.
func observed(e *env, sel []experiment, obs *clusterObserver, reports []report, traceMin int) error {
	for _, x := range sel {
		if err := step(x.label, func() error { return x.run(e) }); err != nil {
			return err
		}
	}
	obs.stop()
	for _, r := range reports {
		var err error
		switch {
		case *r.path == "":
		case r.plane == 0:
			err = writeTrace(*r.path, e.tb.Tracer)
		case r.plane == planes.Timeline:
			err = writeJSONFile(*r.path, obs.mergedTimeline())
		default:
			err = obs.dump(*r.path, func(s *planes.Set) any { return s.Report(r.plane) })
		}
		if err != nil {
			return err
		}
	}
	if got := telemetry.MultiComponentTraces(e.tb.Tracer.Spans()); got < traceMin {
		return fmt.Errorf("trace check: %d multi-component trace(s), want >= %d — trace propagation is broken somewhere between client, namenode, datanode and raidnode", got, traceMin)
	}
	if obs.which&planes.Audit != 0 {
		return obs.auditReport()
	}
	return nil
}
