// Command earfsd serves a mini-HDFS cluster over TCP: an in-process set of
// racks, DataNodes, a NameNode with the chosen placement policy (RR or
// EAR), a bandwidth-shaped network, and a RaidNode for background encoding.
// Drive it with the earfs client.
//
// Usage:
//
//	earfsd -listen :7070 -policy ear -racks 8 -nodes 4 -k 6 -n 9
//
// With -admin, earfsd also serves an HTTP observability endpoint:
// /metrics (JSON by default, Prometheus text exposition via ?format=prom
// or an Accept header preferring text/plain; the RaidNode's encode totals
// are its raidnode_* counters), /debug/vars (the Go runtime's expvars),
// /debug/pprof/*, /events (the structured event journal, cursor + filter,
// including ?trace= to follow one request), /audit (the invariant
// auditor's report), /timeline (per-link fabric utilization), /trace
// (Chrome-trace export of every request span; ?reset=1 drains the
// buffer), /slo (per-operation error budgets and burn rates), /health
// (per-node health scores from the slow-node detector), /progress (the
// replication-to-EC transition tracker: encode backlog, ETA and
// durability-exposure windows), /tenants (per-tenant resource
// accounting) and /debug/bundle (every plane's report, the metrics and the
// journal's last 1000 events in one JSON document).
// /timeline, /slo, /health, /progress and /tenants accept ?view=html for a
// self-contained chart:
//
//	earfsd -admin 127.0.0.1:7071
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ear/internal/hdfs"
	"ear/internal/netcfs"
	"ear/internal/planes"
	"ear/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "earfsd:", err)
		os.Exit(1)
	}
}

// parseLevel maps a -log-level value to a slog level.
func parseLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return lvl, nil
}

// adminMux builds the admin endpoint: metrics (Prometheus or JSON by
// content negotiation), the Go runtime's expvars, pprof, the eight views
// of the cluster's planes and tracer (/events, /audit, /timeline, /trace,
// /slo, /health, /progress, /tenants) and the planes' bundle.
func adminMux(reg *telemetry.Registry, obs *observability) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Content negotiation: JSON is the default; Prometheus 0.0.4 text
		// exposition when the client asks via ?format=prom or an Accept
		// header that prefers text/plain (what a Prometheus scraper sends).
		if r.URL.Query().Get("format") == "prom" ||
			strings.Contains(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := reg.WritePrometheus(w); err != nil {
				slog.Warn("metrics write failed", "err", err)
			}
			return
		}
		writeJSON(w, reg.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())

	mux.HandleFunc("/events", obs.handleEvents)
	mux.HandleFunc("/trace", obs.handleTrace)
	mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, obs.Auditor.Report()) })
	mux.HandleFunc("/timeline", view(timelinePage, func() any { return obs.Sampler.Timeline() }))
	mux.HandleFunc("/slo", view(sloPage, func() any { return obs.SLO.Report() }))
	mux.HandleFunc("/health", view(healthPage, func() any { return obs.HealthReport() }))
	mux.HandleFunc("/progress", view(progressPage, func() any { return obs.Tracker.Report() }))
	mux.HandleFunc("/tenants", view(tenantsPage, func() any { return obs.TenantReport() }))
	mux.HandleFunc("/debug/bundle", func(w http.ResponseWriter, _ *http.Request) {
		b := obs.Bundle()
		b.Metrics = reg.Snapshot()
		writeJSON(w, b)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "address to listen on")
		admin    = flag.String("admin", "", "admin HTTP address for /metrics, /debug/vars, /debug/pprof and the /events, /audit, /timeline, /trace, /slo, /health, /progress and /tenants views and /debug/bundle (empty = disabled)")
		policy   = flag.String("policy", "ear", `placement policy: "rr" or "ear"`)
		racks    = flag.Int("racks", 12, "racks")
		nodes    = flag.Int("nodes", 4, "nodes per rack")
		k        = flag.Int("k", 6, "data blocks per stripe")
		n        = flag.Int("n", 9, "stripe width (data + parity)")
		c        = flag.Int("c", 1, "max blocks of a stripe per rack after encoding")
		block    = flag.Int("block", 1<<20, "block size in bytes")
		bwMBps   = flag.Float64("bw", 64, "link bandwidth in MB/s")
		seed     = flag.Int64("seed", 1, "random seed")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		spanCap  = flag.Int("span-limit", 200000, "max retained trace spans (0 = unlimited)")
		metaDir  = flag.String("meta-dir", "", "durable metadata-plane directory: every NameNode mutation is write-ahead logged there and recovered on restart (empty = in-memory metadata)")
		metaSync = flag.String("meta-sync", "interval", `metadata log fsync policy: "interval", "always" or "none"`)
		metaSnap = flag.Int64("meta-snapshot-every", 100000, "checkpoint the metadata plane every N log appends, truncating the covered log (0 = never)")
	)
	flag.Parse()

	lvl, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	cluster, err := hdfs.NewCluster(hdfs.Config{
		Racks:                *racks,
		NodesPerRack:         *nodes,
		Policy:               *policy,
		K:                    *k,
		N:                    *n,
		C:                    *c,
		BlockSizeBytes:       *block,
		BandwidthBytesPerSec: *bwMBps * (1 << 20),
		Seed:                 *seed,
		MetaDir:              *metaDir,
		MetaSync:             *metaSync,
		MetaSnapshotEvery:    *metaSnap,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if *metaDir != "" {
		nn := cluster.NameNode()
		slog.Info("metadata plane recovered", "dir", *metaDir, "replayed_ops", nn.RecoveredOps(), "blocks", nn.BlockCount())
	}

	// One registry backs everything: cluster internals (client latency,
	// RaidNode counters, fabric bytes, MapReduce gauges) plus the RPC
	// server's per-op series, all visible on /metrics.
	reg := telemetry.NewRegistry()
	cluster.SetTelemetry(reg)

	// One tracer spans the whole request path: the RPC server adopts the
	// client's trace ID from the wire, the cluster's operation spans join
	// it, and the journal events below are stamped with it. The span buffer
	// is bounded; /trace?reset=1 drains it between sampling windows.
	tracer := telemetry.NewTracer()
	tracer.SetLimit(*spanCap)
	cluster.SetTracer(tracer)

	// The event journal records the structured history of every subsystem
	// (allocations, commits, encodes, deletes, transfers...); the auditor
	// folds it into a live layout model and checks the placement invariants
	// continuously, and the transition progress tracker folds it into the
	// encode backlog, ETA and durability-exposure windows behind /progress.
	// Both run whether or not -admin is set — the journal is a fixed-size
	// ring and the two views are O(stripe) per event — so a late operator
	// can still read the recent history. With -admin the set also runs the
	// fabric sampler behind /timeline, the health plane (heartbeat probes
	// plus transfer-cost outlier scoring, publishing NodeDegraded /
	// NodeRecovered into the journal) and the SLO tracker (rolling error
	// budgets over the registry's latency histograms). After a
	// durable-metadata restart Attach rebuilds the folds from the recovered
	// state before the server takes traffic.
	which := planes.Audit | planes.Progress
	if *admin != "" {
		which |= planes.Timeline | planes.Health | planes.SLO
	}
	pl := planes.Attach(cluster, which)
	defer pl.Stop()

	srv, err := netcfs.Serve(cluster, *listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.SetTelemetry(reg)
	srv.SetTracer(tracer)

	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		defer ln.Close()
		obs := &observability{Set: pl, tracer: tracer}
		go func() {
			if err := http.Serve(ln, adminMux(reg, obs)); err != nil {
				slog.Debug("admin server stopped", "err", err)
			}
		}()
		slog.Info("admin endpoint up", "addr", ln.Addr().String())
	}

	slog.Info("serving",
		"racks", *racks, "nodes_per_rack", *nodes, "policy", *policy,
		"n", *n, "k", *k, "c", *c, "addr", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("shutting down")
	return nil
}
