package netcfs

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"ear/internal/hdfs"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// allOps lists every protocol operation, for pre-registering per-op metrics.
var allOps = []Op{
	OpPing, OpCreate, OpAppend, OpCloseFile, OpRead, OpStat, OpList,
	OpDelete, OpEncode, OpFailNode, OpReviveNode, OpRepairBlock,
	OpClusterInfo, OpServerStats,
}

// opHandles are one operation's metric handles.
type opHandles struct {
	requests *telemetry.Metric // netcfs_requests_total{op}
	latency  *telemetry.Metric // netcfs_request_seconds{op}
}

// Server serves one hdfs.Cluster over TCP. Each connection gets its own
// goroutine; requests on a connection are processed in order.
type Server struct {
	cluster *hdfs.Cluster
	ln      net.Listener

	mu     sync.Mutex
	rng    *rand.Rand
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup

	// Per-op telemetry and the totals of the encodes this server ran, which
	// the stats RPC serves (guarded by mu). The server always keeps its own
	// registry so the RPC works standalone; SetTelemetry re-homes the
	// metrics into a shared registry (the admin endpoint's).
	ops       map[Op]*opHandles
	encTotals EncodeSummary
	locality  map[string]int
	tracer    *telemetry.Tracer
}

// SetTracer installs a tracer: each request is handled under an rpc.<op>
// span that adopts the trace identity carried in the request, so the
// server's spans — and the cluster spans and journal events beneath them —
// join the calling client's trace.
func (s *Server) SetTracer(tr *telemetry.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

// traceSpan opens the handling span for one request (nil without a tracer).
func (s *Server) traceSpan(req *Request) *telemetry.Span {
	s.mu.Lock()
	tr := s.tracer
	s.mu.Unlock()
	if tr == nil {
		return nil
	}
	sp := tr.StartRemote("rpc."+req.Op.String(),
		telemetry.SpanContext{Trace: req.Trace, Span: req.Span})
	sp.Arg(telemetry.ComponentArg, "rpc")
	return sp
}

// Serve starts accepting connections on addr (use "127.0.0.1:0" to let the
// OS pick a port; the bound address is available via Addr).
func Serve(cluster *hdfs.Cluster, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcfs listen: %w", err)
	}
	s := &Server{
		cluster:  cluster,
		ln:       ln,
		rng:      rand.New(rand.NewSource(cluster.Config().Seed + 1000)),
		conns:    make(map[net.Conn]bool),
		locality: make(map[string]int),
	}
	s.SetTelemetry(telemetry.NewRegistry())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetTelemetry re-registers the server's per-operation metrics
// (netcfs_requests_total{op}, netcfs_request_seconds{op}) in the given
// registry, typically the one the admin endpoint exports. Counts recorded
// under the previous registry stay there.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	req := reg.Counter("netcfs_requests_total",
		"Requests handled, by operation.", "op")
	lat := reg.Histogram("netcfs_request_seconds",
		"Request handling latency, by operation.", nil, "op")
	ops := make(map[Op]*opHandles, len(allOps))
	for _, op := range allOps {
		ops[op] = &opHandles{
			requests: req.With(op.String()),
			latency:  lat.With(op.String()),
		}
	}
	s.mu.Lock()
	s.ops = ops
	s.mu.Unlock()
}

// observe records one handled request.
func (s *Server) observe(op Op, d time.Duration) {
	s.mu.Lock()
	h := s.ops[op]
	s.mu.Unlock()
	if h == nil {
		return // unknown op: rejected by handle, not worth a series
	}
	h.requests.Inc()
	h.latency.Observe(d.Seconds())
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes the listener and every active connection,
// and waits for all connection goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			// Transient accept failure; keep serving.
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn processes requests until the peer disconnects. Decoding runs in
// a dedicated reader goroutine so a disconnect — or Server.Close, which
// closes the connection — is noticed while a handler is still executing:
// the per-connection context is canceled and the in-flight operation's
// shaped transfers abort within one chunk reservation instead of running to
// completion against a dead peer. Requests are still handled strictly in
// arrival order.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	reqs := make(chan *Request)
	var readErr error // written by the reader before closing reqs
	go func() {
		defer close(reqs)
		for {
			req := new(Request)
			if err := dec.Decode(req); err != nil {
				readErr = err
				cancel() // abort any in-flight handler
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()
	for req := range reqs {
		start := time.Now()
		hctx := ctx
		sp := s.traceSpan(req)
		if sp != nil {
			hctx = telemetry.ContextWithSpan(ctx, sp)
		}
		// Re-establish the wire-carried tenant on the handler context so
		// every resource sink beneath the handler charges the right tenant.
		hctx = tenant.NewContext(hctx, req.Tenant)
		resp := s.handle(hctx, req)
		sp.End()
		s.observe(req.Op, time.Since(start))
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	if readErr != nil && !errors.Is(readErr, io.EOF) {
		// Malformed stream: report once and drop the connection.
		_ = enc.Encode(Response{Err: fmt.Sprintf("decode: %v", readErr)})
	}
}

// pickClient resolves the request's client node, drawing one uniformly when
// unspecified.
func (s *Server) pickClient(req *Request) topology.NodeID {
	if req.Client >= 0 && int(req.Client) < s.cluster.Topology().Nodes() {
		return req.Client
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return topology.NodeID(s.rng.Intn(s.cluster.Topology().Nodes()))
}

// addEncode adds one successful encode job to the totals the stats RPC
// serves.
func (s *Server) addEncode(st hdfs.EncodeStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.encTotals
	t.Stripes += st.Stripes
	t.EncodedBytes += st.EncodedBytes
	t.DurationSeconds += st.Duration.Seconds()
	t.CrossRackDownloads += st.CrossRackDownloads
	t.Violations += st.Violations
	if t.DurationSeconds > 0 {
		t.ThroughputMBps = float64(t.EncodedBytes) / (1 << 20) / t.DurationSeconds
	}
	for _, pl := range st.TaskPlacements {
		switch {
		case pl.Local:
			s.locality["node"]++
		case pl.Rack:
			s.locality["rack"]++
		default:
			s.locality["remote"]++
		}
	}
}

// statsReport assembles the OpServerStats payload.
func (s *Server) statsReport() *StatsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	fab := s.cluster.Fabric().Snapshot()
	report := &StatsReport{
		Encode:         s.encTotals,
		TaskLocality:   make(map[string]int, len(s.locality)),
		CrossRackBytes: fab.CrossRackBytes,
		IntraRackBytes: fab.IntraRackBytes,
	}
	for k, v := range s.locality {
		report.TaskLocality[k] = v
	}
	for _, op := range allOps {
		h := s.ops[op]
		n := h.requests.Value()
		if n == 0 {
			continue
		}
		m := OpMetric{
			Op:           op.String(),
			Count:        uint64(n),
			TotalSeconds: h.latency.Sum(),
			MeanSeconds:  h.latency.Mean(),
			P50Seconds:   h.latency.Quantile(0.5),
			P99Seconds:   h.latency.Quantile(0.99),
		}
		// Quantiles over zero samples are NaN; report zeros instead so
		// clients can print the report without special-casing.
		if math.IsNaN(m.MeanSeconds) {
			m.MeanSeconds, m.P50Seconds, m.P99Seconds = 0, 0, 0
		}
		report.Ops = append(report.Ops, m)
	}
	return report
}

// handle dispatches one request under the connection's context.
func (s *Server) handle(ctx context.Context, req *Request) Response {
	fail := func(err error) Response { return Response{Err: err.Error()} }
	ns := s.cluster.Namespace()
	switch req.Op {
	case OpPing:
		return Response{}
	case OpCreate:
		if err := ns.Create(req.Path); err != nil {
			return fail(err)
		}
		return Response{}
	case OpAppend:
		if err := ns.AppendCtx(ctx, s.pickClient(req), req.Path, req.Data); err != nil {
			return fail(err)
		}
		return Response{}
	case OpCloseFile:
		if err := ns.Close(req.Path); err != nil {
			return fail(err)
		}
		return Response{}
	case OpRead:
		data, err := ns.ReadCtx(ctx, s.pickClient(req), req.Path)
		if err != nil {
			return fail(err)
		}
		return Response{Data: data}
	case OpStat:
		fi, err := ns.Stat(req.Path)
		if err != nil {
			return fail(err)
		}
		info, err := toWireInfo(s.cluster, fi)
		if err != nil {
			return fail(err)
		}
		return Response{Info: info}
	case OpList:
		return Response{Files: ns.List()}
	case OpDelete:
		if err := ns.Delete(req.Path); err != nil {
			return fail(err)
		}
		return Response{}
	case OpEncode:
		s.cluster.NameNode().FlushOpenStripes()
		stats, err := s.cluster.RaidNode().EncodeAllCtx(ctx)
		if err != nil {
			return fail(err)
		}
		s.addEncode(stats)
		return Response{Encode: &EncodeSummary{
			Stripes:            stats.Stripes,
			EncodedBytes:       stats.EncodedBytes,
			DurationSeconds:    stats.Duration.Seconds(),
			ThroughputMBps:     stats.ThroughputMBps,
			CrossRackDownloads: stats.CrossRackDownloads,
			Violations:         stats.Violations,
		}}
	case OpFailNode:
		if req.Node < 0 || int(req.Node) >= s.cluster.Topology().Nodes() {
			return fail(fmt.Errorf("%w: node %d", ErrProtocol, req.Node))
		}
		s.cluster.NameNode().MarkDead(req.Node)
		return Response{}
	case OpReviveNode:
		s.cluster.NameNode().MarkAlive(req.Node)
		return Response{}
	case OpRepairBlock:
		node, err := s.cluster.RepairBlockCtx(ctx, req.Block)
		if err != nil {
			return fail(err)
		}
		return Response{Node: node}
	case OpServerStats:
		return Response{Stats: s.statsReport()}
	case OpClusterInfo:
		cfg := s.cluster.Config()
		return Response{Cluster: &ClusterInfo{
			Racks:          cfg.Racks,
			NodesPerRack:   cfg.NodesPerRack,
			Policy:         cfg.Policy,
			K:              cfg.K,
			N:              cfg.N,
			C:              cfg.C,
			BlockSizeBytes: cfg.BlockSizeBytes,
			EncodedStripes: len(s.cluster.NameNode().EncodedStripes()),
			BlockCount:     s.cluster.NameNode().BlockCount(),
		}}
	default:
		return fail(fmt.Errorf("%w: unknown op %v", ErrProtocol, req.Op))
	}
}
