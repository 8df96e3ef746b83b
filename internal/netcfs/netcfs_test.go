package netcfs

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/hdfs"
	"ear/internal/telemetry"
)

func startServer(t *testing.T, policy string) (*Server, *Client) {
	t.Helper()
	cluster, err := hdfs.NewCluster(hdfs.Config{
		Racks:                6,
		NodesPerRack:         3,
		Policy:               policy,
		K:                    4,
		N:                    6,
		C:                    1,
		BlockSizeBytes:       8 << 10,
		BandwidthBytesPerSec: 1 << 30,
		Seed:                 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestPingAndInfo(t *testing.T) {
	_, c := startServer(t, "ear")
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	info, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("ClusterInfo: %v", err)
	}
	if info.Racks != 6 || info.Policy != "ear" || info.K != 4 || info.N != 6 {
		t.Fatalf("info = %+v", info)
	}
}

func TestFileRoundTripOverTCP(t *testing.T) {
	_, c := startServer(t, "ear")
	payload := make([]byte, 20<<10) // 2.5 blocks
	rand.New(rand.NewSource(22)).Read(payload)

	if err := c.Create("/data/trace.bin"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Append("/data/trace.bin", payload); err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, err := c.Read("/data/trace.bin")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content mismatch over TCP")
	}
	fi, err := c.Stat("/data/trace.bin")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Size != len(payload) || len(fi.Blocks) != 3 {
		t.Fatalf("Stat = %+v", fi)
	}
	files, err := c.List()
	if err != nil || len(files) != 1 || files[0] != "/data/trace.bin" {
		t.Fatalf("List = (%v, %v)", files, err)
	}
}

func TestEncodeFailRepairOverTCP(t *testing.T) {
	_, c := startServer(t, "ear")
	payload := make([]byte, 64<<10) // 8 blocks = 2 stripes (k=4)
	rand.New(rand.NewSource(23)).Read(payload)
	if err := c.Create("/big"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("/big", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFile("/big"); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if sum.Stripes == 0 || sum.CrossRackDownloads != 0 {
		t.Fatalf("encode summary = %+v (EAR should have 0 cross downloads)", sum)
	}
	// Fail the node holding the first block and read through degraded path.
	fi, err := c.Stat("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(fi.Locations) != len(fi.Blocks) || len(fi.Locations[0]) != 1 {
		t.Fatalf("post-encode locations = %v", fi.Locations)
	}
	victim := fi.Locations[0][0]
	if err := c.FailNode(victim); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	got, err := c.Read("/big")
	if err != nil {
		t.Fatalf("Read with failed node: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded content mismatch")
	}
	repairedTo, err := c.RepairBlock(fi.Blocks[0])
	if err != nil {
		t.Fatalf("RepairBlock: %v", err)
	}
	if repairedTo == victim {
		t.Fatal("repair landed on the dead node")
	}
	if err := c.ReviveNode(victim); err != nil {
		t.Fatalf("ReviveNode: %v", err)
	}
}

func TestRemoteErrors(t *testing.T) {
	_, c := startServer(t, "rr")
	if _, err := c.Read("/nope"); !errors.Is(err, ErrRemote) {
		t.Errorf("Read missing: %v", err)
	}
	if err := c.Create("/dup"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/dup"); !errors.Is(err, ErrRemote) {
		t.Errorf("duplicate Create: %v", err)
	}
	if err := c.FailNode(999); !errors.Is(err, ErrRemote) {
		t.Errorf("bad node: %v", err)
	}
	if err := c.Delete("/dup"); !errors.Is(err, ErrRemote) {
		t.Errorf("delete open file: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, "rr")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			path := string(rune('a'+i)) + ".txt"
			if err := c.Create(path); err != nil {
				errs[i] = err
				return
			}
			data := bytes.Repeat([]byte{byte(i)}, 8<<10)
			if err := c.Append(path, data); err != nil {
				errs[i] = err
				return
			}
			got, err := c.Read(path)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data) {
				errs[i] = errors.New("content mismatch")
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, c := startServer(t, "rr")
	srv.Close()
	if err := c.Ping(); err == nil {
		t.Error("Ping after server close should fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port should fail")
	}
}

func TestOpString(t *testing.T) {
	if OpPing.String() != "ping" || OpEncode.String() != "encode" || Op(99).String() != "op(99)" {
		t.Error("Op.String wrong")
	}
}

// TestTimeoutAndDisconnectCancelServerWork drives an append over a link so
// slow it could never finish, times it out client-side, and checks that the
// disconnect cancels the server's in-flight work: Server.Close must return
// promptly instead of waiting out a minutes-long shaped transfer.
func TestTimeoutAndDisconnectCancelServerWork(t *testing.T) {
	cluster, err := hdfs.NewCluster(hdfs.Config{
		Racks:                3,
		NodesPerRack:         2,
		Policy:               "rr",
		K:                    2,
		N:                    3,
		C:                    1,
		BlockSizeBytes:       64 << 10,
		BandwidthBytesPerSec: 1 << 10, // 1 KiB/s: one block hop takes ~64s
		Seed:                 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 200 * time.Millisecond
	if err := client.Create("/slow"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := client.Append("/slow", make([]byte, 64<<10)); err == nil {
		t.Fatal("append over a 1 KiB/s link should time out")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed-out append returned after %v", d)
	}
	client.Close()
	done := make(chan struct{})
	go func() {
		srv.Close()
		cluster.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close blocked on a canceled append")
	}
}

func TestStatsRPC(t *testing.T) {
	srv, c := startServer(t, "ear")
	// First report: nothing handled yet except this connection's traffic.
	rep, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if rep.Encode.Stripes != 0 {
		t.Errorf("initial encode stripes = %d", rep.Encode.Stripes)
	}

	// The cluster's scheduler counts every encode task by locality: the
	// split the RPC's TaskLocality must reproduce.
	clusterReg := telemetry.NewRegistry()
	srv.cluster.SetTelemetry(clusterReg)

	// Generate traffic: write two files, encoding after each.
	blk := make([]byte, 8<<10)
	rand.New(rand.NewSource(7)).Read(blk)
	var sum EncodeSummary
	for _, path := range []string{"/a", "/b"} {
		if err := c.Create(path); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := c.Append(path, blk); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CloseFile(path); err != nil {
			t.Fatal(err)
		}
		job, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if job.Stripes == 0 || job.EncodedBytes != 4*8<<10 {
			t.Errorf("encode of %s = %+v", path, job)
		}
		sum.Stripes += job.Stripes
		sum.EncodedBytes += job.EncodedBytes
		sum.CrossRackDownloads += job.CrossRackDownloads
		sum.Violations += job.Violations
	}

	rep, err = c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	byOp := map[string]OpMetric{}
	for _, m := range rep.Ops {
		byOp[m.Op] = m
	}
	if got := byOp["append"].Count; got != 8 {
		t.Errorf("append count = %d, want 8", got)
	}
	if got := byOp["encode"].Count; got != 2 {
		t.Errorf("encode count = %d, want 2", got)
	}
	if m := byOp["encode"]; m.TotalSeconds <= 0 || m.P99Seconds < m.P50Seconds {
		t.Errorf("encode latency summary inconsistent: %+v", m)
	}
	e := rep.Encode
	if e.Stripes != sum.Stripes || e.EncodedBytes != sum.EncodedBytes ||
		e.CrossRackDownloads != sum.CrossRackDownloads || e.Violations != sum.Violations {
		t.Errorf("encode totals = %+v, the two jobs sum to %+v", e, sum)
	}
	if e.DurationSeconds <= 0 || e.ThroughputMBps <= 0 {
		t.Errorf("encode totals carry no duration or throughput: %+v", e)
	}
	tasks := clusterReg.Counter("mapred_tasks_total", "", "locality")
	want := map[string]int{}
	for _, level := range []string{"node", "rack", "remote"} {
		if n := int(tasks.With(level).Value()); n > 0 {
			want[level] = n
		}
	}
	if len(want) == 0 || !maps.Equal(rep.TaskLocality, want) {
		t.Errorf("task locality = %v, the scheduler placed %v", rep.TaskLocality, want)
	}
	if rep.IntraRackBytes+rep.CrossRackBytes <= 0 {
		t.Error("no fabric traffic recorded")
	}

	// Idle polls read the totals; they do not add to them.
	for i := 0; i < 2; i++ {
		again, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if again.Encode != rep.Encode || !maps.Equal(again.TaskLocality, rep.TaskLocality) {
			t.Errorf("idle poll %d moved the totals: %+v %v -> %+v %v",
				i, rep.Encode, rep.TaskLocality, again.Encode, again.TaskLocality)
		}
	}

	// Re-homing metrics into a shared registry keeps the RPC working.
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after SetTelemetry: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`netcfs_requests_total{op="ping"} 1`)) {
		t.Errorf("shared registry missing ping count:\n%s", buf.String())
	}
}

// TestTracePropagationAcrossWire: a traced client RPC and the traced server
// handling it must share one trace ID, carried in the request frame, and the
// server's cluster spans and journal events must join that same trace.
func TestTracePropagationAcrossWire(t *testing.T) {
	srv, c := startServer(t, "ear")
	clientTr := telemetry.NewTracer()
	serverTr := telemetry.NewTracer()
	c.SetTracer(clientTr)
	srv.SetTracer(serverTr)
	jnl := events.NewJournal(4096)
	srv.cluster.SetJournal(jnl)
	srv.cluster.SetTracer(serverTr)

	if err := c.Create("/t.dat"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(5)).Read(payload)
	if err := c.Append("/t.dat", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseFile("/t.dat"); err != nil {
		t.Fatal(err)
	}

	var appendTrace uint64
	for _, s := range clientTr.Spans() {
		if s.Name == "rpc.append" {
			appendTrace = s.Trace
			if got := s.Args[telemetry.ComponentArg]; got != "client" {
				t.Errorf("client rpc span component = %q, want client", got)
			}
		}
	}
	if appendTrace == 0 {
		t.Fatal("client tracer recorded no rpc.append span")
	}

	var serverRPC, serverWrite, serverHops int
	for _, s := range serverTr.Spans() {
		if s.Trace != appendTrace {
			continue
		}
		switch s.Name {
		case "rpc.append":
			serverRPC++
			if s.Remote == 0 {
				t.Error("server rpc.append span lost the remote parent link")
			}
		case "client.write-block":
			serverWrite++
		case "datanode.pipeline-hop":
			serverHops++
		}
	}
	if serverRPC != 1 {
		t.Fatalf("server rpc.append spans in client's trace = %d, want 1", serverRPC)
	}
	if serverWrite == 0 || serverHops == 0 {
		t.Errorf("server write/hop spans in trace = %d/%d, want both > 0", serverWrite, serverHops)
	}

	// Combined client+server span set: the append trace crosses components.
	all := append(clientTr.Spans(), serverTr.Spans()...)
	if got := telemetry.MultiComponentTraces(all); got < 1 {
		t.Errorf("MultiComponentTraces(client+server) = %d, want >= 1", got)
	}

	// Journal events of the write carry the propagated trace.
	evs, _, _ := jnl.Since(0, 0, events.Filter{Trace: appendTrace})
	byType := map[events.Type]int{}
	for _, e := range evs {
		byType[e.Type]++
	}
	for _, typ := range []events.Type{events.BlockAllocated, events.ReplicaWritten, events.BlockCommitted} {
		if byType[typ] == 0 {
			t.Errorf("no %s journal event carries the RPC trace", typ)
		}
	}
}

// TestTracerlessClientStillMintsTraceIDs: without a client tracer the
// request still carries a nonzero trace ID, so a traced server groups each
// RPC's activity.
func TestTracerlessClientStillMintsTraceIDs(t *testing.T) {
	srv, c := startServer(t, "rr")
	serverTr := telemetry.NewTracer()
	srv.SetTracer(serverTr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	var traces []uint64
	for _, s := range serverTr.Spans() {
		if s.Name == "rpc.ping" {
			traces = append(traces, s.Trace)
		}
	}
	if len(traces) != 2 {
		t.Fatalf("rpc.ping server spans = %d, want 2", len(traces))
	}
	if traces[0] == 0 || traces[1] == 0 {
		t.Fatal("tracerless client produced a zero trace ID")
	}
	if traces[0] == traces[1] {
		t.Fatal("distinct RPCs share a trace ID")
	}
}

// TestTenantAndTracePropagationAcrossReconnect: the tenant identity and
// trace IDs ride every request of a connection, and a client that
// reconnects (a fresh Dial session against the same server) keeps charging
// the same tenant — the accounting table accumulates across connections.
func TestTenantAndTracePropagationAcrossReconnect(t *testing.T) {
	srv, first := startServer(t, "ear")
	serverTr := telemetry.NewTracer()
	srv.SetTracer(serverTr)
	srv.cluster.SetTracer(serverTr)
	payload := make([]byte, 8<<10)
	rand.New(rand.NewSource(31)).Read(payload)

	first.Tenant = "acme"
	if err := first.Create("/a.dat"); err != nil {
		t.Fatal(err)
	}
	if err := first.Append("/a.dat", payload); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Reconnect: a new session, same tenant identity.
	second, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.Tenant = "acme"
	if err := second.Append("/a.dat", payload); err != nil {
		t.Fatal(err)
	}

	// Also one block from a different tenant, to check isolation.
	third, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	third.Tenant = "beta"
	if err := third.Create("/b.dat"); err != nil {
		t.Fatal(err)
	}
	if err := third.Append("/b.dat", payload); err != nil {
		t.Fatal(err)
	}

	byTenant := map[string]map[string]int64{}
	for _, ts := range srv.cluster.Tenants().Snapshot() {
		ops := map[string]int64{}
		for _, op := range ts.Ops {
			ops[op.Op] = op.Count
		}
		byTenant[ts.Tenant] = ops
	}
	if got := byTenant["acme"]["write"]; got != 2 {
		t.Errorf("acme writes across reconnect = %d, want 2 (table: %v)", got, byTenant)
	}
	if got := byTenant["beta"]["write"]; got != 1 {
		t.Errorf("beta writes = %d, want 1 (table: %v)", got, byTenant)
	}
	if byTenant["acme"]["alloc"] != 2 || byTenant["beta"]["alloc"] != 1 {
		t.Errorf("alloc charges did not follow the wire tenant: %v", byTenant)
	}

	// Each connection's appends still carry distinct nonzero trace IDs.
	traces := map[uint64]bool{}
	for _, s := range serverTr.Spans() {
		if s.Name == "rpc.append" {
			if s.Trace == 0 {
				t.Fatal("rpc.append span with zero trace ID")
			}
			traces[s.Trace] = true
		}
	}
	if len(traces) != 3 {
		t.Errorf("distinct append traces = %d, want 3", len(traces))
	}
}
