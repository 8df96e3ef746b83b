package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/tenant"
)

// testMux builds an adminMux over a tiny live cluster, returning the mux
// and the cluster for driving traffic.
func testMux(t *testing.T) (*http.ServeMux, *hdfs.Cluster) {
	t.Helper()
	cluster, err := hdfs.NewCluster(hdfs.Config{
		Racks: 3, NodesPerRack: 2, Policy: "ear",
		K: 2, N: 3, C: 1, BlockSizeBytes: 4096,
		BandwidthBytesPerSec: 1 << 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })

	reg := telemetry.NewRegistry()
	cluster.SetTelemetry(reg)
	pl := planes.Attach(cluster, planes.Audit|planes.Progress|planes.Timeline|planes.Health|planes.SLO)
	t.Cleanup(pl.Stop)
	obs := &observability{Set: pl, tracer: telemetry.NewTracer()}
	return adminMux(reg, obs), cluster
}

func get(t *testing.T, mux *http.ServeMux, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, w.Code)
	}
	return w
}

// TestMetricsContentNegotiation checks that /metrics serves JSON by default
// and flips to the Prometheus text exposition via ?format=prom or an
// Accept header preferring text/plain.
func TestMetricsContentNegotiation(t *testing.T) {
	mux, cluster := testMux(t)
	data := make([]byte, cluster.Config().BlockSizeBytes)
	if _, err := cluster.WriteBlock(0, data); err != nil {
		t.Fatal(err)
	}

	w := get(t, mux, "/metrics", nil)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q, want application/json", ct)
	}
	var snap []telemetry.FamilySnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("default /metrics is not a JSON snapshot: %v", err)
	}

	for _, req := range []struct {
		path string
		hdr  map[string]string
	}{
		{"/metrics?format=prom", nil},
		{"/metrics", map[string]string{"Accept": "text/plain"}},
	} {
		w := get(t, mux, req.path, req.hdr)
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%v: Content-Type = %q, want text/plain", req, ct)
		}
		body := w.Body.String()
		if !strings.Contains(body, "# TYPE") {
			t.Fatalf("%v: no Prometheus TYPE lines in body:\n%s", req, body)
		}
	}
}

// TestProgressAndTenantsEndpoints drives one write through the cluster and
// checks /progress and /tenants serve coherent JSON plus self-contained
// HTML views.
func TestProgressAndTenantsEndpoints(t *testing.T) {
	mux, cluster := testMux(t)
	ctx := tenant.NewContext(t.Context(), "acme")
	data := make([]byte, cluster.Config().BlockSizeBytes)
	if _, err := cluster.WriteBlockCtx(ctx, 0, data); err != nil {
		t.Fatal(err)
	}

	var prog progress.Report
	if err := json.Unmarshal(get(t, mux, "/progress", nil).Body.Bytes(), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Events == 0 {
		t.Fatal("/progress folded no events after a write")
	}

	var tens struct {
		Tenants []tenant.TenantStats `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, mux, "/tenants", nil).Body.Bytes(), &tens); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range tens.Tenants {
		if ts.Tenant == "acme" {
			found = true
			for _, op := range ts.Ops {
				if op.Op == "write" && op.Count == 1 {
					goto html
				}
			}
			t.Fatalf("tenant acme has no write charge: %+v", ts.Ops)
		}
	}
	if !found {
		t.Fatalf("tenant acme missing from /tenants: %+v", tens.Tenants)
	}
html:
	for _, path := range []string{"/progress?view=html", "/tenants?view=html"} {
		w := get(t, mux, path, nil)
		body := w.Body.String()
		if !strings.HasPrefix(body, "<!DOCTYPE html>") {
			t.Fatalf("%s: not an HTML document", path)
		}
		if strings.Contains(body, "%!") {
			t.Fatalf("%s: fmt verb escape error in page:\n%s", path, body)
		}
	}
}

// TestBundleEndpoint: /debug/bundle serves every plane the daemon attaches,
// the metrics and the journal's last events in one document.
func TestBundleEndpoint(t *testing.T) {
	mux, cluster := testMux(t)
	if _, err := cluster.WriteBlock(0, make([]byte, cluster.Config().BlockSizeBytes)); err != nil {
		t.Fatal(err)
	}
	var b planes.Bundle
	if err := json.Unmarshal(get(t, mux, "/debug/bundle", nil).Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Audit == nil || b.Progress == nil || b.Health == nil || b.Timeline == nil || len(b.SLO) == 0 || len(b.Metrics) == 0 {
		t.Fatalf("bundle misses a plane: %+v", b)
	}
	if n := len(b.Events); n == 0 || n > planes.BundleEvents || b.Events[n-1].Seq != b.Seq {
		t.Errorf("want the journal's last events ending at %d, got %d", b.Seq, n)
	}
}
