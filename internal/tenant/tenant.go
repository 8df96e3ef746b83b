// Package tenant carries a tenant identity through the request path and
// accounts every resource it touches. Identity rides the context the same
// way telemetry spans do: the earfs client (or any embedder) names its
// tenant, the netcfs wire carries the name alongside the trace ID, the
// server re-establishes it in the handler context, and every resource sink
// — NameNode allocations, fabric bytes split cross-/intra-rack, RaidNode
// encode and repair work — charges the owning tenant in a shared Table.
//
// The Table is a per-tenant/per-op accounting grid with rolling rates
// (CubeFS's console traffic model is the shape reference): cumulative
// count+bytes per (tenant, op) plus a ring of one-second buckets that
// yields ops/s and bytes/s over a sliding window. It also keeps a
// block→tenant ownership side-map so background work performed *on behalf
// of* a tenant long after the write RPC returned — encoding its blocks,
// repairing its lost replicas — is still charged to the owner. Ownership
// lives in the observability plane, not in NameNode metadata: it is not
// written to the WAL and is lost on restart, which keeps the durable op
// format untouched (post-restart background work is charged to the system
// tenant).
//
// A nil *Table is a valid no-op sink, the events.Journal convention, so
// instrumented code never nil-checks.
package tenant

import (
	"context"
	"sort"
	"sync"
	"time"

	"ear/internal/topology"
)

// System is the tenant charged for activity with no tenant on the context:
// background daemons, tests, and clients that never set an identity.
const System = "system"

// ctxKey carries the tenant name in a context, unexported so only this
// package can write it (the telemetry spanKey pattern).
type ctxKey struct{}

// NewContext returns ctx carrying the tenant name. An empty name returns
// ctx unchanged.
func NewContext(ctx context.Context, name string) context.Context {
	if name == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, name)
}

// FromContext returns the tenant name carried by ctx, or System when none
// is set.
func FromContext(ctx context.Context) string {
	if ctx == nil {
		return System
	}
	if name, ok := ctx.Value(ctxKey{}).(string); ok && name != "" {
		return name
	}
	return System
}

// rate-ring geometry: rateSlots one-second buckets, rates reported over the
// trailing rateWindow seconds (the current partial second included).
const (
	rateSlots  = 16
	rateWindow = 10
)

// rateBucket is one second of activity for one (tenant, op) cell.
type rateBucket struct {
	sec   int64 // unix second this bucket covers
	count int64
	bytes int64
}

// opCell is one (tenant, op) accounting cell.
type opCell struct {
	count int64
	bytes int64
	ring  [rateSlots]rateBucket
}

// charge folds one charge into the cell at time sec.
func (c *opCell) charge(sec, count, bytes int64) {
	c.count += count
	c.bytes += bytes
	b := &c.ring[sec%rateSlots]
	if b.sec != sec {
		b.sec, b.count, b.bytes = sec, 0, 0
	}
	b.count += count
	b.bytes += bytes
}

// rates sums the ring over the trailing window ending at sec and returns
// per-second averages.
func (c *opCell) rates(sec int64) (countRate, byteRate float64) {
	var cnt, byt int64
	for i := range c.ring {
		if b := c.ring[i]; b.sec > sec-rateWindow && b.sec <= sec {
			cnt += b.count
			byt += b.bytes
		}
	}
	return float64(cnt) / rateWindow, float64(byt) / rateWindow
}

// The op cells ChargeFabric charges: a tenant's cross- and intra-rack byte
// totals are these two cells' bytes.
const (
	opCross = "xfer-cross"
	opIntra = "xfer-intra"
)

// fabricBytes reads a tenant's cross- and intra-rack bytes off its op cells.
func fabricBytes(ops map[string]*opCell) (cross, intra int64) {
	if c := ops[opCross]; c != nil {
		cross = c.bytes
	}
	if c := ops[opIntra]; c != nil {
		intra = c.bytes
	}
	return cross, intra
}

// Table is the shared per-tenant accounting grid. All methods are safe for
// concurrent use; a nil *Table ignores charges and returns empty snapshots.
type Table struct {
	mu      sync.Mutex
	tenants map[string]map[string]*opCell // tenant → op → cell
	owners  map[topology.BlockID]string
	now     func() time.Time // injectable for rate tests
}

// NewTable builds an empty accounting table.
func NewTable() *Table {
	return &Table{
		tenants: make(map[string]map[string]*opCell),
		owners:  make(map[topology.BlockID]string),
		now:     time.Now,
	}
}

// cellLocked returns (creating) the cell for (tenant, op).
func (t *Table) cellLocked(tenant, op string) *opCell {
	if tenant == "" {
		tenant = System
	}
	ops, ok := t.tenants[tenant]
	if !ok {
		ops = make(map[string]*opCell)
		t.tenants[tenant] = ops
	}
	c, ok := ops[op]
	if !ok {
		c = &opCell{}
		ops[op] = c
	}
	return c
}

// Charge adds count operations and bytes to the (tenant, op) cell. An
// empty tenant charges System.
func (t *Table) Charge(tenant, op string, count, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cellLocked(tenant, op).charge(t.now().Unix(), count, bytes)
	t.mu.Unlock()
}

// ChargeFabric attributes fabric payload bytes to the tenant, split by rack
// locality, in the "xfer-cross"/"xfer-intra" op cells, so transfer rates
// show up in the op grid. The fabric calls this at the same point it
// increments its own cross-/intra-rack totals, so summing the table over
// tenants reproduces the fabric totals exactly.
func (t *Table) ChargeFabric(tenant string, cross bool, bytes int64) {
	op := opIntra
	if cross {
		op = opCross
	}
	t.Charge(tenant, op, 0, bytes)
}

// SetOwner records the owning tenant of a block (called at allocation).
func (t *Table) SetOwner(id topology.BlockID, tenant string) {
	if t == nil || tenant == "" {
		return
	}
	t.mu.Lock()
	t.owners[id] = tenant
	t.mu.Unlock()
}

// Owner returns the owning tenant of a block, or System when unknown.
func (t *Table) Owner(id topology.BlockID) string {
	if t == nil {
		return System
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if o, ok := t.owners[id]; ok {
		return o
	}
	return System
}

// OpStats is one (tenant, op) cell of a snapshot.
type OpStats struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes"`
	// CountRate and ByteRate are trailing-window per-second averages.
	CountRate float64 `json:"count_per_sec"`
	ByteRate  float64 `json:"bytes_per_sec"`
}

// TenantStats is one tenant's row of a snapshot.
type TenantStats struct {
	Tenant         string    `json:"tenant"`
	CrossRackBytes int64     `json:"cross_rack_bytes"`
	IntraRackBytes int64     `json:"intra_rack_bytes"`
	Ops            []OpStats `json:"ops"`
}

// Snapshot returns every tenant's accounting state, tenants and ops sorted
// by name.
func (t *Table) Snapshot() []TenantStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sec := t.now().Unix()
	out := make([]TenantStats, 0, len(t.tenants))
	for name, ops := range t.tenants {
		row := TenantStats{Tenant: name, Ops: make([]OpStats, 0, len(ops))}
		row.CrossRackBytes, row.IntraRackBytes = fabricBytes(ops)
		for op, c := range ops {
			cr, br := c.rates(sec)
			row.Ops = append(row.Ops, OpStats{
				Op: op, Count: c.count, Bytes: c.bytes,
				CountRate: cr, ByteRate: br,
			})
		}
		sort.Slice(row.Ops, func(i, j int) bool { return row.Ops[i].Op < row.Ops[j].Op })
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// FabricTotals sums cross- and intra-rack attributed bytes over every
// tenant — the quantity the earexp tenant cross-check compares against the
// fabric's own counters.
func (t *Table) FabricTotals() (cross, intra int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ops := range t.tenants {
		c, i := fabricBytes(ops)
		cross += c
		intra += i
	}
	return cross, intra
}
