// Package hdfs is the in-process mini-HDFS testbed: a NameNode holding all
// metadata and the placement-policy hook, DataNodes storing checksummed
// blocks, a client write/read path that moves real bytes over a
// bandwidth-shaped fabric, and a RaidNode that performs the paper's
// asynchronous encoding operation through a map-only MapReduce job. It is
// the reproduction substrate for the paper's testbed experiments (Section
// V-A), substituting Facebook's HDFS + HDFS-RAID deployment.
package hdfs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ear/internal/blockstore"
	"ear/internal/erasure"
	"ear/internal/events"
	"ear/internal/fabric"
	"ear/internal/mapred"
	"ear/internal/metalog"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// ErrInvalidConfig indicates an unusable cluster configuration.
var ErrInvalidConfig = errors.New("hdfs: invalid config")

// slotsPerNode is every TaskTracker's map-slot count.
const slotsPerNode = 4

// Config describes a mini-HDFS cluster. It selects no data path: stripes
// encode, repair and degraded-read through the one chain engine (chain.go),
// and the paper's HDFS-RAID gather is a ParityFunc an experiment hands one
// encode job (RaidNode.EncodeAllWith), not a setting.
type Config struct {
	Racks        int
	NodesPerRack int
	// Policy selects the replica placement policy: "rr" (default) or
	// "ear".
	Policy string
	// Replicas is the replication factor (default 3; the paper's testbed
	// uses 2 because each machine is its own rack).
	Replicas int
	// K and N define the (n, k) erasure code; C bounds blocks per rack
	// after encoding; TargetRacks is R' (0 = all racks).
	K, N, C     int
	TargetRacks int
	// BlockSizeBytes is the fixed block size (default 1 MiB; scaled down
	// from HDFS's 64 MB so experiments complete quickly — bandwidth scales
	// with it).
	BlockSizeBytes int
	// BandwidthBytesPerSec shapes every fabric link (default 32 MiB/s,
	// a 1 Gb/s link scaled to the reduced block size).
	BandwidthBytesPerSec float64
	// DiskBandwidthBytesPerSec, when positive, charges local (same-node)
	// block reads at this rate, modeling the testbed's SATA disks. 0
	// leaves local reads unshaped.
	DiskBandwidthBytesPerSec float64
	// MapTasks is the number of map tasks per encoding job (default 12,
	// the paper's setting).
	MapTasks int
	Seed     int64

	// MetaDir, when set, makes the metadata plane durable: NewCluster opens
	// a write-ahead op log there, recovers whatever a previous incarnation
	// left (snapshot plus log tail), and routes every NameNode mutation
	// through it. Empty keeps the in-memory-only metadata plane.
	MetaDir string
	// MetaSync selects the log's fsync policy: "interval" (group fsyncs on a
	// timer, the default), "always" (fsync before every mutation returns),
	// or "none" (OS-buffered only).
	MetaSync string
	// MetaSnapshotEvery, when positive, checkpoints the metadata plane after
	// that many log appends, truncating the covered log prefix. 0 means
	// snapshots happen only on explicit NameNode.SnapshotNow calls.
	MetaSnapshotEvery int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "rr"
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.BlockSizeBytes == 0 {
		c.BlockSizeBytes = 1 << 20
	}
	if c.BandwidthBytesPerSec == 0 {
		c.BandwidthBytesPerSec = 32 << 20
	}
	if c.MapTasks == 0 {
		c.MapTasks = 12
	}
	return c
}

// DataNode stores blocks for one node of the cluster.
type DataNode struct {
	ID    topology.NodeID
	Store *blockstore.Store
}

// Cluster wires the mini-HDFS components together.
type Cluster struct {
	cfg   Config
	top   *topology.Topology
	fab   *fabric.Fabric
	nn    *NameNode
	dns   []*DataNode
	coder *erasure.Coder
	jt    *mapred.JobTracker
	raid  *RaidNode
	ns    *Namespace

	// bufPool is the pool BufferPool hands out, the gather baseline's download
	// scratch; nothing in the package takes from it.
	bufPool *erasure.BufferPool

	// tel, tracer, and jrn are the observability sinks, installed by
	// SetTelemetry / SetTracer / SetJournal (atomic so installation never
	// races with in-flight operations; nil means unobserved).
	tel    atomic.Pointer[clusterMetrics]
	tracer atomic.Pointer[telemetry.Tracer]
	jrn    atomic.Pointer[events.Journal]

	// acct is the per-tenant resource accounting table, always on (charges
	// are two map lookups under one mutex). Every resource sink — NameNode
	// allocations, client writes/reads, fabric bytes, RaidNode encode and
	// repair work — charges the tenant carried by the operation's context,
	// or the block's recorded owner for background work.
	acct *tenant.Table

	// fsyncObs forwards the metadata log's fsync durations into the
	// metalog_fsync_seconds histogram; non-nil only when MetaDir is set.
	// The indirection exists because the log opens (and may already fsync
	// during recovery) before SetTelemetry runs.
	fsyncObs *fsyncObserver

	// turn is the one-slot repair turn each sweep holds (see sweep).
	turn chan struct{}
}

// fsyncObserver adapts metalog's FsyncObserver callback to a telemetry
// histogram installed later (nil until SetTelemetry; observations before
// that are dropped, matching every other sink's attach-before-traffic
// contract).
type fsyncObserver struct {
	hist atomic.Pointer[telemetry.Metric]
}

func (o *fsyncObserver) observe(d time.Duration) {
	if h := o.hist.Load(); h != nil {
		h.Observe(d.Seconds())
	}
}

// clusterMetrics bundles the cluster's metric handles and the registry
// they live in.
type clusterMetrics struct {
	reg *telemetry.Registry

	writeLat   *telemetry.Metric // hdfs_client_write_seconds
	readLat    *telemetry.Metric // hdfs_client_read_seconds
	stripes    *telemetry.Metric // raidnode_stripes_encoded_total
	encBytes   *telemetry.Metric // raidnode_encoded_bytes_total
	crossDl    *telemetry.Metric // raidnode_cross_rack_downloads_total
	crossUp    *telemetry.Metric // raidnode_cross_rack_uploads_total
	violations *telemetry.Metric // raidnode_placement_violations_total
	encJobs    *telemetry.Metric // raidnode_encode_jobs_total
	pipeFill   *telemetry.Metric // hdfs_pipeline_fill_seconds
	encMBps    *telemetry.Metric // raidnode_encode_mbps
	encStripe  *telemetry.Metric // raidnode_stripe_encode_seconds
	repairLat  *telemetry.Metric // hdfs_repair_seconds

	// Chain-engine instrumentation: per-hop fill/drain latency and the
	// measured overlap (busy-hop-seconds per wall-second) of every fold, and
	// the partial-sum traffic pipelined encodes ship in place of whole-block
	// gathers.
	pipeHopFill  *telemetry.Metric // raidnode_pipe_hop_fill_seconds
	pipeHopDrain *telemetry.Metric // raidnode_pipe_hop_drain_seconds
	pipeDepth    *telemetry.Metric // raidnode_pipe_depth
	partialBytes *telemetry.Metric // raidnode_partial_sum_bytes_total
	pipeStripes  *telemetry.Metric // raidnode_pipelined_stripes_total

	// Repair-traffic instrumentation: the partial-sum bytes repairs ship
	// over the core and the per-repair reconstruction throughput.
	repairCross *telemetry.Metric // hdfs_repair_cross_rack_bytes_total
	repairMBps  *telemetry.Metric // hdfs_repair_mbps
}

// SetTelemetry publishes the cluster's metrics into the registry and wires
// the underlying fabric and JobTracker to the same registry: client
// write/read latency histograms, RaidNode encode counters
// (raidnode_stripes_encoded_total, raidnode_encoded_bytes_total,
// raidnode_cross_rack_downloads_total, raidnode_placement_violations_total),
// fabric byte counters, and MapReduce scheduling gauges. Install it before
// serving traffic; earlier activity is not backfilled.
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	m := &clusterMetrics{
		reg: reg,
		writeLat: reg.Histogram("hdfs_client_write_seconds",
			"Block write latency through the replication pipeline.", nil).With(),
		readLat: reg.Histogram("hdfs_client_read_seconds",
			"Block read latency from the nearest live replica.", nil).With(),
		stripes: reg.Counter("raidnode_stripes_encoded_total",
			"Stripes the RaidNode encoded, counted at their commit.").With(),
		encBytes: reg.Counter("raidnode_encoded_bytes_total",
			"Data bytes encoded into stripes.").With(),
		crossDl: reg.Counter("raidnode_cross_rack_downloads_total",
			"Data blocks fetched across racks by encoding tasks (zero under EAR with strict scheduling).").With(),
		crossUp: reg.Counter("raidnode_cross_rack_uploads_total",
			"Parity blocks delivered to their holders across racks (zero under EAR while a stripe's parity fits in its core rack).").With(),
		violations: reg.Counter("raidnode_placement_violations_total",
			"Stripes whose post-encoding layout broke rack-level fault tolerance.").With(),
		encJobs: reg.Counter("raidnode_encode_jobs_total",
			"Encoding jobs run.").With(),
		pipeFill: reg.Histogram("hdfs_pipeline_fill_seconds",
			"Time for the first chunk of a pipelined block write to reach the last replica.", nil).With(),
		encMBps: reg.Histogram("raidnode_encode_mbps",
			"Per-stripe parity materialization throughput (member MB over the time to compute the parity and deliver it to its holders).",
			telemetry.ExponentialBuckets(64, 2, 12)).With(),
		encStripe: reg.Histogram("raidnode_stripe_encode_seconds",
			"Wall time to encode one stripe end to end (parity materialization, commit, replica delete).", nil).With(),
		repairLat: reg.Histogram("hdfs_repair_seconds",
			"Block repair latency (chain reconstruction, store, metadata update).", nil).With(),
		pipeHopFill: reg.Histogram("raidnode_pipe_hop_fill_seconds",
			"Time from pipeline start until a hop folds its first chunk.", nil).With(),
		pipeHopDrain: reg.Histogram("raidnode_pipe_hop_drain_seconds",
			"Time from a hop's last chunk until the whole pipeline finishes.", nil).With(),
		pipeDepth: reg.Histogram("raidnode_pipe_depth",
			"Measured chain overlap: busy hop-seconds per wall-second (1 = no overlap, = hop count means a full pipeline).",
			[]float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16}).With(),
		partialBytes: reg.Counter("raidnode_partial_sum_bytes_total",
			"Partial parity-sum bytes shipped between the chain hops of stripe encodes.").With(),
		pipeStripes: reg.Counter("raidnode_pipelined_stripes_total",
			"Stripes encoded through the chain engine.").With(),
		repairCross: reg.Counter("hdfs_repair_cross_rack_bytes_total",
			"Partial-sum bytes repairs shipped across the rack core.").With(),
		repairMBps: reg.Histogram("hdfs_repair_mbps",
			"Per-repair reconstruction throughput (repaired bytes over repair wall time, MB/s).",
			telemetry.ExponentialBuckets(0.25, 2, 14)).With(),
	}
	c.tel.Store(m)
	if c.fsyncObs != nil {
		c.fsyncObs.hist.Store(reg.Histogram("metalog_fsync_seconds",
			"Duration of one metadata-log group-commit fsync.",
			telemetry.ExponentialBuckets(1e-5, 2, 16)).With())
	}
	c.fab.SetTelemetry(reg)
	c.jt.SetTelemetry(reg)
	c.nn.SetTelemetry(reg)
}

// Telemetry returns the registry SetTelemetry installed; nil when
// unobserved.
func (c *Cluster) Telemetry() *telemetry.Registry {
	if m := c.metrics(); m != nil {
		return m.reg
	}
	return nil
}

// SetTracer installs a span tracer for the encode path (nil disables).
func (c *Cluster) SetTracer(tr *telemetry.Tracer) { c.tracer.Store(tr) }

// SetJournal installs the cluster event journal on every subsystem: the
// NameNode (metadata transitions), the client/RaidNode data path (replica
// writes, deletes, relocations, repairs), the JobTracker (task placements),
// and the fabric (transfer start/finish). nil detaches everywhere. Like the
// other observability sinks, earlier activity is not backfilled.
func (c *Cluster) SetJournal(j *events.Journal) {
	c.jrn.Store(j)
	c.nn.SetJournal(j)
	c.fab.SetJournal(j)
	c.jt.SetJournal(j)
}

// Journal returns the installed event journal; nil (a valid no-op sink) when
// unjournaled.
func (c *Cluster) Journal() *events.Journal { return c.jrn.Load() }

// metrics returns the installed metric handles, nil when unobserved.
func (c *Cluster) metrics() *clusterMetrics { return c.tel.Load() }

// trace returns the installed tracer; nil (a valid no-op tracer) when
// unobserved.
func (c *Cluster) trace() *telemetry.Tracer { return c.tracer.Load() }

// opSpan opens the span for one client-path operation: a child of the
// caller's span when the context carries one (continuing its trace — this
// is how a netcfs RPC span extends into the data path), else a fresh root
// on the cluster tracer. The returned context carries the new span so
// downstream components — NameNode allocation, pipeline hops, fabric
// streams, journal publishers — join the same trace. With no tracer and no
// inbound span both returns are the no-op values.
func (c *Cluster) opSpan(ctx context.Context, component, name string) (*telemetry.Span, context.Context) {
	var sp *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		sp = parent.Child(name)
	} else {
		sp = c.trace().Start(name)
	}
	if sp == nil {
		return nil, ctx
	}
	sp.Arg(telemetry.ComponentArg, component)
	return sp, telemetry.ContextWithSpan(ctx, sp)
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	top, err := topology.New(cfg.Racks, cfg.NodesPerRack)
	if err != nil {
		return nil, err
	}
	pcfg := placement.Config{
		Topology:    top,
		Replicas:    cfg.Replicas,
		K:           cfg.K,
		N:           cfg.N,
		C:           cfg.C,
		TargetRacks: cfg.TargetRacks,
	}
	switch cfg.Policy {
	case "rr", "ear":
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", ErrInvalidConfig, cfg.Policy)
	}
	nn, err := NewShardedNameNode(pcfg, cfg.Policy, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	var fsyncObs *fsyncObserver
	if cfg.MetaDir != "" {
		sync, err := metalog.ParseSyncPolicy(cfg.MetaSync)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		fsyncObs = &fsyncObserver{}
		l, err := metalog.Open(metalog.Options{
			Dir:           cfg.MetaDir,
			Sync:          sync,
			FsyncObserver: fsyncObs.observe,
		})
		if err != nil {
			return nil, err
		}
		if err := nn.RecoverMeta(l); err != nil {
			l.Close()
			return nil, err
		}
		nn.SetAutoSnapshot(cfg.MetaSnapshotEvery)
	}
	fab, err := fabric.New(top, cfg.BandwidthBytesPerSec)
	if err != nil {
		return nil, err
	}
	if cfg.DiskBandwidthBytesPerSec > 0 {
		if err := fab.EnableDisk(cfg.DiskBandwidthBytesPerSec); err != nil {
			return nil, err
		}
	}
	// Reed-Solomon, matching HDFS-RAID.
	coder, err := erasure.New(cfg.N, cfg.K, erasure.ReedSolomon)
	if err != nil {
		return nil, err
	}
	jt, err := mapred.NewJobTracker(top, slotsPerNode)
	if err != nil {
		return nil, err
	}
	dns := make([]*DataNode, top.Nodes())
	for i := range dns {
		dns[i] = &DataNode{ID: topology.NodeID(i), Store: blockstore.New()}
	}
	c := &Cluster{
		cfg:      cfg,
		top:      top,
		fab:      fab,
		nn:       nn,
		dns:      dns,
		coder:    coder,
		jt:       jt,
		bufPool:  erasure.NewBufferPool(),
		fsyncObs: fsyncObs,
		acct:     tenant.NewTable(),
		turn:     make(chan struct{}, 1),
	}
	fab.SetAccounting(c.acct)
	nn.setAccounting(c.acct)
	c.raid = newRaidNode(c)
	c.ns = &Namespace{c: c, files: make(map[string]*FileInfo)}
	return c, nil
}

// Close shuts down the cluster's background components and flushes and
// closes the metadata log when one is attached.
func (c *Cluster) Close() {
	c.jt.Close()
	_ = c.nn.CloseMeta()
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Topology returns the cluster topology.
func (c *Cluster) Topology() *topology.Topology { return c.top }

// Fabric returns the shaped network (for traffic injection and accounting).
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }

// Tenants returns the per-tenant resource accounting table (always
// present; the earfsd /tenants endpoint and the earexp transition
// cross-check read it).
func (c *Cluster) Tenants() *tenant.Table { return c.acct }

// NameNode returns the metadata service.
func (c *Cluster) NameNode() *NameNode { return c.nn }

// RaidNode returns the encoding coordinator.
func (c *Cluster) RaidNode() *RaidNode { return c.raid }

// JobTracker returns the MapReduce scheduler.
func (c *Cluster) JobTracker() *mapred.JobTracker { return c.jt }

// Coder returns the erasure coder.
func (c *Cluster) Coder() *erasure.Coder { return c.coder }

// BufferPool returns the cluster-wide block buffer pool, which the data
// paths never take from: an encode's ParityFunc may borrow scratch from it.
func (c *Cluster) BufferPool() *erasure.BufferPool { return c.bufPool }

// DataNodeOf returns the DataNode with the given ID.
func (c *Cluster) DataNodeOf(n topology.NodeID) (*DataNode, error) {
	if n < 0 || int(n) >= len(c.dns) {
		return nil, fmt.Errorf("%w: %d", topology.ErrUnknownNode, n)
	}
	return c.dns[n], nil
}

// drawFor makes a choice a function of what it is for: the seed mixed with the
// ids the choice belongs to (a block and its reader, a stripe). The same seed
// and ids draw the same 64 bits on every run, whichever goroutine asks first;
// the seed is mixed before an id meets it, so seed 6 id 1 is not seed 7 id 0.
func drawFor(seed int64, ids ...int64) uint64 {
	x := mix64(uint64(seed) + splitmixGamma)
	for _, id := range ids {
		x = mix64((x ^ uint64(id)) + splitmixGamma)
	}
	return x
}

// splitmixGamma is splitmix64's state increment and mix64 its output function.
const splitmixGamma = 0x9E3779B97F4A7C15

// splitmix is splitmix64 as a rand.Source64. Its state is one word, so
// reseeding it before every draw (NameNode.draw) costs a store where
// math/rand's own source fills a 607-word table.
type splitmix struct{ x uint64 }

func (s *splitmix) Seed(seed int64) { s.x = uint64(seed) }
func (s *splitmix) Uint64() uint64  { s.x += splitmixGamma; return mix64(s.x) }
func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
