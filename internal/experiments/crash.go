package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ear/internal/events"
	"ear/internal/hdfs"
	"ear/internal/planes"
	"ear/internal/topology"
)

// CrashOptions configures the kill-mid-encode crash-recovery scenario: a
// cluster whose metadata plane is durable (MetaDir) is killed without
// warning in the middle of an EAR encoding run, then a new process recovers
// from the write-ahead log and proves the recovered metadata is complete
// and invariant-clean.
type CrashOptions struct {
	TestbedOptions
	// MetaDir is the metadata log directory shared by the run and recover
	// phases (required).
	MetaDir string
	// KillTimeout bounds how long the run phase waits for the first encoded
	// stripe before giving up (default 60s).
	KillTimeout time.Duration
}

func (o CrashOptions) withDefaults() CrashOptions {
	o.TestbedOptions = o.TestbedOptions.withDefaults()
	if o.KillTimeout == 0 {
		o.KillTimeout = 60 * time.Second
	}
	return o
}

// crashClusterConfig is the scenario's cluster: EAR with the testbed (6,4)
// code and a durable metadata plane. MetaSync "always" makes every
// journal-visible mutation durable, so everything the run phase observed
// before the kill is provably recovered afterwards.
func (o CrashOptions) crashClusterConfig() hdfs.Config {
	cfg := o.clusterConfig("ear", 6, 4)
	cfg.MetaDir = o.MetaDir
	cfg.MetaSync = "always"
	return cfg
}

// RunCrashRun is the scenario's first phase: populate, checkpoint the
// metadata plane, start an encoding run, and — as soon as the journal shows
// the first stripe encoded, with the rest still in flight — invoke kill. The
// caller decides what "kill" means: the earexp command SIGKILLs its own
// process (so kill never returns), while tests snapshot the log directory
// mid-flight. The encoding keeps running while kill executes; nothing is
// flushed or closed.
func RunCrashRun(opts CrashOptions, kill func() error) error {
	opts = opts.withDefaults()
	if opts.MetaDir == "" {
		return fmt.Errorf("%w: crash scenario needs -meta-dir", ErrBadOptions)
	}
	c, err := hdfs.NewCluster(opts.crashClusterConfig())
	if err != nil {
		return err
	}
	j := events.NewJournal(1 << 15)
	c.SetJournal(j) // before the observers, which then read this journal
	opts.apply(c)

	encoded := make(chan struct{}, 1)
	cancel := j.Subscribe(func(e events.Event) {
		if e.Type == events.StripeEncoded {
			select {
			case encoded <- struct{}{}:
			default:
			}
		}
	})
	defer cancel()

	rng := rand.New(rand.NewSource(opts.Seed + 901))
	if _, err := populate(c, opts.Stripes, rng); err != nil {
		return err
	}
	// Checkpoint the written state, so that recovery restores a snapshot and
	// replays only the encode's tail of the log.
	if err := c.NameNode().SnapshotNow(); err != nil {
		return err
	}
	go func() {
		// The kill preempts this; errors after the kill point are the
		// scenario working as intended.
		_, _ = c.RaidNode().EncodeAll()
	}()

	select {
	case <-encoded:
		// The scenario must crash what ships: every stripe under way went
		// into the chain.
		started, _, _ := j.Since(0, 0, events.Filter{Type: events.StripeEncodeStarted})
		for _, e := range started {
			if e.Detail != string(Chain) {
				return fmt.Errorf("crash run: stripe %d is encoded off the chain (%s)", e.Stripe, e.Detail)
			}
		}
	case <-time.After(opts.KillTimeout):
		return fmt.Errorf("no stripe encoded within %v; nothing to crash into", opts.KillTimeout)
	}
	return kill()
}

// CrashReport summarizes the recover phase.
type CrashReport struct {
	ReplayedOps int64 `json:"replayed_ops"`
	Blocks      int   `json:"blocks"`
	Stripes     int   `json:"stripes"`
	Encoded     int   `json:"encoded_stripes"`
	Requeued    int   `json:"requeued_stripes"`
	FreshBlocks int   `json:"fresh_blocks"`
	// Readable and Lost count the recovered committed blocks a read
	// returned and failed on. The DataNodes' stores live in the killed
	// process's memory, so every pre-crash block reads as lost.
	Readable      int   `json:"readable_blocks"`
	Lost          int   `json:"lost_blocks"`
	Violations    int   `json:"violations"`
	RecoverMillis int64 `json:"recover_millis"`
}

// String renders the one-line marker CI greps for.
func (r CrashReport) String() string {
	return fmt.Sprintf("CRASH_RECOVERY_OK replayed=%d blocks=%d stripes=%d encoded=%d requeued=%d fresh=%d readable=%d lost=%d violations=%d recover_ms=%d",
		r.ReplayedOps, r.Blocks, r.Stripes, r.Encoded, r.Requeued, r.FreshBlocks, r.Readable, r.Lost, r.Violations, r.RecoverMillis)
}

// RunCrashRecover is the second phase: a fresh cluster over the same MetaDir
// recovers the metadata plane (snapshot plus log tail, torn tail truncated),
// backfills the canonical event stream for the placement auditor, requeues
// the encodings the crash interrupted, and proves the plane is live by
// serving new writes and reading each back. It tries to read every recovered
// committed block and reports how many it could. It fails if a fresh block
// reads back other bytes than were written, the auditor finds any invariant
// violation or the recovered state is implausibly empty.
func RunCrashRecover(opts CrashOptions) (*CrashReport, error) {
	opts = opts.withDefaults()
	if opts.MetaDir == "" {
		return nil, fmt.Errorf("%w: crash scenario needs -meta-dir", ErrBadOptions)
	}
	start := time.Now()
	c, err := hdfs.NewCluster(opts.crashClusterConfig())
	if err != nil {
		return nil, fmt.Errorf("recovering cluster: %w", err)
	}
	defer c.Close()
	opts.apply(c)
	recoverDur := time.Since(start)

	// Attach rebuilds the auditor from the recovered state's backfill.
	pl := planes.Attach(c, planes.Audit)
	nn := c.NameNode()

	rep := &CrashReport{
		ReplayedOps:   nn.RecoveredOps(),
		Blocks:        nn.BlockCount(),
		Encoded:       len(nn.EncodedStripes()),
		RecoverMillis: recoverDur.Milliseconds(),
	}
	if rep.Blocks == 0 {
		return nil, fmt.Errorf("recovered zero blocks; the run phase's mutations were lost")
	}
	if rep.Encoded == 0 {
		return nil, fmt.Errorf("recovered zero encoded stripes; the kill preceded the first durable encode-commit")
	}

	// The crash interrupted an encoding run after it drained the queue; put
	// the unencoded stripes back so a future run (with re-replicated data)
	// can finish the transition.
	requeued, err := nn.RequeueUnencodedStripes()
	if err != nil {
		return nil, err
	}
	rep.Requeued = requeued
	// Every registered stripe is either encoded or (after the requeue) back
	// in the pre-encoding queue.
	rep.Stripes = rep.Encoded + nn.PendingStripeCount()

	// The recovered plane serves traffic: fresh writes allocate, commit, and
	// group under the same invariants, and read back what was written.
	rng := rand.New(rand.NewSource(opts.Seed + 902))
	payload := make([]byte, c.Config().BlockSizeBytes)
	fresh := 2 * c.Config().K
	for i := 0; i < fresh; i++ {
		rng.Read(payload)
		client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
		id, err := c.WriteBlock(client, payload)
		if err != nil {
			return nil, fmt.Errorf("fresh write after recovery: %w", err)
		}
		got, err := c.ReadBlock(client, id)
		if err != nil {
			return nil, fmt.Errorf("reading fresh block %d after recovery: %w", id, err)
		}
		if !bytes.Equal(got, payload) {
			return nil, fmt.Errorf("fresh block %d reads back other bytes than were written", id)
		}
	}
	rep.FreshBlocks = fresh

	// The recovered blocks' metadata is complete; their bytes are not.
	for id := topology.BlockID(0); int(id) < rep.Blocks; id++ {
		meta, err := nn.Block(id)
		if err != nil {
			return nil, err
		}
		if !meta.Committed {
			continue
		}
		if _, err := c.ReadBlock(0, id); err != nil {
			rep.Lost++
		} else {
			rep.Readable++
		}
	}

	arep := pl.Auditor.Report()
	rep.Violations = arep.Total()
	if !arep.Clean {
		return rep, fmt.Errorf("recovered state fails audit: %d ongoing, %d transient violations",
			len(arep.Ongoing), len(arep.Transient))
	}
	return rep, nil
}
