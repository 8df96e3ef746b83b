package hdfs

// The chain engine. Encoding a stripe, repairing a lost member and reading
// a lost block degraded are one operation: fold coefficient rows over stripe
// members along planned chains, one chain per row. The holders of the members
// are covered once (placement.PlanPipeline, toward the fold's anchor), and
// the cover is ordered once per row toward that row's sink
// (placement.OrderPipeline: rack-contiguous, the sink's rack last, the sink
// itself last). Each row's chain walks the block slice by slice: each hop
// receives the row's upstream partial sum over a fabric stream, folds its
// locally stored members into it with gf256.MulAddSlice, and forwards the
// result downstream, so the row ends on its sink wherever the sink is a hop
// of the cover; only a row whose sink is not one ends in a delivery stage.
// A node reads its members once for all rows, ahead from the shaped disk
// while the sums are still on their way; every stage books its forward from
// the instant the slice was ready, and the slice is sized so the fill stays
// a small share of a block time (foldSliceBytes), so a chain is many slices
// deep and every stage stays busy. Transfer and arithmetic for slice i+1
// overlap the forwarding of slice i, and a rack holding several members
// aggregates them before crossing the core: one block per row per hop, so
// one partial sum per row crosses per rack boundary instead of one block per
// remote member. With the m parity rows the sums are the stripe's parity
// (RapidRAID), each ending on the node that stores it; with one decode row
// they are the lost member (rack-aware regenerating repair), delivered to the
// repair target or the reading client. The engine copies no byte: a hop folds
// its members straight from the stores' sealed blocks into the row's one
// block, made at the row's first step, which every stage of the row sums into
// in place, and the read-ahead verifies each member's checksum slice by slice
// before the fold can end. It stores nothing either: the fold's owner commits
// the blocks its run hands it only after the whole fold succeeded, so a
// canceled or failed fold leaves no trace in any store. The stage
// loop (stageLoop) is one event loop on the caller's goroutine, with one
// read-ahead per node for every fold it runs. An encode job folds the stripes
// of all its map tasks (parityFold), and a recovery or BlockMover round its
// members, in one loop, each admitted once planned and committed once it
// ends. Every fold of one member — a repair, a move, a degraded read, an
// encode's rewrite of a kept copy — has one owner (foldMember), which
// re-plans it in its caller's loop, and a degraded read is a loop of that one
// fold. The replicated write is a loop of one run (runStages), a run with no
// members to fold whose stages forward the caller's bytes. No loop runs
// inside another.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ear/internal/blockstore"
	"ear/internal/fabric"
	"ear/internal/gf256"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// chainStage is one stage of a stage run, and it carries one row: a planned
// hop of a fold, which folds its local members into the row's partial sum; a
// delivery stage, which receives a finished row at a sink that is no hop of
// the cover; or a replica of a replicated write, which receives the caller's
// bytes.
type chainStage struct {
	node topology.NodeID
	// row holds the coefficients of the stage's row, indexed by stripe
	// position (nil for a write).
	row []byte
	// up is the stage whose slices this one receives (nil at a head); next
	// are the stages that receive from this one.
	up   *chainStage
	next []*chainStage
	// acc points to the row's one buffer, shared by every stage of the row:
	// in a fold a zero block the loop makes at the row's first step, which
	// each stage sums its members into in place once up has finished the
	// slice; the caller's bytes in a write.
	acc *[]byte
	// in is the inbound stream from up's node (nil at a head), which up books
	// on, and arrived the instant each slice up has booked on it arrives, in
	// slice order (every slice is there at the start for a head).
	in      *fabric.Stream
	arrived []time.Time
	// disk is the node's members the stage folds with row, read once for
	// every stage of the run on the node (nil at a stage without members: a
	// delivery stage or a write), done counts the slices the stage has folded
	// and forwarded, and wait is the instant a full forward stream has room
	// again (Stream.Room; the zero time while none is full).
	disk          *diskShare
	done          int
	wait          time.Time
	tFirst, tLast time.Time
}

// inputs is the instant the stage's next slice has arrived from upstream and
// from its disk; the caller has checked that both are booked.
func (st *chainStage) inputs() time.Time {
	t := st.arrived[st.done]
	if st.disk != nil {
		t = later(t, st.disk.arrived[st.done])
	}
	return t
}

// diskReader is one node's read-ahead in a stage loop: the disk stream the
// members of every run on the node are booked on, slice by slice. shares are
// the runs' reads in admission order, low the one it books next (pick), and
// wait the instant the disk stream has room again.
type diskReader struct {
	node   topology.NodeID
	disk   *fabric.Stream
	shares []*diskShare
	low    *diskShare
	wait   time.Time
}

// diskShare is one run's read on a node's disk, once for every stage of the
// run on the node: the members of the stripe they fold, by stripe position
// (positions) and store key (keys), and the stored blocks, read-only and
// unverified until the read-ahead has read them. booked counts the bytes of
// the next slice booked so far, arrived the instant each booked slice
// arrives, and sums each block's running checksum over the slices booked so
// far (read).
type diskShare struct {
	run       *stageRun
	stripe    topology.StripeID
	positions []int
	keys      []blockstore.Key
	blocks    []blockstore.Sealed
	sums      []uint32
	booked    int
	arrived   []time.Time
}

// pick sets low to the share the reader books next: of those with a slice
// not yet booked, the one whose slice starts lowest in its block, the
// earliest admitted on a tie, so the disk serves the runs' slices in the
// order their stages need them; nil once every slice is booked. Runs may walk
// different slices, so the order is by offset, not by slice index. Only an
// admission and a booked slice change it.
func (r *diskReader) pick() {
	r.low = nil
	for _, d := range r.shares {
		if len(d.arrived) < d.run.nSlices && (r.low == nil || d.offset() < r.low.offset()) {
			r.low = d
		}
	}
}

// offset is where the share's next slice starts in the block.
func (d *diskShare) offset() int { return len(d.arrived) * d.run.slice }

// stageRun is one block walked through a list of stages in a stage loop: one
// fold, or one replicated write. Every stage with no upstream is a head, and
// a stage is listed after the one it receives from. The run walks the block
// in nSlices slices of slice bytes from its admission, start, to end, the
// instant its last stage forwarded its last slice; its stages' inbound
// streams are open in between. left counts the stages still walking. At the
// run's end finish runs on the loop's goroutine with its blocks, then release,
// which returns what the run holds (a repair's span) and which the loop's
// close runs for a run that never ended. A run that fails on the way, a member
// failing its checksum (stageLoop.read), leaves the loop at once and hands the
// error to fail, which takes over what the run holds: it releases it, or hands
// it to a run it re-plans into the loop, and returns the error that ends the
// loop, if any (by default it releases and returns the error). next is the
// stage with the run's earliest step, at its instant (schedule).
type stageRun struct {
	stages         []*chainStage
	slice, nSlices int
	start, end     time.Time
	spans          []*telemetry.Span
	left           int
	finish         func(blocks [][]byte) error
	release        func()
	fail           func(error) error
	next           int
	at             time.Time
}

// blocks returns the buffer of every stage that forwards to none, in list
// order: a fold's rows, each in the block it ended in.
func (run *stageRun) blocks() (out [][]byte) {
	for _, st := range run.stages {
		if len(st.next) == 0 {
			out = append(out, *st.acc)
		}
	}
	return out
}

// schedule finds the run's earliest stage step, the first in list order on a
// tie; next is -1 while no stage has both inputs of its next slice booked.
// Only the run's own steps and its disk reads change when its stages can
// step, and the loop calls schedule after each, so the loop's scan for the
// earliest step looks at one instant a run.
func (run *stageRun) schedule() {
	run.next = -1
	for i, st := range run.stages {
		if st.done == len(st.arrived) || st.disk != nil && st.done == len(st.disk.arrived) {
			continue
		}
		if t := later(st.inputs(), st.wait); run.next < 0 || t.Before(run.at) {
			run.next, run.at = i, t
		}
	}
}

// stageLoop is the package's one event loop. It walks the runs admitted to
// it, in admission order, on its caller's goroutine; runs that share a node
// share its read-ahead, one disk stream a node for the loop's life. observe,
// when set, sees every slice a read-ahead books (readAheadKey).
type stageLoop struct {
	c       *Cluster
	runs    []*stageRun
	readers []*diskReader
	observe func(node topology.NodeID, run *stageRun, offset int)
}

// readAheadKey is the context key of a function a stage loop hands every
// slice its read-ahead books: the node, the run it is for and where the slice
// starts in the block. Tests use it to check the order a disk serves.
type readAheadKey struct{}

// newStage appends to stages a stage at node that receives acc from up.
func newStage(stages []*chainStage, node topology.NodeID, up *chainStage, acc *[]byte) []*chainStage {
	st := &chainStage{node: node, up: up, acc: acc}
	if up != nil {
		up.next = append(up.next, st)
	}
	return append(stages, st)
}

// chainLedger counts the network transfers of one fold, one block each.
type chainLedger struct {
	// hops are the inbound partial-sum transfers between holders, summed over
	// the rows' chains; crossHops those that crossed the rack core.
	hops, crossHops int
	// deliveries are the finished rows a chain's last holder streamed to a
	// sink that is no hop of the cover.
	deliveries, crossDeliveries int
}

// holder names one stored copy of a stripe position.
type holder struct {
	node topology.NodeID
	pos  int
}

// holderError reports that a hop could not read a member it was planned to
// fold: a copy missing when the fold was planned, or one that failed its
// checksum as the read-ahead read it. The callers re-plan around the named
// holder.
type holderError struct {
	holder
	stripe topology.StripeID
	err    error
}

func (e *holderError) Error() string {
	return fmt.Sprintf("stripe %d position %d on node %d: %v", e.stripe, e.pos, e.node, e.err)
}

func (e *holderError) Unwrap() error { return e.err }

// minSliceBytes is the smallest slice a fold derives: below it the per-slice
// cost of a booking dominates whatever the link rate.
const minSliceBytes = 4 << 10

// fillShare bounds a stage run's fill to 1/fillShare of a block time.
const fillShare = 16

// sliceCPUTime is the link time below which a slice costs more in per-slice
// CPU (a booking, a wake-up, a fold call) than it saves in fill.
const sliceCPUTime = 100 * time.Microsecond

// foldSliceBytes returns the slice a stage run anchored at the given node
// walks the block in, the one slice rule of the package. A run whose longest
// path has S fabric streams in series takes B/R + (S-1)·s/R for block B, link
// rate R and slice s: one block time plus the fill, since every stage books
// its forward from the instant the slice was ready, not from when its host
// woke up. A smaller slice fills faster but costs more bookings — each takes
// CPU, and runs sharing a link interleave at the slice grain — so the slice is
// the largest power of two up to fabric.ChunkBytes that keeps the fill within
// 1/fillShare of the block time, at least minSliceBytes. Where a link moves
// more than a slice in sliceCPUTime at the anchor's current NIC rate (rates
// change under Fabric.SetAllRates), as on an unshaped fabric, per-slice CPU is
// the only cost and the slice grows past that too. Of 256 KiB blocks on 16
// MiB/s links, a 13-stage degraded read walks 4 KiB slices and an encode
// whose row chains are three streams deep 8 KiB; a run one stream deep (a
// copy; a write whose other replica is the writer's own) has no fill and
// walks fabric.ChunkBytes, the grain a Send is shaped at anyway.
func (c *Cluster) foldSliceBytes(anchor topology.NodeID, streams int) int {
	rate, err := c.fab.NodeRate(anchor)
	if err != nil {
		return fabric.ChunkBytes // an unknown anchor fails when its stream opens
	}
	slice := minSliceBytes
	for slice < fabric.ChunkBytes &&
		(float64(2*slice) <= rate*sliceCPUTime.Seconds() || 2*slice*(streams-1)*fillShare <= c.cfg.BlockSizeBytes) {
		slice *= 2
	}
	return slice
}

// runStages walks one block through the stages slice by slice, a loop of one
// run, and returns the run; the first error (a cancelled ctx included) ends the
// run at once. span opens stage s's span.
func (c *Cluster) runStages(ctx context.Context, stages []*chainStage, anchor topology.NodeID, span func(s int, st *chainStage) *telemetry.Span) (*stageRun, error) {
	l := &stageLoop{c: c}
	defer l.close()
	run, err := l.admit(ctx, stages, anchor, span)
	if err != nil {
		return nil, err
	}
	return run, l.run(ctx, 0, nil)
}

// admit adds a run of the stages to the loop. It only opens streams: every
// stage's inbound stream from its upstream stage's node, and the disk stream
// of each node with members the loop reads from no run yet (a same-node
// stream is the node's disk). Every stage of the run on a node shares one
// read of the node's members. The walk's grain is foldSliceBytes of the
// anchor and of how many streams deep the stages are; span opens stage s's
// span under the one carried by ctx, which ends once the stage has forwarded
// its last slice and carries the grain as its "slice" arg. On error the run
// is not admitted: its streams are closed and its reads join no read-ahead.
func (l *stageLoop) admit(ctx context.Context, stages []*chainStage, anchor topology.NodeID, span func(s int, st *chainStage) *telemetry.Span) (*stageRun, error) {
	streams := 0
	for _, st := range stages {
		depth := 0
		for s := st; s.up != nil; s = s.up {
			depth++
		}
		streams = max(streams, depth)
	}
	run := &stageRun{stages: stages, slice: l.c.foldSliceBytes(anchor, streams), left: len(stages),
		finish: func([][]byte) error { return nil }, release: func() {}}
	run.fail = func(err error) error {
		run.release()
		return err
	}
	run.nSlices = (l.c.cfg.BlockSizeBytes + run.slice - 1) / run.slice
	shares := make(map[topology.NodeID]*diskShare)
	for _, st := range stages {
		if st.up != nil {
			in, err := l.c.fab.OpenStream(ctx, st.up.node, st.node)
			if err != nil {
				run.closeStreams()
				return nil, err
			}
			st.in = in
		}
		if st.disk == nil || shares[st.node] != nil {
			continue
		}
		if !slices.ContainsFunc(l.readers, func(r *diskReader) bool { return r.node == st.node }) {
			disk, err := l.c.fab.OpenStream(ctx, st.node, st.node)
			if err != nil {
				run.closeStreams()
				return nil, err
			}
			l.readers = append(l.readers, &diskReader{node: st.node, disk: disk})
		}
		shares[st.node] = st.disk
	}
	for _, r := range l.readers {
		if d := shares[r.node]; d != nil {
			d.run = run
			r.shares = append(r.shares, d)
			r.pick()
		}
	}
	run.start = time.Now()
	sliceArg := strconv.Itoa(run.slice)
	run.spans = make([]*telemetry.Span, len(stages))
	for s, st := range stages {
		run.spans[s] = span(s, st).Arg("slice", sliceArg)
		for st.up == nil && len(st.arrived) < run.nSlices {
			st.arrived = append(st.arrived, run.start)
		}
	}
	run.schedule()
	l.runs = append(l.runs, run)
	return run, nil
}

// run walks every admitted run to its end. A read-ahead step books one chunk
// of a node's members for the next slice diskReader.pick names, ready at its
// run's start: they arrive beside the inbound slices instead of between
// receive and fold. Once a slice is booked whole the read-ahead extends each
// member's running checksum over it, and checks the sum with the member's last
// slice, before any stage can fold that slice: a run never finishes on a
// member that fails, and the one that does costs at most its own run's
// traffic. A stage step takes its next slice once the upstream sum and the
// node's members have arrived, folds its row over the members into the row's
// buffer in place (made at a fold row's first step, so its zeroing and page
// faults delay no earlier booking) and books the slice on the inbound stream
// of every stage after it, ready at the instant its inputs arrived rather than
// at the later instant the loop got to it (a head's slices are ready at its
// run's start). Bookings run ahead of the arrivals as far as a stream's
// window allows; a step whose stream is full waits for the instant
// Stream.Room names as a step of its own, so no Book blocks and one full
// stream never stalls the rest of the loop. The loop takes the earliest step
// and sleeps until its instant: on time (fabric.SleepUntilExact) before the
// step that ends a run, up to the host's timer tick late before any other. At
// one instant read-ahead steps run before stage steps and stages in admission
// order, then in list order, so rows that share a link book it in row order.
// Before each step the loop calls admit(i) for its items i = 0..n-1 (n < 0:
// no end) in turn, for as many as it can: an admission only plans and opens
// streams, so every run that can join does before the next booking, and no
// run waits behind another's setting up. admit reports false to be asked for
// item i again after the next step, and an idle loop ends when it does. A run
// whose last stage has forwarded its last slice ends at once (finish); one
// whose member fails its checksum leaves at once (abort). The first error
// ends the loop.
func (l *stageLoop) run(ctx context.Context, n int, admit func(i int) (bool, error)) error {
	blockSize := l.c.cfg.BlockSizeBytes
	l.observe, _ = ctx.Value(readAheadKey{}).(func(topology.NodeID, *stageRun, int))
	admitted := 0
	for {
		for n < 0 || admitted < n {
			more, err := admit(admitted)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			admitted++
		}
		var at time.Time
		var r *diskReader
		var run *stageRun
		for _, rd := range l.readers {
			if rd.low != nil {
				if t := later(rd.low.run.start, rd.wait); r == nil || t.Before(at) {
					at, r = t, rd
				}
			}
		}
		for _, sr := range l.runs {
			if sr.next >= 0 && ((r == nil && run == nil) || sr.at.Before(at)) {
				at, r, run = sr.at, nil, sr
			}
		}
		if r == nil && run == nil {
			return nil
		}
		// A step that ends its run is the end of a write, a degraded read or a
		// fold's commit, which a caller times: it wakes on time. Every other
		// step's forward is back-dated to its inputs, which absorbs an
		// oversleep.
		sleep := fabric.SleepUntil
		if run != nil && run.left == 1 && run.stages[run.next].done == run.nSlices-1 {
			sleep = fabric.SleepUntilExact
		}
		if err := sleep(ctx, at); err != nil {
			return err
		}
		if r != nil {
			if err := l.read(ctx, r); err != nil {
				return err
			}
			continue
		}
		s := run.next
		st := run.stages[s]
		lo := st.done * run.slice
		hi := min(lo+run.slice, blockSize)
		st.wait = time.Time{}
		for _, n := range st.next {
			st.wait = later(st.wait, n.in.Room(hi-lo))
		}
		if !st.wait.IsZero() {
			run.schedule()
			continue
		}
		// Fold the node's members into the row's sum for this slice, then
		// send it on, ready when its inputs arrived, attributed by the fabric
		// to every link of the hop.
		if *st.acc == nil {
			*st.acc = make([]byte, blockSize)
		}
		if d := st.disk; d != nil {
			for i, pos := range d.positions {
				if coef := st.row[pos]; coef != 0 {
					gf256.MulAddSlice(coef, d.blocks[i].Bytes()[lo:hi], (*st.acc)[lo:hi])
				}
			}
		}
		now := time.Now()
		if st.tFirst.IsZero() {
			st.tFirst = now
		}
		st.tLast = now
		ready := st.inputs()
		for _, n := range st.next {
			arrival, err := n.in.Book(ctx, hi-lo, ready)
			if err != nil {
				return err
			}
			n.arrived = append(n.arrived, arrival)
		}
		st.done++
		run.schedule()
		if st.done < run.nSlices {
			continue
		}
		run.spans[s].End()
		if run.left--; run.left == 0 {
			if err := l.finish(run); err != nil {
				return err
			}
		}
	}
}

// read is a read-ahead step of reader r: it books the next chunk of its next
// share on the node's disk, or records the instant the disk has room again.
// Once the share's slice is booked whole, the slice of every member is run
// into the member's checksum, and a member whose last slice it was is checked:
// one that fails aborts its run with a holderError.
func (l *stageLoop) read(ctx context.Context, r *diskReader) error {
	blockSize := l.c.cfg.BlockSizeBytes
	d := r.low
	lo := d.offset()
	hi := min(lo+d.run.slice, blockSize)
	bytes := len(d.blocks) * (hi - lo)
	n := min(fabric.ChunkBytes, bytes-d.booked)
	if r.wait = r.disk.Room(n); !r.wait.IsZero() {
		return nil
	}
	arrival, err := r.disk.Book(ctx, n, d.run.start)
	if err != nil {
		return err
	}
	if d.booked += n; d.booked < bytes {
		return nil
	}
	if l.observe != nil {
		l.observe(r.node, d.run, lo)
	}
	for i, b := range d.blocks {
		d.sums[i] = b.Update(d.sums[i], lo, hi)
		if hi < blockSize {
			continue
		}
		if err := b.Check(d.sums[i]); err != nil {
			l.c.replicaCorrupt(ctx, d.stripe, d.keys[i], r.node)
			return l.abort(d.run, &holderError{holder{r.node, d.positions[i]}, d.stripe, err})
		}
	}
	d.arrived, d.booked = append(d.arrived, arrival), 0
	r.pick()
	d.run.schedule()
	return nil
}

// finish ends a run whose every stage has forwarded its last slice: it leaves
// the loop, and its finish, handed the run's blocks, and release run.
func (l *stageLoop) finish(run *stageRun) error {
	run.end = time.Now()
	l.leave(run)
	defer run.release()
	return run.finish(run.blocks())
}

// abort ends a run before its end, on err: it leaves the loop, its open spans
// end, and its fail takes over what it holds.
func (l *stageLoop) abort(run *stageRun, err error) error {
	l.leave(run)
	for _, sp := range run.spans {
		sp.End()
	}
	return run.fail(err)
}

// leave takes a run out of the loop: its streams close, and its reads leave
// the read-aheads, which pick their next share again.
func (l *stageLoop) leave(run *stageRun) {
	run.closeStreams()
	l.runs = slices.DeleteFunc(l.runs, func(r *stageRun) bool { return r == run })
	for _, r := range l.readers {
		r.shares = slices.DeleteFunc(r.shares, func(d *diskShare) bool { return d.run == run })
		r.pick()
	}
}

// closeStreams closes the inbound streams the run's stages have open.
func (run *stageRun) closeStreams() {
	for _, st := range run.stages {
		if st.in != nil {
			st.in.Close()
		}
	}
}

// close ends the loop: every run it has not finished closes its streams,
// ends its open spans and releases, and every node's disk stream closes.
func (l *stageLoop) close() {
	for _, run := range l.runs {
		run.closeStreams()
		for _, sp := range run.spans {
			sp.End()
		}
		run.release()
	}
	for _, r := range l.readers {
		r.disk.Close()
	}
}

// later returns the later of two instants.
func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// foldStages plans a fold and returns its stages: row j's block, the sum over
// pos of rows[j][pos] * content(pos), landed at sinks[j] and handed to the
// run's finish in row order. holders[pos] lists the holders of stripe
// position pos (empty: the position contributes nothing — zero content or an
// unused survivor) and key maps a position to its store key. The holders are
// covered once, planned toward the anchor (placement.PlanPipeline), which
// takes no part in the fold unless it holds a member, and each row walks that
// cover in a chain of its own ordered toward sinks[j]
// (placement.OrderPipeline): one stage per covered hop, all summing in place
// into the block the loop makes at the row's first step, and a delivery stage
// when the sink is no hop. With nothing but zeros to fold, the anchor
// originates them. The stages of a hop share one diskShare of its members,
// the stored blocks taken unverified: the read-ahead verifies them slice by
// slice before the run can end (stageLoop.read), so a bad member costs at most
// its run's traffic and is re-planned around by the run's owner. A member
// missing from its holder's store fails here, a holderError before any stream
// opens.
func (c *Cluster) foldStages(stripe topology.StripeID, rows [][]byte, holders [][]topology.NodeID, key func(pos int) blockstore.Key, anchor topology.NodeID, sinks []topology.NodeID) ([]*chainStage, error) {
	cover, err := placement.PlanPipeline(c.top, holders, anchor)
	if err != nil {
		return nil, fmt.Errorf("stripe %d: %w", stripe, err)
	}
	if len(cover) == 0 {
		cover = []placement.PipelineHop{{Node: anchor}}
	}
	shares := make(map[topology.NodeID]*diskShare, len(cover))
	for _, h := range cover {
		if len(h.Positions) == 0 {
			continue
		}
		dn, err := c.DataNodeOf(h.Node)
		if err != nil {
			return nil, err
		}
		d := &diskShare{stripe: stripe, positions: h.Positions, sums: make([]uint32, len(h.Positions))}
		for _, pos := range h.Positions {
			b, err := dn.Store.Unverified(key(pos))
			if err != nil {
				return nil, &holderError{holder{h.Node, pos}, stripe, err}
			}
			d.keys = append(d.keys, key(pos))
			d.blocks = append(d.blocks, b)
		}
		shares[h.Node] = d
	}
	stages := make([]*chainStage, 0, len(rows)*(len(cover)+1))
	for j, sink := range sinks {
		sinkRack, _ := c.top.RackOf(sink) // an unknown sink fails when its stream opens
		var up *chainStage
		acc := new([]byte)
		for _, h := range placement.OrderPipeline(cover, sink, sinkRack, sinks...) {
			stages = newStage(stages, h.Node, up, acc)
			up = stages[len(stages)-1]
			up.row, up.disk = rows[j], shares[h.Node]
		}
		if up.node != sink {
			stages = newStage(stages, sink, up, acc)
		}
	}
	return stages, nil
}

// hopSpans opens the span of a fold's stage: a raidnode.chain-hop track under
// the span carried by ctx.
func hopSpans(ctx context.Context, stripe topology.StripeID) func(s int, st *chainStage) *telemetry.Span {
	parent := telemetry.SpanFromContext(ctx)
	return func(s int, st *chainStage) *telemetry.Span {
		members := 0
		if st.disk != nil {
			members = len(st.disk.positions)
		}
		return parent.ChildTrack("raidnode.chain-hop").
			Arg(telemetry.ComponentArg, "raidnode").
			Arg("stripe", strconv.FormatInt(int64(stripe), 10)).
			Arg("node", strconv.Itoa(int(st.node))).
			Arg("hop", strconv.Itoa(s)).
			Arg("members", strconv.Itoa(members))
	}
}

// foldLedger returns the ledger of a fold that ran from start to end and
// observes its pipe depth: a stage with an upstream and members is a hop,
// one without members a delivery.
func (c *Cluster) foldLedger(stages []*chainStage, start, end time.Time) chainLedger {
	var ledger chainLedger
	for _, st := range stages {
		switch {
		case st.up == nil:
		case st.disk != nil:
			ledger.hops++
			if st.in.Cross() {
				ledger.crossHops++
			}
		default:
			ledger.deliveries++
			if st.in.Cross() {
				ledger.crossDeliveries++
			}
		}
	}
	if tel := c.metrics(); tel != nil {
		busy := time.Duration(0)
		for _, st := range stages {
			busy += st.tLast.Sub(st.tFirst)
			tel.pipeHopFill.Observe(st.tFirst.Sub(start).Seconds())
			tel.pipeHopDrain.Observe(end.Sub(st.tLast).Seconds())
		}
		if wall := end.Sub(start); wall > 0 {
			tel.pipeDepth.Observe(busy.Seconds() / wall.Seconds())
		}
	}
	return ledger
}

// parityFold admits the fold of a planned stripe's parity to its encode job's
// loop: the m parity rows folded over the replica holders, one chain per row,
// so that parity j ends on plan.Parity[j], in the block the run hands its
// finish for row j (sp.Blocks), which the commit stores as it is, beside the
// aborted-member mask (sp.Aborted). The holders are covered toward the first
// parity holder in the encoder's rack (toward the encoder when that rack holds
// no parity), and are read through posHolders, the rule every fold of a member
// follows. A replica missing when the fold is planned, or failing its checksum
// as the loop reads it, is excluded (replan) and the fold planned again in the
// same loop, until a member has no replica left (ErrNoReplica). When the
// excluded replica is the one the plan keeps, a copy of the member to its node
// (foldMember) joins the loop beside the re-planned fold and replaces the bad
// copy as it ends: without it the encode would delete every good copy and
// leave the bad one as the block's only replica. Once the fold and every such
// rewrite have ended, sp has the stripe's CrossRackDownloads (the per-row hops
// whose partial sum crossed a rack, plus one per rewrite that crossed),
// CrossRackUploads (the deliveries that crossed) and PartialSumBytes (one
// block per per-row hop between holders), and commit runs.
func (c *Cluster) parityFold(ctx context.Context, loop *stageLoop, info *placement.StripeInfo, encoder topology.NodeID, plan *placement.PostEncodingPlan, sp *StripeParity, commit func() error) error {
	anchor := encoder
	if j := slices.IndexFunc(plan.Parity, func(p topology.NodeID) bool {
		same, _ := c.top.SameRack(p, encoder) // an unknown node fails when its stream opens
		return same
	}); j >= 0 {
		anchor = plan.Parity[j]
	}
	rows := make([][]byte, c.coder.M())
	for j := range rows {
		row, err := c.coder.ParityRowView(j)
		if err != nil {
			return err
		}
		rows[j] = row
	}
	sm := &StripeMeta{Info: info}
	key := func(pos int) blockstore.Key { return DataKey(info.Blocks[pos]) }
	bad := make(map[holder]bool)
	sp.Aborted = make([]bool, len(info.Blocks))
	// pending counts the runs the commit waits for: the fold and every rewrite.
	pending := 1
	end := func() error {
		if pending--; pending > 0 {
			return nil
		}
		return commit()
	}
	rewrite := func(kept holder) error {
		pending++
		return c.foldMember(ctx, loop, sm, kept.pos, kept.node, bad, func() {}, func(block []byte, ledger chainLedger, err error) error {
			if err != nil {
				return err
			}
			dn, err := c.DataNodeOf(kept.node)
			if err != nil {
				return err
			}
			_ = dn.Store.Delete(key(kept.pos)) // a copy already missing was the failure
			if err := dn.Store.Adopt(key(kept.pos), blockstore.Own(block)); err != nil {
				return err
			}
			sp.CrossRackDownloads += ledger.crossHops + ledger.crossDeliveries
			return end()
		})
	}
	var admit func() error
	fail := func(err error) error {
		h, ok := replan(err, bad)
		if !ok {
			return err
		}
		// The fold first: with no copy of the member left it reports
		// ErrNoReplica, which no rewrite could mend.
		if err := admit(); err != nil || plan.Keep[h.pos] != h.node {
			return err
		}
		return rewrite(h)
	}
	admit = func() error {
		// Aborted members and short-stripe padding contribute zeros and need
		// no hop.
		holders := make([][]topology.NodeID, c.cfg.K)
		for i, b := range info.Blocks {
			live, known, err := c.posHolders(sm, i, bad)
			if err != nil {
				return err
			}
			if !known {
				return fmt.Errorf("stripe %d block %d: %w", info.ID, b, ErrNoReplica)
			}
			holders[i], sp.Aborted[i] = live, len(live) == 0
		}
		stages, err := c.foldStages(info.ID, rows, holders, key, anchor, plan.Parity)
		var run *stageRun
		if err == nil {
			run, err = loop.admit(ctx, stages, anchor, hopSpans(ctx, info.ID))
		}
		if err != nil {
			return fail(err)
		}
		run.fail = fail
		run.finish = func(blocks [][]byte) error {
			sp.Blocks = blocks
			ledger := c.foldLedger(stages, run.start, run.end)
			sp.CrossRackDownloads += ledger.crossHops
			sp.CrossRackUploads = ledger.crossDeliveries
			sp.PartialSumBytes = int64(ledger.hops) * int64(c.cfg.BlockSizeBytes)
			return end()
		}
		return nil
	}
	return admit()
}

// A member of an encoded stripe is addressed by (sm, pos): data members at
// 0..len(sm.Info.Blocks)-1, short-stripe padding (zeros, stored nowhere) up to
// k, parity rows from k to n-1. memberKey, recordedHolders and posHolders are
// the only code that turns that address into a store key or a node.

// memberKey returns the store key of stripe position pos, which must not be
// padding: the member block's data key below k, the stripe's parity key from k.
func (c *Cluster) memberKey(sm *StripeMeta, pos int) blockstore.Key {
	if pos < c.cfg.K {
		return DataKey(sm.Info.Blocks[pos])
	}
	return ParityKey(sm.Info.ID, pos-c.cfg.K)
}

// recordedHolders lists the nodes the NameNode records for position pos of an
// encoded stripe, dead ones included (posHolders narrows them to who can
// serve): a member block's replica set, nothing for padding, the planned
// holder of a parity row.
func (c *Cluster) recordedHolders(sm *StripeMeta, pos int) ([]topology.NodeID, error) {
	switch {
	case pos < len(sm.Info.Blocks):
		meta, err := c.nn.Block(sm.Info.Blocks[pos])
		if err != nil {
			return nil, err
		}
		return meta.Nodes, nil
	case pos < c.cfg.K:
		return nil, nil
	default:
		return []topology.NodeID{sm.Plan.Parity[pos-c.cfg.K]}, nil
	}
}

// posHolders resolves who can serve position i of a stripe (a parity row
// only of an encoded one): its live holders minus those a failed local read
// has excluded (bad), and whether the position's content is known at all —
// through a holder, or as the zeros of an aborted member or of short-stripe
// padding (no holder, no hop).
func (c *Cluster) posHolders(sm *StripeMeta, i int, bad map[holder]bool) ([]topology.NodeID, bool, error) {
	var nodes []topology.NodeID
	switch {
	case i < len(sm.Info.Blocks):
		live, err := c.nn.LiveReplicas(sm.Info.Blocks[i])
		if err != nil {
			return nil, false, err
		}
		if len(live) == 0 {
			meta, err := c.nn.Block(sm.Info.Blocks[i])
			return nil, err == nil && meta.Aborted, err
		}
		nodes = live
	case i < c.cfg.K:
		return nil, true, nil
	default:
		if node := sm.Plan.Parity[i-c.cfg.K]; !c.nn.IsDead(node) {
			nodes = []topology.NodeID{node}
		}
	}
	nodes = slices.DeleteFunc(nodes, func(n topology.NodeID) bool { return bad[holder{n, i}] })
	return nodes, len(nodes) > 0, nil
}

// rebuildStages plans the stages of a fold of one row that rebuilds stripe
// position pos (data or parity) at the sink. While a copy of the
// position survives the row is the unit row and the fold is a copy from the
// nearest holder, which needs no plan, so it serves a stripe not yet encoded
// too (one with no copy left has nothing to decode from: ErrNoReplica);
// otherwise the k lowest surviving positions of the encoded stripe (data
// before parity, the central decoder's choice) are folded with the
// coefficients of the cached decode row, one partial sum per survivor rack
// boundary. A holder whose local read fails is treated as erased: it joins
// bad, the caller's, kept across the folds it plans again after a run failed
// on a member's checksum (replan), and the survivors are re-selected until
// fewer than k are left (ErrNoReplica).
func (c *Cluster) rebuildStages(sm *StripeMeta, pos int, sink topology.NodeID, bad map[holder]bool) ([]*chainStage, error) {
	k, n := c.cfg.K, c.cfg.N
	key := func(p int) blockstore.Key { return c.memberKey(sm, p) }
	for {
		row := make([]byte, n)
		holders := make([][]topology.NodeID, n)
		live, known, err := c.posHolders(sm, pos, bad)
		if err != nil {
			return nil, err
		}
		if known {
			row[pos], holders[pos] = 1, live
		} else {
			if sm.Plan == nil {
				return nil, fmt.Errorf("%w: stripe %d position %d: no copy left, and the stripe is not encoded",
					ErrNoReplica, sm.Info.ID, pos)
			}
			indices := make([]int, 0, k)
			for i := 0; i < n && len(indices) < k; i++ {
				if i == pos {
					continue
				}
				h, ok, err := c.posHolders(sm, i, bad)
				if err != nil {
					return nil, err
				}
				if ok {
					holders[i] = h
					indices = append(indices, i)
				}
			}
			if len(indices) < k {
				return nil, fmt.Errorf("%w: stripe %d position %d: only %d of %d survivors available",
					ErrNoReplica, sm.Info.ID, pos, len(indices), k)
			}
			coeffs, err := c.coder.DecodeRow(indices, pos)
			if err != nil {
				return nil, err
			}
			for x, i := range indices {
				row[i] = coeffs[x]
			}
		}
		stages, err := c.foldStages(sm.Info.ID, [][]byte{row}, holders, key, sink, []topology.NodeID{sink})
		if _, ok := replan(err, bad); !ok {
			return stages, err
		}
	}
}

// replan reports whether a fold that failed with err can be planned again
// without the holder err names, and if so adds the holder to bad and returns
// it: err is a holderError. Each re-plan excludes one more holder, so
// re-planning ends; posHolders and rebuildStages say when too few are left.
func replan(err error, bad map[holder]bool) (holder, bool) {
	var he *holderError
	if !errors.As(err, &he) {
		return holder{}, false
	}
	bad[he.holder] = true
	return he.holder, true
}
