//go:build !race || goexperiment.synctest

package hdfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ear/internal/topology"
)

// The tests whose verdict is a measured latency, written once for both
// clocks. heldTo is bubble_test.go's under GOEXPERIMENT=synctest, where an
// operation takes its model to the microsecond on every run, and
// wallclock_test.go's otherwise, where the model is a floor, the excess is
// logged as the phase's host tax and the limit tells the design from the one
// it replaced. The race detector on the wall clock allows neither: the one
// build this file is left out of.

// fillModel is what the design charges a stage run that moves one block
// through `streams` shaped network streams in series:
//
//	B/R + (S-1)·s/R + s/R_disk
//
// B/R is the block on the last link: senders book ahead of the arrivals, so
// no term grows with the number of slices. The rest is the fill: each stream
// before the last adds one slice's link time, after the slice's disk time
// where the head reads its members off a shaped disk (diskRate > 0).
func fillModel(blockBytes, sliceBytes, streams int, rate, diskRate float64) time.Duration {
	fill := time.Duration(streams-1) * onLink(sliceBytes, rate)
	if diskRate > 0 {
		fill += onLink(sliceBytes, diskRate)
	}
	return onLink(blockBytes, rate) + fill
}

// TestDegradedReadLatency checks that the chain stays full. On the benchmark
// geometry a degraded read folds over k survivors on distinct nodes — the
// head's disk, k-1 partial-sum hops and the delivery, k network streams in
// series — and takes one block time plus the fill, B/R + s/R_disk + (k-1)·s/R
// = 18.433 ms at the derived 4 KiB slice. The limit is the closed form of the
// engine whose stages booked each forward from the instant they woke up,
// which kept the slice at the millisecond of link time a timer sleeps at
// least (16 KiB): 26.855 ms, which that engine took in virtual time and
// overran by 8 ms on the wall.
func TestDegradedReadLatency(t *testing.T) {
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	setRates(t, c, 64<<30, 64<<30)
	// EAR seals a stripe per core rack: 4k blocks over 4 racks fill at least one.
	ids, contents := writeBlocks(t, c, 4*cfg.K, rand.New(rand.NewSource(61)))
	victim, _, _ := loseOneBlock(t, c, ids)
	setRates(t, c, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	var client topology.NodeID
	for c.NameNode().IsDead(client) {
		client++
	}
	slice := c.foldSliceBytes(client, cfg.K)
	model := fillModel(cfg.BlockSizeBytes, slice, cfg.K, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	wakeUpBound := fillModel(cfg.BlockSizeBytes, 16<<10, cfg.K, cfg.BandwidthBytesPerSec, cfg.DiskBandwidthBytesPerSec)
	heldTo(t, "degraded read", 2, model, wakeUpBound, func() {
		got, err := c.DegradedRead(client, victim)
		if err != nil || !bytes.Equal(got, contents[victim]) {
			t.Fatalf("degraded read: wrong bytes (err %v)", err)
		}
	})
}

// TestOneClientBlockLatency: with one closed-loop client on the benchmark
// geometry, nothing contending, a block written writer-local (own disk
// beside one hop across the core) and a block read from a remote replica are
// each one stream deep, so each is the block on one link, B/R = 15.625 ms, on
// every operation. The limit pins what the host adds to the two on its
// timers, which the bubble erases by construction. Senders book ahead of
// their arrivals, so only an op's last wake-up is paid, and it wakes on time
// (fabric.SleepUntilExact): a read is that wake and a checksummed store read,
// a write that wake, one sealed copy its replicas share and two NameNode
// calls. On a 2-core host, as the best median of 15 ops, a write measured
// 16.02-16.13 ms and a read 16.05-16.12 ms quiet, 16.01-16.06 and 15.95-15.97
// ms with both cores kept busy. With the last wake on the plain timer, up to
// the poller's millisecond tick late, and a store copy and checksum a
// replica, they measured 16.63-16.96 and 16.53-16.90 ms quiet, 16.42-16.54
// and 16.71-16.78 ms busy. B/R + 0.7 ms is a limit that the plain last wake
// misses on a quiet host and the exact one meets on a busy one.
func TestOneClientBlockLatency(t *testing.T) {
	cfg := benchGeometry()
	c := newCluster(t, cfg)
	rng := rand.New(rand.NewSource(71))
	data := make([]byte, cfg.BlockSizeBytes)
	rng.Read(data)
	var ids []topology.BlockID
	block := onLink(cfg.BlockSizeBytes, cfg.BandwidthBytesPerSec)
	limit := block + 700*time.Microsecond
	heldTo(t, "one client's WriteBlock", 15, block, limit, func() {
		id, err := c.WriteBlock(topology.NodeID(rng.Intn(c.Topology().Nodes())), data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	})
	heldTo(t, "one client's ReadBlock", 15, block, limit, func() {
		id := ids[rng.Intn(len(ids))]
		meta, err := c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		// A reader that holds no replica: the read is one transfer.
		reader := topology.NodeID(rng.Intn(c.Topology().Nodes()))
		for slices.Contains(meta.Nodes, reader) {
			reader = topology.NodeID(rng.Intn(c.Topology().Nodes()))
		}
		if _, err := c.ReadBlock(reader, id); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPipelinedWriteLatency checks the headline property of the chunk
// pipeline (RapidRAID's: a pipelined chain costs one block time plus its
// fill, not a block per hop). In a 3-replica write of a 1 MiB block on 8
// MiB/s links replica 1 is the writer's own (unshaped here), so the block
// crosses two network streams in series and takes B/R + s/R = 128.90625 ms
// in 32 KiB slices (132.8125 ms in 64 KiB, while the fill's budget was a
// sixteenth of the block time);
// the limit is 0.6 x the 375 ms that r sequential block transfers cost a
// store-and-forward chain.
func TestPipelinedWriteLatency(t *testing.T) {
	cfg := testConfig("rr")
	cfg.BlockSizeBytes = 1 << 20
	cfg.BandwidthBytesPerSec = 8 << 20
	c := newCluster(t, cfg)
	data := make([]byte, cfg.BlockSizeBytes)
	rand.New(rand.NewSource(3)).Read(data)
	const streams = 2 // writer -> replica 2 -> replica 3
	model := fillModel(cfg.BlockSizeBytes, c.foldSliceBytes(0, streams), streams, cfg.BandwidthBytesPerSec, 0)
	storeAndForward := time.Duration(cfg.Replicas) * onLink(cfg.BlockSizeBytes, cfg.BandwidthBytesPerSec)
	heldTo(t, "pipelined 3-replica write", 2, model, storeAndForward*6/10, func() {
		if _, err := c.WriteBlock(0, data); err != nil {
			t.Fatal(err)
		}
	})
}
