package placement

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ear/internal/topology"
)

// shuffledInFlight returns a ledger of the topology with 0, 1 or 2 replicas
// in flight to every node, drawn from rng, and every rack counting what its
// nodes do, as writes at r = 2 would leave it.
func shuffledInFlight(top *topology.Topology, rng *rand.Rand) *InFlight {
	l := NewInFlight(top)
	l.shuffle(rng)
	return l
}

// shuffle redraws the ledger's counts as shuffledInFlight draws them.
func (l *InFlight) shuffle(rng *rand.Rand) {
	for i := range l.racks {
		l.racks[i].Store(0)
	}
	for n := range l.nodes {
		c := int32(rng.Intn(3))
		r, _ := l.top.RackOf(topology.NodeID(n))
		l.nodes[n].Store(c)
		l.racks[r].Add(c)
	}
}

// leastOf returns the entries of pool with the fewest replicas in flight.
func leastOf[T topology.NodeID | topology.RackID](pool []T, load func(T) int) []T {
	var least []T
	for _, x := range pool {
		switch {
		case len(least) == 0 || load(x) < load(least[0]):
			least = append(least[:0], x)
		case load(x) == load(least[0]):
			least = append(least, x)
		}
	}
	return least
}

// TestPlaceFromAvoidsReplicasInFlight: over 1,000 seeded placements on the
// benchmark geometry, with a ledger loaded at random before each, replica 2
// lands in a rack with the fewest replicas in flight among those the draw
// may use — under EAR the remote racks where the open stripe has room — and
// on a node with the fewest among the rack's eligible ones; EAR's first
// candidate is still admitted. With a ledger that reads zero everywhere the
// layouts are a ledger-less policy's, draw for draw, for steered EAR, RR and
// preliminary EAR (which ignores even a loaded one). Once a stripe's room is
// exhausted the fallback and its retries ignore the ledger, so a search whose
// first candidate is rejected draws what a ledger-less one draws, up to
// ErrRetriesExhausted, instead of re-picking the least-loaded candidate.
func TestPlaceFromAvoidsReplicasInFlight(t *testing.T) {
	cfg := baseConfig(t, 4, 4, 14, 12)
	cfg.Replicas, cfg.C = 2, 4
	top := cfg.Topology
	const placements = 1000

	t.Run("steered", func(t *testing.T) {
		ledger := NewInFlight(top)
		ear, err := NewEAR(cfg, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		ear.SetInFlight(ledger)
		rr, err := NewRandom(cfg, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		rr.SetInFlight(ledger)
		rng := rand.New(rand.NewSource(43))
		avoided := 0
		for b := 0; b < placements; b++ {
			ledger.shuffle(rng)
			writer := topology.NodeID(rng.Intn(top.Nodes()))
			core, _ := top.RackOf(writer)
			// What EAR may draw from: the open stripe's room, or all of it.
			var room *stripeRoom
			if info := ear.open[core]; info != nil {
				room = ear.roomOf(info)
			}
			var racks []topology.RackID
			for _, r := range allRacks(top) {
				if r != core && (room == nil || room.blocks[r] < cfg.C && room.nodes[r] < top.NodesPerRack()) {
					racks = append(racks, r)
				}
			}
			taken := make([]bool, top.Nodes())
			if room != nil {
				copy(taken, room.taken)
			}
			untaken := func(r topology.RackID) []topology.NodeID {
				nodes, _ := top.NodesInRack(r)
				return slices.DeleteFunc(nodes, func(n topology.NodeID) bool { return taken[n] })
			}
			pl, err := ear.PlaceFrom(topology.BlockID(b), writer)
			if err != nil {
				t.Fatal(err)
			}
			if ear.LastPlaceAttempts() != 1 || len(racks) == 0 {
				t.Fatalf("block %d: %d candidates with %d remote racks of room; the geometry always has room", b, ear.LastPlaceAttempts(), len(racks))
			}
			rack, _ := top.RackOf(pl.Nodes[1])
			if least := leastOf(racks, ledger.Rack); !slices.Contains(least, rack) {
				t.Fatalf("EAR block %d: replica 2 in rack %d (%d in flight), the least loaded of %v are %v",
					b, rack, ledger.Rack(rack), racks, least)
			}
			if least := leastOf(untaken(rack), ledger.Node); !slices.Contains(least, pl.Nodes[1]) {
				t.Fatalf("EAR block %d: replica 2 on node %d (%d in flight), the least loaded are %v",
					b, pl.Nodes[1], ledger.Node(pl.Nodes[1]), least)
			}
			if len(leastOf(racks, ledger.Rack)) < len(racks) {
				avoided++
			}
			ear.TakeSealed()

			if pl, err = rr.PlaceFrom(topology.BlockID(b), writer); err != nil {
				t.Fatal(err)
			}
			clear(taken)
			racks = slices.DeleteFunc(allRacks(top), func(r topology.RackID) bool { return r == core })
			rack, _ = top.RackOf(pl.Nodes[1])
			if least := leastOf(racks, ledger.Rack); !slices.Contains(least, rack) {
				t.Fatalf("RR block %d: replica 2 in rack %d, the least loaded are %v", b, rack, least)
			}
			if least := leastOf(untaken(rack), ledger.Node); !slices.Contains(least, pl.Nodes[1]) {
				t.Fatalf("RR block %d: replica 2 on node %d, the least loaded are %v", b, pl.Nodes[1], least)
			}
		}
		if avoided < placements/2 {
			t.Fatalf("a loaded rack was there to avoid on %d of %d placements: the check is vacuous", avoided, placements)
		}
	})

	t.Run("zero ledger draws as none", func(t *testing.T) {
		prelim := cfg
		prelim.Preliminary = true
		loaded := shuffledInFlight(top, rand.New(rand.NewSource(44)))
		for _, arm := range []struct {
			name   string
			cfg    Config
			ledger *InFlight
			build  func(Config, *rand.Rand) (Policy, func(*InFlight), error)
		}{
			{"ear", cfg, NewInFlight(top), newEARPolicy},
			{"rr", cfg, NewInFlight(top), newRRPolicy},
			{"ear-preliminary", prelim, NewInFlight(top), newEARPolicy},
			{"ear-preliminary, loaded", prelim, loaded, newEARPolicy},
		} {
			with, set, err := arm.build(arm.cfg, rand.New(rand.NewSource(45)))
			if err != nil {
				t.Fatal(err)
			}
			set(arm.ledger)
			without, _, err := arm.build(arm.cfg, rand.New(rand.NewSource(45)))
			if err != nil {
				t.Fatal(err)
			}
			writers := rand.New(rand.NewSource(46))
			for b := 0; b < placements; b++ {
				writer := topology.NodeID(writers.Intn(top.Nodes()))
				if b%7 == 0 {
					writer = NoWriter
				}
				pw, errW := with.PlaceFrom(topology.BlockID(b), writer)
				po, errO := without.PlaceFrom(topology.BlockID(b), writer)
				if errW != nil || errO != nil || !reflect.DeepEqual(pw, po) {
					t.Fatalf("%s block %d: %v (%v) with the ledger, %v (%v) without", arm.name, b, pw, errW, po, errO)
				}
				if !reflect.DeepEqual(with.TakeSealed(), without.TakeSealed()) {
					t.Fatalf("%s block %d: sealed stripes differ", arm.name, b)
				}
			}
		}
	})

	// The hot writer of TestPlaceFromFallsBackInsideTheRack: 3 x 4 nodes,
	// (12,10), c = 4. Its first eight blocks take the eight remote nodes, so
	// blocks 9 and 10 are drawn with no room left, and block 10's first
	// candidate is always rejected.
	t.Run("fallback ignores the ledger", func(t *testing.T) {
		hot := baseConfig(t, 3, 4, 12, 10)
		hot.Replicas, hot.C = 2, 4
		const writer = topology.NodeID(6)
		// Every place but one carries a write: a steered draw would go there.
		ledger := NewInFlight(hot.Topology)
		for i := range ledger.nodes {
			ledger.nodes[i].Store(1)
		}
		ledger.nodes[0].Store(0)
		ledger.racks[2].Store(1)
		for _, maxRetries := range []int{0, 1} {
			hot.MaxRetries = maxRetries
			with, err := NewEAR(hot, rand.New(rand.NewSource(47)))
			if err != nil {
				t.Fatal(err)
			}
			without, err := NewEAR(hot, rand.New(rand.NewSource(47)))
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 2*hot.K; b++ {
				if b%hot.K == 8 {
					with.SetInFlight(ledger) // from here on, no room
				}
				if b%hot.K == 0 {
					with.SetInFlight(nil) // a fresh stripe's draws are steered
				}
				pw, errW := with.PlaceFrom(topology.BlockID(b), writer)
				po, errO := without.PlaceFrom(topology.BlockID(b), writer)
				if b%hot.K == 9 && maxRetries == 1 {
					if !errors.Is(errW, ErrRetriesExhausted) || !errors.Is(errO, ErrRetriesExhausted) {
						t.Fatalf("block %d with one candidate allowed: %v with the ledger, %v without; want ErrRetriesExhausted", b, errW, errO)
					}
					break
				}
				if errW != nil || errO != nil || !reflect.DeepEqual(pw, po) || with.LastPlaceAttempts() != without.LastPlaceAttempts() {
					t.Fatalf("block %d: %v after %d candidates (%v) with the ledger, %v after %d (%v) without",
						b, pw, with.LastPlaceAttempts(), errW, po, without.LastPlaceAttempts(), errO)
				}
				if b%hot.K == 9 && with.LastPlaceAttempts() < 2 {
					t.Fatalf("block %d: admitted on its first candidate; the fixture lost its rejection", b)
				}
			}
		}
	})
}

func newEARPolicy(cfg Config, rng *rand.Rand) (Policy, func(*InFlight), error) {
	p, err := NewEAR(cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	return p, p.SetInFlight, nil
}

func newRRPolicy(cfg Config, rng *rand.Rand) (Policy, func(*InFlight), error) {
	p, err := NewRandom(cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	return p, p.SetInFlight, nil
}
