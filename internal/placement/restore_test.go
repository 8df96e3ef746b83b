package placement

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ear/internal/topology"
)

// drive places n blocks on p with a seeded rng choosing core racks, mirrors
// every decision into mirror via RestorePlacement, and fails on any
// divergence of the sealed stream.
func driveAndMirror(t *testing.T, cfg Config, n int, seed int64) (*EAR, *EAR) {
	t.Helper()
	live, err := NewEAR(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	// The mirror's rng is different on purpose: RestorePlacement must never
	// consume it.
	mirror, err := NewEAR(cfg, rand.New(rand.NewSource(seed+9999)))
	if err != nil {
		t.Fatal(err)
	}
	coreRng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < n; i++ {
		block := topology.BlockID(i)
		core := topology.RackID(coreRng.Intn(cfg.Topology.Racks()))
		pl, err := live.PlaceAt(block, core)
		if err != nil {
			t.Fatalf("PlaceAt(%d): %v", block, err)
		}
		err = mirror.RestorePlacement(block, core, pl.Nodes,
			live.LastPlaceTargets(), live.LastPlaceAttempts())
		if err != nil {
			t.Fatalf("RestorePlacement(%d): %v", block, err)
		}
		ls, ms := live.TakeSealed(), mirror.TakeSealed()
		if !reflect.DeepEqual(ls, ms) {
			t.Fatalf("sealed streams diverged after block %d:\nlive:   %+v\nmirror: %+v", block, ls, ms)
		}
	}
	return live, mirror
}

func TestRestorePlacementMirrorsLivePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Topology: mustTop(t, 8, 6), K: 6, N: 8}},
		{"target-racks", Config{Topology: mustTop(t, 8, 6), K: 6, N: 9, TargetRacks: 5, C: 2}},
		{"preliminary", Config{Topology: mustTop(t, 8, 6), K: 6, N: 8, Preliminary: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, mirror := driveAndMirror(t, tc.cfg, 200, 7)
			ln, lo := live.OpenState()
			mn, mo := mirror.OpenState()
			if ln != mn {
				t.Fatalf("next stripe: live %d, mirror %d", ln, mn)
			}
			if !reflect.DeepEqual(lo, mo) {
				t.Fatalf("open state diverged:\nlive:   %+v\nmirror: %+v", lo, mo)
			}
			// Both policies keep accepting blocks after the mirror run.
			if _, err := mirror.PlaceAt(topology.BlockID(10_000), 0); err != nil {
				t.Fatalf("mirror PlaceAt after restore: %v", err)
			}
		})
	}
}

func TestRestoreOpenStateRoundTrips(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 8, 6), K: 6, N: 8}
	live, _ := driveAndMirror(t, cfg, 100, 3)
	next, open := live.OpenState()
	if len(open) == 0 {
		t.Fatal("test needs at least one open stripe; tune the block count")
	}

	fresh, err := NewEAR(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreOpenState(next, open); err != nil {
		t.Fatalf("RestoreOpenState: %v", err)
	}
	n2, open2 := fresh.OpenState()
	if n2 != next || !reflect.DeepEqual(open2, open) {
		t.Fatalf("round trip diverged:\nwant %d %+v\ngot  %d %+v", next, open, n2, open2)
	}
	// The restored stripes are live: filling an open stripe to k seals it.
	info := open[0]
	for i := len(info.Blocks); i < cfg.K; i++ {
		if _, err := fresh.PlaceAt(topology.BlockID(1000+i), info.CoreRack); err != nil {
			t.Fatalf("PlaceAt on restored stripe: %v", err)
		}
	}
	sealed := fresh.TakeSealed()
	if len(sealed) != 1 || sealed[0].ID != info.ID {
		t.Fatalf("restored stripe did not seal: %+v", sealed)
	}
	if len(sealed[0].Blocks) != cfg.K {
		t.Fatalf("sealed stripe has %d blocks, want %d", len(sealed[0].Blocks), cfg.K)
	}
}

func TestDropOpenRemovesStripe(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 8, 6), K: 6, N: 8}
	p, err := NewEAR(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlaceAt(1, 2); err != nil {
		t.Fatal(err)
	}
	info := p.DropOpen(2)
	if info == nil || info.CoreRack != 2 || len(info.Blocks) != 1 {
		t.Fatalf("DropOpen(2) = %+v", info)
	}
	if p.DropOpen(2) != nil {
		t.Fatal("second DropOpen(2) should return nil")
	}
	if got := p.FlushOpen(); len(got) != 0 {
		t.Fatalf("FlushOpen after DropOpen: %+v", got)
	}
}

func TestRestorePlacementRejectsInfeasibleLayout(t *testing.T) {
	// Three blocks sharing one identical two-node layout: the two nodes can
	// route only two blocks to the sink, so the third recorded layout is
	// infeasible and must be rejected, not silently accepted.
	cfg := Config{Topology: mustTop(t, 4, 4), K: 3, N: 4, TargetRacks: 2, C: 2, Replicas: 2}
	p, err := NewEAR(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	targets := []topology.RackID{0, 1}
	layout := []topology.NodeID{0, 4} // rack 0 node, rack 1 node
	for b := topology.BlockID(1); b <= 2; b++ {
		if err := p.RestorePlacement(b, 0, layout, targets, 1); err != nil {
			t.Fatalf("restore %d: %v", b, err)
		}
	}
	if err := p.RestorePlacement(3, 0, layout, targets, 1); err == nil {
		t.Fatal("third identical layout should be infeasible and rejected")
	}
}

// TestRestoreOpenStateRejectsInfeasibleLayout: a snapshot whose open stripe
// records the three identical layouts above is refused, and its first two
// alone restore. k is 4 here, so that the open stripe is not refused for
// holding k blocks first.
func TestRestoreOpenStateRejectsInfeasibleLayout(t *testing.T) {
	cfg := Config{Topology: mustTop(t, 4, 4), K: 4, N: 5, TargetRacks: 3, C: 2, Replicas: 2}
	p, err := NewEAR(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rec := &StripeInfo{ID: 5, CoreRack: 0, Targets: []topology.RackID{0, 1, 2}}
	for b := topology.BlockID(1); b <= 3; b++ {
		rec.Blocks = append(rec.Blocks, b)
		rec.Placements = append(rec.Placements, topology.Placement{Block: b, Nodes: []topology.NodeID{0, 4}})
		rec.Iterations = append(rec.Iterations, 1)
	}
	if err := p.RestoreOpenState(6, []*StripeInfo{rec}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("RestoreOpenState of three identical layouts: %v, want the third rejected", err)
	}
	two := rec.Clone()
	two.Blocks, two.Placements, two.Iterations = two.Blocks[:2], two.Placements[:2], two.Iterations[:2]
	if err := p.RestoreOpenState(6, []*StripeInfo{two}); err != nil {
		t.Fatalf("RestoreOpenState of the first two layouts: %v", err)
	}
	if next, open := p.OpenState(); next != 6 || !reflect.DeepEqual(open, []*StripeInfo{two}) {
		t.Fatalf("open state after the restore: %d %+v, want 6 %+v", next, open, two)
	}
}
