package spinrec

import (
	"testing"

	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
)

// spinNet builds SPIN's network configuration: plain VCs (no escape
// discipline), strictly minimal adaptive routing so deadlocks actually
// form for the recovery machinery to resolve.
func spinNet(t *testing.T, g *topology.Graph, vcs int, seed uint64) *noc.Network {
	t.Helper()
	n, err := noc.New(noc.Config{
		Graph:        g,
		VNets:        1,
		VCsPerVN:     vcs,
		Classes:      1,
		Routing:      routing.AdaptiveMinimal,
		DerouteAfter: -1,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSpinResolvesSaturationDeadlock mirrors the DRAIN controller test:
// SPIN must keep an unprotected adaptive network making progress.
func TestSpinResolvesSaturationDeadlock(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	n := spinNet(t, g, 1, 5)
	c := New(n, 256)
	dst := func(cyc, r int) int {
		d := (r*7 + cyc*13 + 5) % 16
		if d == r {
			d = (d + 1) % 16
		}
		return d
	}
	created, delivered := 0, 0
	lastDelivered, lastProgress := 0, 0
	for cyc := 0; cyc < 30000; cyc++ {
		for r := 0; r < 16; r++ {
			if n.InjQueueLen(r, 0) < 4 {
				if n.Inject(n.NewPacket(r, dst(cyc, r), 0, 1)) {
					created++
				}
			}
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 16; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				delivered++
			}
		}
		if delivered > lastDelivered {
			lastDelivered, lastProgress = delivered, cyc
		}
		if cyc-lastProgress > 6000 {
			t.Fatalf("no progress for 6000 cycles at %d (delivered %d/%d, spins %d)",
				cyc, delivered, created, c.Stats().Spins)
		}
	}
	if delivered < created/2 {
		t.Errorf("delivered %d of %d", delivered, created)
	}
	st := c.Stats()
	if st.Detections == 0 || st.Spins == 0 {
		t.Errorf("SPIN never detected/recovered: %+v", st)
	}
	if st.Probes == 0 || n.Counters.Probes == 0 {
		t.Error("probe cost never charged")
	}
}

func TestNoSpuriousSpinsWhenIdle(t *testing.T) {
	n := spinNet(t, topology.MustMesh(3, 3).Graph, 2, 2)
	c := New(n, 64)
	// Light, deadlock-free-in-practice traffic: one packet at a time.
	for round := 0; round < 20; round++ {
		p := n.NewPacket(0, 8, 0, 1)
		n.Inject(p)
		for i := 0; i < 200 && p.EjectedAt == 0; i++ {
			n.Step()
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 9; r++ {
				n.PopEjected(r, 0)
			}
		}
		if p.EjectedAt == 0 {
			t.Fatal("packet not delivered")
		}
	}
	if st := c.Stats(); st.Spins != 0 || st.Detections != 0 {
		t.Errorf("spurious recovery under light load: %+v", st)
	}
}

func TestDetectionLatencyRespectsTimeout(t *testing.T) {
	// A deadlock planted at cycle 0 must not spin before ~Timeout cycles.
	g, err := topology.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	n := spinNet(t, g, 1, 3)
	// Plant the canonical ring deadlock via saturating injection from
	// every node toward node+3 (both directions minimal... use +2 with
	// clockwise-only minimal candidates).
	// Simpler: drive to deadlock with traffic, then measure.
	timeout := int64(512)
	c := New(n, timeout)
	deadlockAt := int64(-1)
	spinAt := int64(-1)
	for cyc := 0; cyc < 20000 && spinAt < 0; cyc++ {
		for r := 0; r < 6; r++ {
			d := (r + 2) % 6
			if n.InjQueueLen(r, 0) < 2 {
				n.Inject(n.NewPacket(r, d, 0, 1))
			}
		}
		n.Step()
		if deadlockAt < 0 && n.HasDeadlock() {
			deadlockAt = n.Cycle()
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Spins > 0 {
			spinAt = n.Cycle()
		}
		for r := 0; r < 6; r++ {
			n.PopEjected(r, 0)
		}
	}
	if deadlockAt < 0 {
		t.Skip("traffic pattern did not deadlock on this seed")
	}
	if spinAt < 0 {
		t.Fatal("deadlock never recovered")
	}
	if spinAt-deadlockAt > 3*timeout {
		t.Errorf("recovery took %d cycles, want within ~%d", spinAt-deadlockAt, 3*timeout)
	}
}

// TestSpinDetectsCycleBesideFlowingTraffic plants a routing cycle on
// four routers while a flow elsewhere keeps ejecting. SPIN's timeout
// counters are per router, so the flow hides nothing: the cycle spins
// within Timeout plus the probe round trip of its forming.
func TestSpinDetectsCycleBesideFlowingTraffic(t *testing.T) {
	n := spinNet(t, topology.MustMesh(4, 4).Graph, 1, 1)
	ring := []int{0, 1, 5, 4}
	for i, r := range ring {
		if _, err := n.PlacePacket(r, ring[(i+1)%4], ring[(i+2)%4], 0); err != nil {
			t.Fatal(err)
		}
	}
	formedAt := n.Cycle()
	const timeout = 64
	c := New(n, timeout)
	ejected, spunAt := 0, int64(-1)
	for n.Cycle() < 512 && spunAt < 0 {
		if n.Cycle()%4 == 0 {
			n.Inject(n.NewPacket(15, 14, 0, 1))
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for r := range 16 {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				ejected++
			}
		}
		if c.Stats().Spins > 0 {
			spunAt = n.Cycle()
		}
	}
	st := c.Stats()
	if limit := formedAt + timeout + 2*int64(len(ring))*probeHopLatency; spunAt < 0 || spunAt > limit {
		t.Fatalf("spun at cycle %d (%+v, %d packets ejected beside the cycle), want by cycle %d", spunAt, st, ejected, limit)
	}
	if ejected == 0 || st.Detections != 1 {
		t.Errorf("%d packets ejected and %d detections by the spin, want some and 1", ejected, st.Detections)
	}
}
