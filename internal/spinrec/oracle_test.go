package spinrec

import (
	"testing"

	"drain/internal/topology"
)

// TestOracleDefaultPeriod: the oracle checks every oraclePeriod (8)
// cycles, so a planted deadlock stands until the first check and is
// broken there.
func TestOracleDefaultPeriod(t *testing.T) {
	g, err := topology.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	n := spinNet(t, g, 1, 1)
	for r := 0; r < 6; r++ {
		if _, err := n.PlacePacket(r, (r+1)%6, (r+3)%6, 0); err != nil {
			t.Fatal(err)
		}
	}
	o := NewOracle(n)
	for n.Cycle() < 8 {
		if err := o.Tick(); err != nil {
			t.Fatal(err)
		}
		if o.Breaks != 0 {
			t.Fatalf("the oracle broke a cycle at cycle %d, before its first check at 8", n.Cycle())
		}
		n.Step()
	}
	if err := o.Tick(); err != nil {
		t.Fatal(err)
	}
	if o.Breaks == 0 {
		t.Error("the oracle did not break the planted deadlock at its first check, cycle 8")
	}
}

func TestOracleIdleIsFree(t *testing.T) {
	n := spinNet(t, topology.MustMesh(3, 3).Graph, 2, 2)
	o := NewOracle(n)
	for i := 0; i < 200; i++ {
		n.Step()
		if err := o.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if o.Breaks != 0 {
		t.Errorf("oracle broke %d cycles in an empty network", o.Breaks)
	}
}

func TestSpinProbeDelayBeforeRotation(t *testing.T) {
	// After detection, the spin must wait the probe round-trip before
	// rotating (2 hops per cycle member at probeHopLatency).
	g, err := topology.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	n := spinNet(t, g, 1, 3)
	// Plant the canonical ring deadlock directly.
	for r := 0; r < 6; r++ {
		if _, err := n.PlacePacket(r, (r+1)%6, (r+3)%6, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := New(n, Config{Timeout: 50})
	detectedAt, spunAt := int64(-1), int64(-1)
	for i := 0; i < 1000 && spunAt < 0; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if detectedAt < 0 && st.Detections > 0 {
			detectedAt = n.Cycle()
		}
		if st.Spins > 0 {
			spunAt = n.Cycle()
		}
	}
	if detectedAt < 0 || spunAt < 0 {
		t.Fatalf("detected=%d spun=%d", detectedAt, spunAt)
	}
	// 6-member cycle × 2 walks × 1 cycle/hop = 12 cycles of delay.
	if d := spunAt - detectedAt; d != 12 {
		t.Errorf("spin fired %d cycles after detection, want the 12-cycle probe round trip", d)
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
	c := New(n, Config{Timeout: timeout})
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
