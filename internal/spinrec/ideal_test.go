package spinrec

import (
	"testing"

	"drain/internal/noc"
	"drain/internal/topology"
)

// plantRing6 fills a 6-ring's one VC per link with packets two hops
// short of their destinations: the canonical ring deadlock.
func plantRing6(t *testing.T, seed uint64) *noc.Network {
	t.Helper()
	g, err := topology.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	n := spinNet(t, g, 1, seed)
	for r := 0; r < 6; r++ {
		if _, err := n.PlacePacket(r, (r+1)%6, (r+3)%6, 0); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestOracleDefaultPeriod: the ideal baseline checks every 8 cycles, so
// a planted deadlock stands until the first check and is broken there.
func TestOracleDefaultPeriod(t *testing.T) {
	n := plantRing6(t, 1)
	c := NewIdeal(n)
	for n.Cycle() < 8 {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Spins != 0 {
			t.Fatalf("the ideal broke a cycle at cycle %d, before its first check at 8", n.Cycle())
		}
		n.Step()
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Spins == 0 {
		t.Error("the ideal did not break the planted deadlock at its first check, cycle 8")
	}
}

func TestOracleIdleIsFree(t *testing.T) {
	n := spinNet(t, topology.MustMesh(3, 3).Graph, 2, 2)
	c := NewIdeal(n)
	for i := 0; i < 200; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats().Spins; s != 0 {
		t.Errorf("the ideal broke %d cycles in an empty network", s)
	}
}

// TestSpinProbeDelayBeforeRotation: after detection, SPIN's spin waits
// the probe round trip (2 hops per cycle member at probeHopLatency);
// the ideal's probes cost nothing, so it detects and spins in one tick.
func TestSpinProbeDelayBeforeRotation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ctl       func(*noc.Network) *Controller
		detectAt  int64 // the first check
		spinDelay int64
		delayWhy  string
	}{
		// 6-member cycle × 2 walks × 1 cycle/hop = 12 cycles of delay.
		{"spin", func(n *noc.Network) *Controller { return New(n, 50) }, 50, 12, "the 12-cycle probe round trip"},
		{"ideal", NewIdeal, 8, 0, "none: its probes cost no time"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := plantRing6(t, 3)
			c := tc.ctl(n)
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
			if detectedAt != tc.detectAt {
				t.Errorf("detected at cycle %d, want %d", detectedAt, tc.detectAt)
			}
			if d := spunAt - detectedAt; d != tc.spinDelay {
				t.Errorf("spin fired %d cycles after detection, want %s", d, tc.delayWhy)
			}
		})
	}
}

func TestOracleBreaksDeadlocksInstantly(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	n := spinNet(t, g, 1, 7)
	c := NewIdeal(n)
	created, delivered := 0, 0
	for cyc := 0; cyc < 15000; cyc++ {
		for r := 0; r < 16; r++ {
			d := (r*5 + cyc*11 + 3) % 16
			if d != r && n.InjQueueLen(r, 0) < 3 {
				if n.Inject(n.NewPacket(r, d, 0, 1)) {
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
	}
	if delivered < created*2/3 {
		t.Errorf("ideal: delivered %d of %d", delivered, created)
	}
	if c.Stats().Spins == 0 {
		t.Error("the ideal never needed to break a deadlock under saturation")
	}
}
