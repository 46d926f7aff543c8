package noc

import (
	"testing"

	"drain/internal/routing"
)

// Zero-allocation guards for the hot roots that run between Steps, which
// no fault-free synthetic window (the root package's TestStepAllocs and
// TestStepWindowAllocs) reaches. They catch at run time what hotalloc's
// construct list cannot see, such as an escaping address-of-local.

func wantZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s allocates %.0f times per call once warm, want 0", what, allocs)
	}
}

// A warm 4x4 mesh with an unrestricted escape VC per port (the DRAIN
// configuration) under a saturating source; the injection queues are
// bounded, so refused and delivered packets recycle through the pool and
// the source stops allocating too. First a link fails and recovers over
// and over, two prebuilt tables alternating with traffic in between, so
// every swap finds transfers on the wire and occupied buffers; then the
// frozen, quiesced network's escape VCs rotate one hop per cycle, as in a
// drain window.
func TestReconfigureAndDrainRotateAllocs(t *testing.T) {
	for _, eng := range []EngineKind{EngineEvent, EngineDense} {
		n := meshNet(t, 4, 4, func(c *Config) {
			c.Engine = eng
			c.PolicyEscape, c.NonStickyEscape = true, true
			c.Routing, c.EscapeRouting = routing.AdaptiveMinimal, routing.AdaptiveMinimal
			c.InjectCap = 4
		})
		inject := func(cycles int) {
			for ; cycles > 0; cycles-- {
				for src := 0; src < 16; src++ {
					dst := (src + 1 + int(n.cycle)%15) % 16
					if p := n.NewPacket(src, dst, 0, 1+src%4); !n.Inject(p) {
						n.ReleasePacket(p)
					}
				}
				n.Step()
				n.DiscardEjected()
			}
		}
		inject(300)

		faulted, err := n.g.WithoutEdge(5, 6)
		if err != nil {
			t.Fatal(err)
		}
		tabDown, _, err := buildReconfig(faulted, n.g)
		if err != nil {
			t.Fatal(err)
		}
		tabUp, next, err := buildReconfig(n.g, n.g)
		if err != nil {
			t.Fatal(err)
		}
		wantZeroAllocs(t, "Reconfigure/"+eng.String(), func() {
			if _, err := n.Reconfigure(faulted, tabDown); err != nil {
				t.Fatal(err)
			}
			inject(8)
			if _, err := n.Reconfigure(n.g, tabUp); err != nil {
				t.Fatal(err)
			}
			inject(8)
		})
		if c := n.Counters; c.FaultDrops == 0 || c.FaultReroutes == 0 {
			t.Errorf("%s: no transfer cut or no buffer evacuated (drops %d, reroutes %d): the test shows nothing", eng, c.FaultDrops, c.FaultReroutes)
		}

		n.SetFrozen(true)
		for n.InflightCount() > 0 {
			n.Step()
		}
		moved := 0
		wantZeroAllocs(t, "DrainRotate/"+eng.String(), func() {
			rep, err := n.DrainRotate(next)
			if err != nil {
				t.Fatal(err)
			}
			moved += rep.Moved
			n.Step()
		})
		if moved == 0 {
			t.Errorf("%s: no escape VC was occupied: the rotations moved nothing", eng)
		}
	}
}

// A planted ring deadlock spins round and round (frozen, so the packets
// stay put for the cycle between rotations).
func TestRotateBlockedCycleAllocs(t *testing.T) {
	n := ringNet(t, 6)
	plantRingDeadlock(t, n, 6)
	n.Step()
	cyc := n.FindBlockedCycle()
	if len(cyc) == 0 {
		t.Fatal("no blocked cycle to rotate")
	}
	n.SetFrozen(true)
	wantZeroAllocs(t, "RotateBlockedCycle", func() {
		if err := n.RotateBlockedCycle(cyc); err != nil {
			t.Fatal(err)
		}
		n.Step()
	})
}
