package noc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"drain/internal/drainpath"
	"drain/internal/topology"
)

// checkDenseVsEvent is the byte-identity net over the engine seam: a
// dense-engine (cross-checked against the reference allocator, see
// alloc_ref_test.go) and an event-engine network built from the same
// config are driven with identical external actions (injections, freezes,
// drain rotations, live reconfigurations, idle fast-forwards) and must
// remain in lockstep — same cycle, same buffer contents, same ejection
// order, same counters, same reconfiguration reports, and the same RNG
// stream position at the end. Any divergence means the event engine
// visited a router the dense stepper would not have (or vice versa) in a
// way that changed an arbitration draw. Same contract as
// checkConservation: nil, errSkip, or a descriptive property violation.
func checkDenseVsEvent(seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) error {
	rng := rand.New(rand.NewPCG(seed, seed^0xd1ff))
	cfg, err := fuzzConfig(seed, rng, nRaw, vnRaw, vcRaw, escRaw)
	if err != nil {
		return errSkip
	}
	g, nNodes, vnets := cfg.Graph, cfg.Graph.N(), cfg.VNets
	cfgDense, cfgEvent := cfg, cfg
	cfgDense.Engine = EngineDense
	cfgEvent.Engine = EngineEvent
	de, err := New(cfgDense)
	if err != nil {
		return errSkip
	}
	// The dense network also runs the reference (exhaustive-scan)
	// allocator beside the request-set one at every router visit.
	ref := withRefEngine(de)
	ev, err := New(cfgEvent)
	if err != nil {
		return errSkip
	}
	path, err := drainpath.FindEulerian(g)
	if err != nil {
		return errSkip
	}
	next := make([]int, g.NumLinks())
	for id := range next {
		next[id] = path.NextID(id)
	}

	// Live fault plan (3/4 of seeds): fail one removable link mid-run
	// and restore it later. Both networks reconfigure between the
	// same Steps and must agree on the reconfiguration report (packets
	// dropped and rerouted) as well as everything downstream. ">="
	// triggers keep the plan robust to idle fast-forward jumps: a skipped
	// exact cycle applies at the next executed iteration, identically for
	// both networks.
	frng := rand.New(rand.NewPCG(seed^0xfa17, seed))
	active := g
	var failed topology.Edge
	faultAt, restoreAt := int64(-1), int64(-1)
	if (seed>>5)%4 != 3 {
		faultAt = 250 + int64(frng.IntN(100))
		restoreAt = 700 + int64(frng.IntN(100))
	}
	reconfigAll := func(na *topology.Graph) error {
		tab, nx, err := buildReconfig(na, g)
		if err != nil {
			return errSkip
		}
		repD, errD := de.Reconfigure(na, tab)
		repE, errE := ev.Reconfigure(na, tab)
		if errD != nil || errE != nil {
			return fmt.Errorf("reconfigure errors: dense=%v event=%v", errD, errE)
		}
		if repD != repE {
			return fmt.Errorf("reconfig reports diverge: dense=%+v event=%+v", repD, repE)
		}
		active, next = na, nx
		return nil
	}

	const horizon = int64(1200)
	for cyc := int64(0); cyc < horizon; cyc++ {
		if cyc < horizon/2 && rng.Float64() < 0.5 {
			src := rng.IntN(nNodes)
			dst := rng.IntN(nNodes)
			if dst != src {
				class := rng.IntN(vnets)
				flits := 1 + rng.IntN(5)
				okD := de.Inject(de.NewPacket(src, dst, class, flits))
				okE := ev.Inject(ev.NewPacket(src, dst, class, flits))
				if okD != okE {
					return fmt.Errorf("cycle %d: inject accepted dense=%v event=%v", cyc, okD, okE)
				}
			}
		}
		if faultAt >= 0 && cyc >= faultAt {
			faultAt = -1
			if cands := topology.RemovableEdges(active); len(cands) > 0 {
				failed = cands[frng.IntN(len(cands))]
				na, err := active.WithoutEdge(failed.A, failed.B)
				if err != nil {
					return fmt.Errorf("cycle %d: fail link %v: %w", cyc, failed, err)
				}
				if err := reconfigAll(na); err != nil {
					return fmt.Errorf("cycle %d: %w", cyc, err)
				}
			} else {
				restoreAt = -1
			}
		}
		if restoreAt >= 0 && faultAt < 0 && cyc >= restoreAt {
			restoreAt = -1
			na, err := active.WithEdge(failed.A, failed.B)
			if err != nil {
				return fmt.Errorf("cycle %d: restore link %v: %w", cyc, failed, err)
			}
			if err := reconfigAll(na); err != nil {
				return fmt.Errorf("cycle %d: restore: %w", cyc, err)
			}
		}
		if cfg.PolicyEscape && cyc%150 == 100 {
			de.SetFrozen(true)
			ev.SetFrozen(true)
		}
		de.Step()
		ev.Step()
		if ref.err != nil {
			return fmt.Errorf("allocator vs reference scan: %w", ref.err)
		}
		if de.Cycle() != ev.Cycle() {
			return fmt.Errorf("cycle %d: clocks diverge: dense=%d event=%d", cyc, de.Cycle(), ev.Cycle())
		}
		if de.InflightCount() != ev.InflightCount() {
			return fmt.Errorf("cycle %d: inflight transfers diverge: dense=%d event=%d", cyc, de.InflightCount(), ev.InflightCount())
		}
		if de.InFlightPackets() != ev.InFlightPackets() {
			return fmt.Errorf("cycle %d: in-system packets diverge: dense=%d event=%d", cyc, de.InFlightPackets(), ev.InFlightPackets())
		}
		if cfg.PolicyEscape && cyc%150 == 110 && de.InflightCount() == 0 {
			if err := rotateBoth(de, ev, next); err != nil {
				return fmt.Errorf("cycle %d: %w", cyc, err)
			}
			de.SetFrozen(false)
			ev.SetFrozen(false)
		}
		if cfg.PolicyEscape && cyc%150 == 130 && de.Frozen() {
			if de.InflightCount() == 0 {
				if err := rotateBoth(de, ev, next); err != nil {
					return fmt.Errorf("cycle %d: late %w", cyc, err)
				}
			}
			de.SetFrozen(false)
			ev.SetFrozen(false)
		}
		// Drain ejection queues in lockstep: pop order is part of the
		// byte-identity contract (results files record it).
		for r := 0; r < nNodes; r++ {
			for c := 0; c < vnets; c++ {
				for {
					pd := de.PopEjected(r, c)
					pe := ev.PopEjected(r, c)
					if (pd == nil) != (pe == nil) {
						return fmt.Errorf("cycle %d: ejection queues (%d,%d) diverge: dense=%v event=%v", cyc, r, c, pd != nil, pe != nil)
					}
					if pd == nil {
						break
					}
					if pd.ID != pe.ID || pd.Dst != pe.Dst || pd.Hops != pe.Hops || pd.EjectedAt != pe.EjectedAt {
						return fmt.Errorf("cycle %d: ejected packet diverges: dense={id %d dst %d hops %d at %d} event={id %d dst %d hops %d at %d}",
							cyc, pd.ID, pd.Dst, pd.Hops, pd.EjectedAt, pe.ID, pe.Dst, pe.Hops, pe.EjectedAt)
					}
				}
			}
		}
		if cyc%16 == 0 {
			if err := de.CheckInvariants(); err != nil {
				return fmt.Errorf("cycle %d: dense: %w", cyc, err)
			}
			if err := ev.CheckInvariants(); err != nil {
				return fmt.Errorf("cycle %d: event: %w", cyc, err)
			}
			if err := compareBuffers(de, ev); err != nil {
				return fmt.Errorf("cycle %d: %w", cyc, err)
			}
		}
		// Once injection has stopped, exercise idle fast-forward: jump
		// the event network over a window its wheel proves empty while
		// the dense network steps through it cycle by cycle. Both must
		// land in the same state (the window really had no work).
		if cyc >= horizon/2 && cyc%37 == 3 && !ev.Frozen() {
			if u := ev.NextWorkCycle(); u > ev.Cycle()+1 {
				w := u - ev.Cycle() - 1
				if rem := horizon - 1 - cyc; w > rem {
					w = rem
				}
				if w > 0 {
					ev.SkipIdle(w)
					for i := int64(0); i < w; i++ {
						de.Step()
					}
					cyc += w
					if err := compareBuffers(de, ev); err != nil {
						return fmt.Errorf("cycle %d: after %d-cycle fast-forward: %w", cyc, w, err)
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(de.Counters, ev.Counters) {
		return fmt.Errorf("counters diverge:\ndense: %+v\nevent: %+v", de.Counters, ev.Counters)
	}
	// Equal stream position means every arbitration drew the same number
	// of values in the same order; probe one draw from each.
	if d, e := de.rng.Uint64(), ev.rng.Uint64(); d != e {
		return fmt.Errorf("rng streams diverge after run: dense=%#x event=%#x", d, e)
	}
	return nil
}

// rotateBoth applies the same drain rotation to both networks and
// requires them to agree on its outcome.
func rotateBoth(de, ev *Network, next []int) error {
	repD, errD := de.DrainRotate(next)
	repE, errE := ev.DrainRotate(next)
	if (errD == nil) != (errE == nil) {
		return fmt.Errorf("drain rotate diverges: dense err=%v event err=%v", errD, errE)
	}
	if errD != nil {
		return fmt.Errorf("drain rotate: %w", errD)
	}
	if repD != repE {
		return fmt.Errorf("drain rotate reports diverge: dense=%+v event=%+v", repD, repE)
	}
	return nil
}

// compareBuffers requires both networks to hold the same packets in the
// same VC slots with the same occupancy bookkeeping.
func compareBuffers(de, ev *Network) error {
	for i := range de.vc {
		// Heads and their pipeline state, slot by slot (packets compare
		// by ID: each network owns its own Packet values).
		d, e := de.vc[i], ev.vc[i]
		if (d.pkt == nil) != (e.pkt == nil) || d.pkt != nil && d.pkt.ID != e.pkt.ID {
			return fmt.Errorf("VC slot %d diverges: dense %v, event %v", i, d.pkt, e.pkt)
		}
		d.pkt, e.pkt = nil, nil
		if d != e {
			return fmt.Errorf("VC slot %d head state diverges: dense %+v, event %+v", i, d, e)
		}
	}
	for r := range de.injQ {
		for c := range de.injQ[r] {
			if d, e := de.injQ[r][c].Len(), ev.injQ[r][c].Len(); d != e {
				return fmt.Errorf("injection queue (%d,%d) diverges: dense len %d, event len %d", r, c, d, e)
			}
		}
	}
	for i := range de.subs {
		// Activity-dependent state too: every engine promotes a head at
		// the same visit, so the head masks agree whenever the slots do.
		if !slices.Equal(de.subs[i], ev.subs[i]) {
			return fmt.Errorf("head masks diverge in sub-block %d: dense %b, event %b", i, de.subs[i], ev.subs[i])
		}
	}
	if !reflect.DeepEqual(de.ports, ev.ports) {
		return fmt.Errorf("per-port slot masks diverge")
	}
	return nil
}

func TestDenseVsEventUnderRandomConfigs(t *testing.T) {
	f := func(seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) bool {
		err := checkDenseVsEvent(seed, nRaw, vnRaw, vcRaw, escRaw)
		if err != nil && !errors.Is(err, errSkip) {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// FuzzDenseVsEvent is the native-fuzzing entry to the engine
// byte-identity property (CI runs it for a short smoke window; run
// locally with `go test -fuzz=FuzzDenseVsEvent ./internal/noc`).
func FuzzDenseVsEvent(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(0xd1ce), uint8(7), uint8(1), uint8(2), uint8(1))
	f.Add(uint64(99), uint8(11), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) {
		if err := checkDenseVsEvent(seed, nRaw, vnRaw, vcRaw, escRaw); err != nil && !errors.Is(err, errSkip) {
			t.Fatal(err)
		}
	})
}
