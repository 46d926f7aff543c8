// Package spinrec models SPIN (Parasar et al.), the reactive
// deadlock-recovery baseline the DRAIN paper compares against: deadlocks
// are detected at run time after a timeout, probes traverse and confirm
// the blocked cycle, and the routers involved then perform a coordinated
// one-hop "spin" of the cycle's packets.
//
// The hardware probe walk is modelled by the network's deadlock verdict,
// noc's FindBlockedCycle (the probes' observable result is exactly "which
// cycle of link buffers is blocked", every ejection queue a sink), and
// its latency is charged explicitly: detection is attempted every
// Timeout cycles, whatever ejects elsewhere meanwhile (the hardware's
// timeout counters are per router, so traffic beside a cycle resets
// none of them), and a confirmed cycle spins only after a delay
// proportional to the cycle length (probe propagation plus the
// synchronization message, as in the SPIN paper). The modelled +15%
// control area/power overhead is charged in internal/power.
//
// One Controller also serves the paper's "ideal deadlock-free fully
// adaptive" baseline (Fig. 5): NewIdeal checks every 8 cycles and its
// probes cost no time, so a detected cycle spins in the tick that
// found it. It bounds what any recovery scheme could achieve.
package spinrec

import (
	"drain/internal/noc"
)

// probeHopLatency is SPIN's per-hop latency of probe and move messages,
// in cycles.
const probeHopLatency = 1

// Stats reports SPIN activity.
type Stats struct {
	Detections int64 // confirmed deadlocks
	Spins      int64 // forced cycle rotations
	Probes     int64 // probe messages sent (modelled)
	Checks     int64 // detection sweeps performed
}

// Controller drives SPIN recovery over a network. Call Tick once per
// cycle after Network.Step.
type Controller struct {
	net *noc.Network
	// timeout is the stall time before a router suspects deadlock and
	// launches a probe; probeHop is the per-hop probe latency.
	timeout, probeHop int64

	nextCheckAt int64
	// pending: a cycle confirmed by probes, spinning at pendingAt after
	// the coordination delay.
	pending   bool
	pendingAt int64

	stats Stats
}

// New returns a SPIN controller for the network that checks every
// timeout cycles (SPIN paper / DRAIN §V-B: 1024).
func New(net *noc.Network, timeout int64) *Controller {
	return &Controller{
		net:         net,
		timeout:     timeout,
		probeHop:    probeHopLatency,
		nextCheckAt: net.Cycle() + timeout,
	}
}

// NewIdeal returns the ideal baseline's controller: SPIN checking every
// 8 cycles, with probes that cost no time.
func NewIdeal(net *noc.Network) *Controller {
	c := New(net, 8)
	c.probeHop = 0
	return c
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() Stats { return c.stats }

// Tick advances the detector/recovery state machine by one cycle.
func (c *Controller) Tick() error {
	now := c.net.Cycle()
	if !c.pending {
		if now < c.nextCheckAt {
			return nil
		}
		c.nextCheckAt = now + c.timeout
		c.stats.Checks++
		refs := c.net.FindBlockedCycle()
		if refs == nil {
			return nil
		}
		c.stats.Detections++
		// Probe walks the cycle, then a synchronization token walks it again.
		probes := int64(2 * len(refs))
		c.stats.Probes += probes
		c.net.Counters.Probes += probes
		c.pending = true
		c.pendingAt = now + c.probeHop*probes
	}
	if now < c.pendingAt {
		return nil
	}
	// Coordinated spin: re-extract the blocked cycle (packets may have
	// moved since the probe) and rotate it.
	c.pending = false
	if refs := c.net.FindBlockedCycle(); refs != nil {
		if err := c.net.RotateBlockedCycle(refs); err != nil {
			return err
		}
		c.stats.Spins++
	}
	// Re-arm detection quickly: bursts of deadlocks need back-to-back
	// recoveries (DRAIN §III-D2 "burst of deadlocks").
	c.nextCheckAt = now + c.timeout/4
	return nil
}
