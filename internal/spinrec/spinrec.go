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
package spinrec

import (
	"drain/internal/noc"
)

// Config parameterizes the SPIN controller.
type Config struct {
	// Timeout is the stall time before a router suspects deadlock and
	// launches a probe (SPIN paper / DRAIN §V-B: 1024 cycles).
	Timeout int64
}

// probeHopLatency is the per-hop latency of probe and move messages, in
// cycles.
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
	cfg Config
	net *noc.Network

	nextCheckAt int64
	// pending spin: the cycle confirmed by probes, executing after the
	// coordination delay.
	pending   []noc.VCRef
	pendingAt int64

	stats Stats
}

// New returns a SPIN controller for the network.
func New(net *noc.Network, cfg Config) *Controller {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 1024
	}
	return &Controller{
		cfg:         cfg,
		net:         net,
		nextCheckAt: net.Cycle() + cfg.Timeout,
	}
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() Stats { return c.stats }

// Tick advances the detector/recovery state machine by one cycle.
func (c *Controller) Tick() error {
	now := c.net.Cycle()
	if c.pending != nil {
		if now < c.pendingAt {
			return nil
		}
		// Coordinated spin: re-extract the blocked cycle (packets may
		// have moved since the probe) and rotate it.
		refs := c.net.FindBlockedCycle()
		if refs != nil {
			if err := c.net.RotateBlockedCycle(refs); err != nil {
				return err
			}
			c.stats.Spins++
		}
		c.pending = nil
		// Re-arm detection quickly: bursts of deadlocks need back-to-
		// back recoveries (DRAIN §III-D2 "burst of deadlocks").
		c.nextCheckAt = now + c.cfg.Timeout/4
		return nil
	}
	if now < c.nextCheckAt {
		return nil
	}
	c.nextCheckAt = now + c.cfg.Timeout
	c.stats.Checks++
	refs := c.net.FindBlockedCycle()
	if refs == nil {
		return nil
	}
	c.stats.Detections++
	// Probe walks the cycle, then a synchronization token walks it again.
	c.stats.Probes += int64(2 * len(refs))
	c.net.Counters.Probes += int64(2 * len(refs))
	c.pending = refs
	c.pendingAt = now + probeHopLatency*int64(2*len(refs))
	return nil
}

// Oracle is an idealized recovery scheme used for the paper's "ideal
// deadlock-free fully adaptive" baseline (Fig. 5): it detects and breaks
// deadlocks instantly and at zero modelled cost. It bounds what any
// recovery scheme could achieve.
type Oracle struct {
	net    *noc.Network
	nextAt int64
	Breaks int64
}

// oraclePeriod is how many cycles apart the oracle checks.
const oraclePeriod = 8

// NewOracle returns an oracle checking every oraclePeriod cycles.
func NewOracle(net *noc.Network) *Oracle {
	return &Oracle{net: net, nextAt: net.Cycle() + oraclePeriod}
}

// Tick breaks every blocked cycle present at the check boundary.
func (o *Oracle) Tick() error {
	if o.net.Cycle() < o.nextAt {
		return nil
	}
	o.nextAt = o.net.Cycle() + oraclePeriod
	for i := 0; i < 64; i++ { // bound work per check
		refs := o.net.FindBlockedCycle()
		if refs == nil {
			return nil
		}
		if err := o.net.RotateBlockedCycle(refs); err != nil {
			return err
		}
		o.Breaks++
	}
	return nil
}
