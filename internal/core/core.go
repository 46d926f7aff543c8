// Package core implements DRAIN itself (paper §III): the subactive
// deadlock-removal controller that periodically freezes credit
// allocation (pre-drain), forces every escape-VC packet one hop along a
// statically computed drain path (drain window), and occasionally runs a
// full drain as a livelock guard.
//
// The controller is the software model of the three microarchitectural
// additions in the paper's Fig. 7: the epoch register (when to drain),
// the credit freeze (pre-drain), and the per-router turn-table (where to
// drain, derived from the offline drain path of internal/drainpath).
package core

import (
	"fmt"

	"drain/internal/drainpath"
	"drain/internal/noc"
	"drain/internal/topology"
)

// PathAlgorithm selects how the offline drain path is computed.
type PathAlgorithm int

const (
	// PathEulerian uses Hierholzer's construction (fast default).
	PathEulerian PathAlgorithm = iota
	// PathSearch uses the paper's early-terminating elementary-cycle
	// search over the link-dependency graph.
	PathSearch
)

// Config parameterizes the DRAIN controller. Zero fields take the
// paper's defaults.
type Config struct {
	// Epoch is the number of cycles between drain windows (paper
	// default: 64K cycles; Fig. 14 sweeps 16…64K).
	Epoch int64
	// DrainHops is the number of forced hops per drain window. The paper
	// (footnote 3) finds 1 always best; >1 is exposed for the ablation.
	DrainHops int
	// FullDrainEvery runs a full drain every N drain windows (paper:
	// "once every N drain windows, for very large N").
	FullDrainEvery int
	// Algorithm selects the offline path construction.
	Algorithm PathAlgorithm
}

func (c *Config) setDefaults() {
	if c.Epoch <= 0 {
		c.Epoch = 64 * 1024
	}
	if c.DrainHops <= 0 {
		c.DrainHops = 1
	}
	if c.FullDrainEvery <= 0 {
		c.FullDrainEvery = 1024
	}
}

// Stats reports controller activity.
type Stats struct {
	Drains       int64 // drain windows executed
	FullDrains   int64 // full drains executed
	PacketsMoved int64 // packet-hops forced by drains
	Ejections    int64 // packets ejected during drains
}

// Controller drives DRAIN over a network. Call Tick exactly once per
// cycle, after Network.Step.
type Controller struct {
	cfg  Config
	net  *noc.Network
	path *drainpath.Path
	full *drainpath.Path // the construction-time path, over net.Graph()
	next []int           // turn-table: next[linkID] = successor link

	frozen bool  // a drain window is open
	left   int   // forced hops the open window has yet to make; -1 in its pre-drain
	at     int64 // the cycle Tick next acts: a window's freeze, forced hop or thaw

	stats Stats
}

// New computes the drain path for the network's topology and returns a
// ready controller. The first drain window fires one epoch from now.
func New(net *noc.Network, cfg Config) (*Controller, error) {
	cfg.setDefaults()
	p, err := cfg.findPath(net.Graph())
	if err != nil {
		return nil, err
	}
	g := net.Graph()
	next := make([]int, g.NumLinks())
	for id := range next {
		next[id] = p.NextID(id)
	}
	return &Controller{
		cfg:  cfg,
		net:  net,
		path: p,
		full: p,
		next: next,
		at:   net.Cycle() + cfg.Epoch,
	}, nil
}

// findPath finds a drain path over g with the configured algorithm.
func (c *Config) findPath(g *topology.Graph) (*drainpath.Path, error) {
	switch c.Algorithm {
	case PathEulerian:
		return drainpath.FindEulerian(g)
	case PathSearch:
		return drainpath.FindCoveringCycle(g, 0)
	}
	return nil, fmt.Errorf("core: unknown path algorithm %d", c.Algorithm)
}

// Path returns the drain path in use.
func (c *Controller) Path() *drainpath.Path { return c.path }

// Reconfigure recomputes the drain path online after a live topology
// change: active is the currently fault-free subgraph of the network's
// full topology (the same subgraph passed to noc.Network.Reconfigure).
// The new path is computed over active (Hierholzer is linear in links)
// and the turn-table is remapped into the full graph's link-ID space,
// with -1 for failed links. That is safe because failed links are empty
// at drain time: DrainRotate requires a quiesced network, evacuation
// cleared their buffers at the failure, and no grant ever targets them —
// so the rotation's nil-occupant skip never dereferences a -1 entry. When
// active is the network's own graph — every link restored — the
// construction-time path goes back in: the search is deterministic, so
// that is the path it would find again. The epoch schedule is unchanged:
// the next drain fires when it would have.
func (c *Controller) Reconfigure(active *topology.Graph) error {
	if active == c.net.Graph() {
		c.path = c.full
		for id := range c.next {
			c.next[id] = c.full.NextID(id)
		}
		return nil
	}
	p, err := c.cfg.findPath(active)
	if err != nil {
		return fmt.Errorf("core: drain path recomputation failed: %w", err)
	}
	full := c.net.Graph()
	for id := range c.next {
		c.next[id] = -1
	}
	for _, al := range active.Links() {
		fid, ok := full.LinkID(al.From, al.To)
		if !ok {
			return fmt.Errorf("core: active link %v is not part of the full topology", al)
		}
		sl := active.Link(p.NextID(al.ID))
		fsucc, ok := full.LinkID(sl.From, sl.To)
		if !ok {
			return fmt.Errorf("core: active link %v is not part of the full topology", sl)
		}
		c.next[fid] = fsucc
	}
	c.path = p
	return nil
}

// Stats returns a snapshot of controller activity.
func (c *Controller) Stats() Stats { return c.stats }

// Config returns the defaulted configuration.
func (c *Controller) Config() Config { return c.cfg }

// Draining reports whether the network is currently frozen by the
// controller (pre-drain or drain window in progress).
func (c *Controller) Draining() bool { return c.frozen }

// Tick advances the controller by one cycle. A drain window freezes the
// network; every MaxFlits cycles after that it forces one hop, until it
// has made the hops it allows (DrainHops, or the path's length on a full
// drain), and MaxFlits cycles after the last it thaws. The run loop's
// sinks run in every frozen cycle, so ejection queues empty between hops.
func (c *Controller) Tick() error {
	now := c.net.Cycle()
	if now < c.at {
		return nil
	}
	c.at = now + c.flits()
	if !c.frozen {
		// Epoch register hit zero: freeze credits (pre-drain window).
		// Every transfer granted up to now lands by now + MaxFlits,
		// the largest packet's serialization (paper: 5 cycles), and
		// none is granted while frozen, so every rotation finds the
		// links quiesced; DrainRotate refuses one otherwise.
		c.net.SetFrozen(true)
		c.frozen, c.left = true, -1
		return nil
	}
	if c.left == 0 { // the drain window is over
		c.net.SetFrozen(false)
		c.frozen, c.at = false, now+c.cfg.Epoch
		return nil
	}
	if c.left < 0 { // the pre-drain is over: size the window
		c.stats.Drains++
		c.net.Counters.Drains++
		c.left = c.cfg.DrainHops
		if c.stats.Drains%int64(c.cfg.FullDrainEvery) == 0 {
			c.stats.FullDrains++
			c.net.Counters.FullDrains++
			c.left = c.path.Len()
		}
	}
	rep, err := c.net.DrainRotate(c.next)
	if err != nil {
		return fmt.Errorf("core: drain window failed: %w", err)
	}
	c.left--
	c.stats.PacketsMoved += int64(rep.Moved)
	c.stats.Ejections += int64(rep.Ejected)
	return nil
}

// NextWorkCycle returns the next cycle at which Tick acts: the scheduled
// drain while running, the open window's next hop or thaw during a
// freeze. The run loop does not read it; it is kept for the frozen
// cmd/drainbench/cycle.go until ROADMAP B1(d).
func (c *Controller) NextWorkCycle() int64 { return c.at }

// flits is the largest packet's serialization time in cycles: the
// pre-drain freeze, and the spacing of a drain window's forced hops.
func (c *Controller) flits() int64 { return int64(c.net.Config().MaxFlits) }
