package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"drain/internal/routing"
	"drain/internal/topology"
)

// FaultEvent is one scheduled live topology change: at Cycle the
// bidirectional link A-B fails (Fail true) or recovers (Fail false).
// Events are applied at cycle boundaries — an event at cycle C takes
// effect before the step from C to C+1 — identically in both engines.
// A fault schedule changes what the simulation computes, so FaultEvent
// is JSON-visible and part of the content address cached results are
// keyed by.
type FaultEvent struct {
	Cycle int64 `json:"cycle"`
	A     int   `json:"a"`
	B     int   `json:"b"`
	Fail  bool  `json:"fail"`
}

// String formats the event in ParseFaultSchedule's syntax.
func (e FaultEvent) String() string {
	action := "recover"
	if e.Fail {
		action = "fail"
	}
	return fmt.Sprintf("%d:%s:%d-%d", e.Cycle, action, e.A, e.B)
}

// ParseFaultSchedule parses the -fault-schedule CLI syntax: a comma-
// separated list of cycle:action:a-b events, where action is "fail" or
// "recover" and a-b names a bidirectional link by its endpoint routers.
// Example: "1000:fail:2-3,3000:recover:2-3". An empty string is an
// empty schedule. The result is syntactically parsed only; validate it
// against a concrete topology with ValidateFaultSchedule.
func ParseFaultSchedule(s string) ([]FaultEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []FaultEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		parts := strings.Split(item, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("sim: fault event %q: want cycle:fail|recover:a-b", item)
		}
		cyc, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad cycle: %v", item, err)
		}
		var fail bool
		switch parts[1] {
		case "fail":
			fail = true
		case "recover":
			fail = false
		default:
			return nil, fmt.Errorf("sim: fault event %q: action must be \"fail\" or \"recover\"", item)
		}
		a, b, ok := strings.Cut(parts[2], "-")
		if !ok {
			return nil, fmt.Errorf("sim: fault event %q: link must be a-b", item)
		}
		av, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad router %q", item, a)
		}
		bv, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad router %q", item, b)
		}
		out = append(out, FaultEvent{Cycle: cyc, A: av, B: bv, Fail: fail})
	}
	return out, nil
}

// ValidateFaultSchedule checks a schedule against the topology it will
// run on: cycles must be non-decreasing and non-negative, the same link
// may not appear twice at the same cycle, every failure must target a
// currently-up link and every recovery a currently-down one, and the
// topology must stay connected after every event (the simulator has no
// notion of an unreachable router, and the drain path needs a connected
// graph). The check replays the whole sequence, so it catches exactly
// the states a run would reach. The error text is safe for clients.
func ValidateFaultSchedule(g *topology.Graph, sched []FaultEvent) error {
	cur := g
	type linkCycle struct {
		a, b  int
		cycle int64
	}
	seen := make(map[linkCycle]bool, len(sched))
	prev := int64(0)
	for i, ev := range sched {
		if ev.Cycle < 0 {
			return fmt.Errorf("fault event %d: negative cycle %d", i, ev.Cycle)
		}
		if ev.Cycle < prev {
			return fmt.Errorf("fault schedule not sorted: event %d (cycle %d) after cycle %d", i, ev.Cycle, prev)
		}
		prev = ev.Cycle
		a, b := ev.A, ev.B
		if a > b {
			a, b = b, a
		}
		k := linkCycle{a: a, b: b, cycle: ev.Cycle}
		if seen[k] {
			return fmt.Errorf("duplicate fault events for link %d-%d at cycle %d", a, b, ev.Cycle)
		}
		seen[k] = true
		var err error
		if ev.Fail {
			cur, err = cur.WithoutEdge(a, b)
		} else {
			cur, err = cur.WithEdge(a, b)
		}
		if err != nil {
			return fmt.Errorf("fault event %d (cycle %d): %v", i, ev.Cycle, err)
		}
		if !cur.Connected() {
			return fmt.Errorf("fault event %d disconnects the topology (link %d-%d down at cycle %d)", i, a, b, ev.Cycle)
		}
	}
	return nil
}

// nextFaultCycle returns the cycle of the next unapplied scheduled
// fault event (math.MaxInt64 when none remain). Together with the
// network and scheme hints it bounds idle fast-forward windows, so a
// skip can never jump over a scheduled reconfiguration.
func (r *Runner) nextFaultCycle() int64 {
	if r.faultIdx < len(r.Params.FaultSchedule) {
		return r.Params.FaultSchedule[r.faultIdx].Cycle
	}
	return math.MaxInt64
}

// applyDueFaults applies every scheduled fault event due at or before
// the network's current cycle, then reconfigures routing, the network
// and the drain path once over the resulting topology (batching events
// that share a cycle into a single reconfiguration). The run loops call
// it at the top of each iteration — before injection and Step — so an
// event at cycle C takes effect on the C→C+1 cycle boundary, between
// Steps.
func (r *Runner) applyDueFaults() error {
	sched := r.Params.FaultSchedule
	if r.faultIdx >= len(sched) || sched[r.faultIdx].Cycle > r.Net.Cycle() {
		return nil
	}
	now := r.Net.Cycle()
	for r.faultIdx < len(sched) && sched[r.faultIdx].Cycle <= now {
		ev := sched[r.faultIdx]
		a, b := ev.A, ev.B
		if a > b {
			a, b = b, a
		}
		var err error
		if ev.Fail {
			r.active, err = r.active.WithoutEdge(a, b)
		} else {
			r.active, err = r.active.WithEdge(a, b)
		}
		if err != nil {
			// Unreachable after BuildOn's ValidateFaultSchedule.
			return fmt.Errorf("sim: fault event at cycle %d: %v", ev.Cycle, err)
		}
		r.faultIdx++
	}
	return r.reconfigure()
}

// reconfigure rebuilds the routing table over the current active
// subgraph (candidates remapped into the full graph's link-ID space),
// swaps it into the network, and recomputes the drain path when the
// DRAIN controller is wired. A full rebuild is the correctness
// fallback; the constructions are cheap (linear to near-linear in the
// topology), and reconfigurations happen at fault-schedule granularity,
// not per cycle.
func (r *Runner) reconfigure() error {
	tab, err := routing.NewTableRemapped(r.active, r.Graph, 0)
	if err != nil {
		return fmt.Errorf("sim: reconfiguration routing rebuild: %v", err)
	}
	rep, err := r.Net.Reconfigure(r.active, tab)
	if err != nil {
		return fmt.Errorf("sim: reconfiguration: %v", err)
	}
	r.FaultReports = append(r.FaultReports, rep)
	if r.Drain != nil {
		if err := r.Drain.Reconfigure(r.active); err != nil {
			return err
		}
	}
	return nil
}

// Active returns the currently fault-free subgraph of the runner's
// topology (Graph itself until the first scheduled fault fires).
func (r *Runner) Active() *topology.Graph { return r.active }
