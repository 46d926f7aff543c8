package sim

import (
	"drain/internal/core"
	"drain/internal/noc"
	"drain/internal/spinrec"
)

// EventKind says what an Event reports.
type EventKind string

// Event kinds, each with the Event fields it sets.
const (
	EventEject      EventKind = "eject"       // Packet
	EventDrainStart EventKind = "drain_start" // the credit freeze began
	EventDrainEnd   EventKind = "drain_end"   // the freeze lifted; Moved, Ejected, Full
	EventSpinDetect EventKind = "spin_detect" // SPIN confirmed a deadlock
	EventSpin       EventKind = "spin"        // SPIN rotated a blocked cycle
	EventFault      EventKind = "fault"       // Fault
	EventStall      EventKind = "stall"       // Stall: the stall watch recorded one
	EventRunEnd     EventKind = "run_end"     // the run returned
)

// Event is one thing a run did, at network cycle Cycle; fields its Kind
// does not set are zero (and left out of its JSON). A drain window's
// counts are the packets its forced hops moved and ejected, and Full
// marks a full drain. Packet is the ejected packet itself: read-only,
// and valid during OnEvent only (the network recycles it).
type Event struct {
	Kind    EventKind           `json:"kind"`
	Cycle   int64               `json:"cycle"`
	Packet  *noc.Packet         `json:"packet,omitempty"`
	Moved   int64               `json:"moved,omitempty"`
	Ejected int64               `json:"ejected,omitempty"`
	Full    bool                `json:"full,omitempty"`
	Fault   *noc.ReconfigReport `json:"fault,omitempty"`
	Stall   *Stall              `json:"stall,omitempty"`
}

// Probe watches the runs of the Runner it is set on (Runner.Probe).
// Events are derived from state the loop already reads — the
// controllers' Stats after TickScheme, Net.Frozen(), FaultReports — so
// watching changes no result.
type Probe struct {
	// OnEvent, when set, receives every event in cycle order; returning
	// true ends the run after the current loop iteration.
	OnEvent func(Event) (stop bool)

	stop, frozen bool
	reports      int
	drain        core.Stats
	spin         spinrec.Stats
}

// begin takes r's state at the start of a run as the baseline its
// events are derived against.
func (p *Probe) begin(r *Runner) {
	if p == nil {
		return
	}
	p.stop, p.frozen, p.reports = false, r.Net.Frozen(), len(r.FaultReports)
	if r.Drain != nil {
		p.drain = r.Drain.Stats()
	}
	if r.Spin != nil {
		p.spin = r.Spin.Stats()
	}
}

func (p *Probe) stopped() bool { return p != nil && p.stop }

func (p *Probe) emit(e Event) {
	if p != nil && p.OnEvent != nil && p.OnEvent(e) {
		p.stop = true
	}
}

// afterFaults reports the reconfigurations applied since the last call.
func (p *Probe) afterFaults(r *Runner) {
	for ; p.reports < len(r.FaultReports); p.reports++ {
		p.emit(Event{Kind: EventFault, Cycle: r.Net.Cycle(), Fault: &r.FaultReports[p.reports]})
	}
}

// afterScheme reports what the scheme's tick changed. Only DRAIN freezes
// the network; a window's counts are its Stats deltas from freeze to thaw.
func (p *Probe) afterScheme(r *Runner) {
	now := r.Net.Cycle()
	if f := r.Net.Frozen(); f != p.frozen && r.Drain != nil {
		st := r.Drain.Stats()
		if p.frozen = f; f {
			p.emit(Event{Kind: EventDrainStart, Cycle: now})
		} else {
			p.emit(Event{Kind: EventDrainEnd, Cycle: now, Moved: st.PacketsMoved - p.drain.PacketsMoved,
				Ejected: st.Ejections - p.drain.Ejections, Full: st.FullDrains > p.drain.FullDrains})
		}
		p.drain = st
	}
	if r.Spin != nil {
		st := r.Spin.Stats()
		if st.Detections > p.spin.Detections {
			p.emit(Event{Kind: EventSpinDetect, Cycle: now})
		}
		if st.Spins > p.spin.Spins {
			p.emit(Event{Kind: EventSpin, Cycle: now})
		}
		p.spin = st
	}
}
