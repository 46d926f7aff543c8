package coherence

import "drain/internal/noc"

// headStop is where a Request or Forward head stopped during the last
// Tick: on room in r's injection queue of class inject or, when inject
// < 0, on busy line addr's transaction.
type headStop struct {
	stopped bool
	inject  int
	addr    int64
}

// HeadWait reports what node r's class ejection queue head waited on in
// the last Tick (noc.Consumer): room in one of r's injection queues, or
// the responses its busy line awaits, and before those are sent, the
// Data and forwards r sent for the line, which they answer. A Response
// head never waits, nor does a head whose line has since been freed.
func (s *System) HeadWait(r, class int) (inject int, awaits func(*noc.Packet) bool, stopped bool) {
	nd := s.nodes[r]
	if class > ClassFwd || !nd.stops[class].stopped {
		return 0, nil, false
	}
	st := nd.stops[class]
	if st.inject >= 0 {
		return st.inject, nil, true
	}
	i, _ := nd.dir.Get(st.addr)
	dl := nd.dirLines[i]
	if !dl.busy {
		return 0, nil, false
	}
	return -1, func(p *noc.Packet) bool {
		m, ok := p.Payload.(*Msg)
		return ok && m.Addr == st.addr && (p.Src == r && (m.Type == Data || m.Type.Class() == ClassFwd) ||
			p.Dst == r && (m.Type == Unblock && !dl.gotUnblock && p.Src == int(dl.requester) ||
				m.Type == DirAck && dl.ackFrom >= 0 && !dl.gotDirAck && p.Src == int(dl.ackFrom)))
	}, true
}
