package coherence

import (
	"slices"

	"drain/internal/noc"
)

// Consumer names one of the four places a node's protocol engine stops.
type Consumer uint8

// Consumers, in the order Waits reports them.
const (
	RequestHead Consumer = iota // the directory's Request ejection head
	ForwardHead                 // the L1's Forward ejection head
	Fills                       // completed misses waiting to fill and Unblock
	Issue                       // the core issuing its next access
	numConsumers
)

// WaitKind says what a stopped consumer waits for.
type WaitKind uint8

// Wait kinds. The zero kind means no wait.
const (
	WaitCapacity WaitKind = iota + 1 // room in the node's injection queue of Class
	WaitBusyLine                     // line Addr's transaction: Awaits from node From
	WaitMSHRs                        // a free MSHR
	WaitPending                      // the miss already pending on line Addr
)

// Wait is one reason a consumer at a node cannot proceed.
type Wait struct {
	By     Consumer
	Kind   WaitKind
	Class  int     // WaitCapacity: the class that lacks room
	Addr   int64   // WaitBusyLine, WaitPending: the line
	Awaits MsgType // WaitBusyLine: Unblock from the requester or DirAck from the old owner
	From   int     // WaitBusyLine: the node Awaits must come from
}

// Waits returns why node r's consumers stopped during the last Tick, in
// consumer order, or nil when none did. A busy line yields one Wait per
// response it still awaits. Waits changes no state.
func (s *System) Waits(r int) []Wait {
	nd := s.nodes[r]
	var ws []Wait
	for _, w := range nd.waits {
		switch w.Kind {
		case 0:
		case WaitBusyLine:
			i, _ := nd.dir.Get(w.Addr)
			if dl := &nd.dirLines[i]; dl.busy {
				if !dl.gotUnblock {
					w.Awaits, w.From = Unblock, int(dl.requester)
					ws = append(ws, w)
				}
				if dl.ackFrom >= 0 && !dl.gotDirAck {
					w.Awaits, w.From = DirAck, int(dl.ackFrom)
					ws = append(ws, w)
				}
			}
		default:
			ws = append(ws, w)
		}
	}
	return ws
}

// HeadWait reports what node r's class ejection queue head waited on in
// the last Tick (noc.Consumer): room in one of r's injection queues, or
// the responses its busy line awaits, and before those are sent, the
// Data and forwards r sent for the line, which they answer. A Response
// head never waits.
func (s *System) HeadWait(r, class int) (inject int, awaits func(*noc.Packet) bool, stopped bool) {
	// A Request or Forward head is the consumer of the same number.
	ws := slices.DeleteFunc(s.Waits(r), func(w Wait) bool { return class > ClassFwd || w.By != Consumer(class) })
	if len(ws) == 0 {
		return 0, nil, false
	}
	if ws[0].Kind == WaitCapacity {
		return ws[0].Class, nil, true
	}
	return -1, func(p *noc.Packet) bool {
		m, ok := p.Payload.(*Msg)
		return ok && slices.ContainsFunc(ws, func(w Wait) bool {
			return m.Addr == w.Addr && (p.Dst == r && p.Src == w.From && m.Type == w.Awaits ||
				p.Src == r && (m.Type == Data || m.Type.Class() == ClassFwd))
		})
	}, true
}
