// Package coherence implements a MESI directory cache-coherence engine
// over the NoC: private L1 caches, address-interleaved directory slices,
// bounded MSHRs, and the three message classes (request, forward,
// response) whose dependency chains produce protocol-level deadlocks on
// networks without per-class virtual networks (paper §I-A, Fig. 2).
//
// The protocol is deliberately complete enough to exhibit the real
// hazard structure: requests consumed at a directory *inject* dependent
// forwards and responses, forwards consumed at an owner inject
// responses, and responses are a pure sink — exactly the assumptions the
// paper's protocol-deadlock-freedom proof relies on (§III-D2).
package coherence

import "fmt"

// Message classes, mapped onto network classes 0..2. With VNets=3 each
// class gets its own virtual network (the proactive baseline); with
// VNets=1 they share one (DRAIN's configuration).
const (
	ClassReq  = 0 // GetS, GetM, PutM
	ClassFwd  = 1 // Inv, FwdGetS, FwdGetM
	ClassResp = 2 // Data, InvAck, DirAck, WBAck, Unblock — pure sink
	// NumClasses is the number of coherence message classes.
	NumClasses = 3
)

// MsgType enumerates coherence messages.
type MsgType int

// Message types.
const (
	GetS MsgType = iota // read miss request (core → home)
	GetM                // write miss / upgrade request (core → home)
	PutM                // modified writeback (core → home)

	Inv     // invalidate a sharer (home → sharer)
	FwdGetS // forward read to owner (home → owner)
	FwdGetM // forward write to owner (home → owner)

	Data    // data response (home/owner → requester)
	InvAck  // invalidation ack (sharer → requester)
	DirAck  // owner's ack to the directory (owner → home)
	WBAck   // writeback ack (home → writer)
	Unblock // transaction completion (requester → home)
)

var msgNames = [...]string{
	GetS: "GetS", GetM: "GetM", PutM: "PutM", Inv: "Inv", FwdGetS: "FwdGetS", FwdGetM: "FwdGetM",
	Data: "Data", InvAck: "InvAck", DirAck: "DirAck", WBAck: "WBAck", Unblock: "Unblock",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if t >= 0 && int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// Class returns the message class of a type.
func (t MsgType) Class() int {
	switch t {
	case GetS, GetM, PutM:
		return ClassReq
	case Inv, FwdGetS, FwdGetM:
		return ClassFwd
	default:
		return ClassResp
	}
}

// Flits returns the packet size: data-bearing messages are 5 flits
// (64B line + header over 128-bit links, Table II), control is 1 flit.
func (t MsgType) Flits() int {
	if t == Data || t == PutM {
		return 5
	}
	return 1
}

// Msg is a coherence message, carried as a *Msg in noc.Packet.Payload
// and recycled by the System once its packet is popped.
type Msg struct {
	Type      MsgType
	Addr      int64
	Requester int  // original requester (for forwards and acks)
	Acks      int  // expected InvAck count (Data for GetM)
	Excl      bool // Data grants Exclusive (directory had no sharers)
}

// String renders the message compactly.
func (m Msg) String() string {
	return fmt.Sprintf("%v@%d(req=%d,acks=%d)", m.Type, m.Addr, m.Requester, m.Acks)
}
