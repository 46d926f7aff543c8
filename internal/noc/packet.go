// Package noc is a cycle-accurate network-on-chip simulator: virtual-
// channel routers with virtual cut-through flow control, per-virtual-
// network VC partitioning, per-message-class injection and ejection
// queues, single-cycle routers and links with serialization latency.
//
// It is the substrate the DRAIN paper's evaluation runs on (the paper
// used gem5/Garnet2.0; see DESIGN.md for the substitution argument). The
// deadlock-freedom schemes — DRAIN itself (internal/core), SPIN
// (internal/spinrec) and escape VCs (a Config choice) — are layered on
// top through the freeze, rotation and wait-for APIs exposed here.
package noc

import "fmt"

// LocalPort is the pseudo input-link ID for a router's local injection
// port (packets freshly injected from the node occupy local VCs).
const LocalPort = -1

// Packet is a network packet. With virtual cut-through and single-packet
// VCs (Table II "Buffer Organization"), a packet is the unit of buffering
// and Flits only determines link serialization time.
type Packet struct {
	// The fields a hop reads or writes come first, so a packet in transit
	// costs the simulator one or two cache lines, not all of them.
	Dst   int
	Class int // message class; mapped to VNet = Class mod VNets
	VNet  int
	Flits int
	Hops  int

	// Position, maintained by the network. The pipeline state of a
	// buffered packet (when it may move, whether it is departing) lives
	// in its VC slot, not here.
	atRouter int
	inLink   int // LocalPort or the link whose buffer holds the packet
	slot     int // VC slot index within the input port

	// InEscape marks a packet that has entered an escape VC; it may
	// never return to a non-escape VC (paper §III-A).
	InEscape bool
	// DownPhase is the up*/down* routing phase: true once the packet has
	// taken a down link (it may then never go up again).
	DownPhase bool
	// pooled marks a packet sitting in the free-list (see pool.go):
	// set by ReleasePacket, cleared by NewPacket's full rewrite. It
	// exists to catch use-after-release and double-release bugs.
	pooled bool

	ID  int64
	Src int

	// Timestamps (cycles). CreatedAt is when the packet entered the
	// injection queue, InjectedAt when it left the queue into a VC,
	// EjectedAt when it entered the ejection queue.
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64

	// Statistics (with Hops above).
	Misroutes int // hops that did not reduce BFS distance to Dst
	DrainHops int // hops forced by drain windows
	SpinHops  int // hops forced by SPIN recovery

	// Payload carries protocol-level context (e.g. a coherence message).
	Payload any
}

// At returns the router currently buffering the packet.
func (p *Packet) At() int { return p.atRouter }

// Slot returns the VC slot index holding the packet.
func (p *Packet) Slot() int { return p.slot }

// String renders a compact identification for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d[%d→%d c%d at %d]", p.ID, p.Src, p.Dst, p.Class, p.atRouter)
}

// NetworkLatency is the in-network latency (injection to ejection).
func (p *Packet) NetworkLatency() int64 { return p.EjectedAt - p.InjectedAt }
