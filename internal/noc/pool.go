package noc

// Packet pooling: a deterministic LIFO free-list that makes a run's
// packet allocations O(peak live packets) instead of O(packets
// injected). NewPacket pops the most recently released Packet and
// rewrites every field; ReleasePacket pushes a packet whose simulation
// life has ended. The pool is deliberately NOT a sync.Pool: sync.Pool's
// per-P caches and GC-cycle victim drops make hit/miss (and therefore
// allocation) behavior scheduling-dependent, while this list is a plain
// slice whose state is a pure function of the simulation history.
//
// Determinism across engines: packet creation (traffic generators,
// coherence controllers), driver-side consumption (DiscardEjected,
// PopEjected) and the fault-drop paths (Reconfigure, dropFlight) all run
// between Steps, in an order the engine does not influence; and since no
// observable output depends on *which* struct backs a packet (all
// outputs are field values, never pointer identities), reuse cannot
// perturb byte-identity. DESIGN.md §12 has the full ownership argument.

// ReleasePacket returns p to the network's free-list for reuse by a
// future NewPacket. The caller must own p outright — popped from an
// ejection queue or never successfully injected — and must not touch it
// afterwards. Releasing a packet still inside the network corrupts the
// simulation; releasing one twice panics (CheckInvariants and the
// conservation fuzz also police both). Consumers that keep packets
// (or simply drop them to the GC) remain correct — pooling is an
// optimization, never an obligation.
func (n *Network) ReleasePacket(p *Packet) {
	if p.pooled {
		panic("noc: ReleasePacket called twice on the same packet")
	}
	p.pooled = true
	p.Payload = nil // drop protocol payloads so the pool pins no memory
	n.freePkts = append(n.freePkts, p)
	n.Counters.Recycled++
}

// PoolFree returns the number of packets currently in the free-list
// (diagnostic; tests pin the pool's bookkeeping with it).
func (n *Network) PoolFree() int { return len(n.freePkts) }

// takePacket pops the most recently released packet, or allocates when
// the list is empty. Every field is overwritten by the caller
// (NewPacket), so no reset pass is needed here beyond the pop itself.
func (n *Network) takePacket() *Packet {
	if k := len(n.freePkts); k > 0 {
		p := n.freePkts[k-1]
		n.freePkts[k-1] = nil
		n.freePkts = n.freePkts[:k-1]
		return p
	}
	return allocPacket()
}

// allocPacket is the pool's miss path: the one place a Packet is heap-
// allocated. It fires once per new high-water mark of simultaneously
// live packets; steady state recycles and never reaches it. go:noinline
// keeps the compiler from folding the allocation into NewPacket, so the
// hot path is the pop alone and an allocation profile names this function.
//
//drain:coldpath pool miss fires only on a new high-water mark of live packets; steady-state NewPacket pops the free-list
//go:noinline
func allocPacket() *Packet { return new(Packet) }
