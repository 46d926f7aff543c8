package noc

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"drain/internal/routing"
	"drain/internal/topology"
)

// vcSlot is one virtual-channel buffer (single packet, VCT). The head's
// pipeline state lives here, beside the pointer, so promotion decides
// eligibility without touching the packet: readyAt is the cycle the head
// may first move, sending marks a head whose transfer out is in flight,
// and dst mirrors pkt.Dst (checked by CheckInvariants). When the head
// next needs routing sits apart, in Network.rerouteAt.
type vcSlot struct {
	pkt     *Packet
	readyAt int64
	dst     int32
	sending bool
}

// portMask is the slot state of one input port, one bit per VC slot:
// occ is set while the slot holds a packet, free while it is neither
// occupied nor reserved. A slot in neither set is reserved — claimed by
// an in-flight transfer that has not landed yet. first and bit0 locate
// the port's slot 0: its index in Network.vc and its number at its
// router (constants, kept here because every slot access has the port's
// masks in hand).
type portMask struct {
	occ, free   uint64
	first, bit0 int32
}

// MaxVCsPerPort is the most VCs (VNets x VCsPerVN) an input port can
// have: the width of a portMask word.
const MaxVCsPerPort = 64

// flight is an in-progress transfer over a link or through an eject port.
type flight struct {
	pkt      *Packet
	doneAt   int64
	toLink   int32 // destination link (buffer at its head router); -1 for eject
	toRouter int32
	toSlot   int32
	eject    bool
	// effects applied on arrival
	downPhase  bool
	productive bool
}

// Network is a complete NoC instance. It is not safe for concurrent use;
// the simulator is single-threaded and deterministic for a given seed.
type Network struct {
	cfg Config
	g   *topology.Graph
	tab *routing.Table
	rng *rand.Rand

	cycle  int64
	frozen bool

	// eng is the cycle-core implementation (event or dense) behind Step;
	// it owns the in-flight transfer set and, for the event engine, the
	// activity bitmaps and timing wheel. Network notifies it at every
	// eligibility-changing point (placed, noteInject, addFlight).
	eng engine

	// VC state is flat: input ports are numbered link ports first (by
	// link ID) then local injection ports (NumLinks + router). The slots
	// are stored router by router in each router's own numbering (see
	// buildLayout): slot s of port p is vc[ports[p].first+s]. vnMask has the
	// low VCsPerVN bits set: shifted to a virtual network's base slot it
	// selects that VN's slots in a portMask word.
	vcPerPort int
	vnMask    uint64
	vc        []vcSlot
	// The VC partition, the one place the escape discipline (paper
	// §III-A) lives: escVC and mainVC are a VN's escape and non-escape
	// slots as freeInVN numbers them — VC 0 is the escape VC under
	// PolicyEscape, which only the escape path (moves' esc list) reaches;
	// without it every slot is a main one. sticky: entering the escape VC
	// sets InEscape (PolicyEscape without NonStickyEscape).
	escVC, mainVC uint64
	sticky        bool
	// rerouteAt[i] is the cycle the head in vc[i] next needs routing:
	// readyAt while it is pending, then the cycle its candidates next
	// change with time alone (never when they do not, and once it is
	// sending); 0 for an empty slot. Apart from vc, promote tests every
	// timed head without loading the slots of those not due.
	rerouteAt []int64
	ports     []portMask
	linkBusy  []int64 // per link: busy until this cycle (exclusive)
	ejectBusy []int64 // per router

	injQ [][]pktQueue // [router][class]
	ejQ  [][]pktQueue

	// ejDirty/ejDirtyList track routers whose ejection queues received
	// packets since the last DiscardEjected sweep, so synthetic sinks
	// drain only routers that actually ejected something.
	ejDirty     []bool
	ejDirtyList []int32

	inLinks [][]int // link IDs ending at each router, ascending

	// Head masks (see step.go): subs[r*maskW+w] is sub-block w of router
	// r — word w of each of its routerMasks masks and of the linkMasks
	// masks of each of its outputs, link l's at lbase[l]. heads[r] is the
	// index in vc of router r's slot 0. vnBits has, per virtual network,
	// the mask of that VN's slots at any router. optMain/optEsc are the
	// arbitration scratch. escMask is where an output's escape candidate
	// mask sits after lbase: mEsc, or mMain when the escape lookup always
	// returns the main one (sharedEscape) and both paths read one mask.
	subs    [][]uint64
	maskW   int
	heads   []int32
	lbase   []int32
	vnBits  []uint64
	optMain []uint64
	optEsc  []uint64
	escMask int
	// loneGrants counts the grants made by allocateRouter's uncontested
	// exit (tests watch it; it is not a result, so not in Counters).
	loneGrants int64

	nextID int64

	// OnEject, when set, is invoked for every packet as it enters an
	// ejection queue (including packets ejected during drain windows).
	// Simulation drivers use it to collect latency statistics.
	OnEject func(*Packet)

	Counters Counters

	// freePkts is the packet free-list (LIFO): NewPacket pops it,
	// ReleasePacket pushes it. See pool.go for the ownership and
	// determinism rules.
	freePkts []*Packet

	// linkDown marks unidirectional links failed by a live
	// reconfiguration (see Reconfigure). The graph and all linkID-indexed
	// arrays keep the full topology's dense numbering forever; a failed
	// link simply vanishes from every routing candidate set, so no hot
	// path consults this overlay. Invariant: a down link's input VC slots
	// hold no non-sending packets and no reservations.
	linkDown []bool
	// scrDown is Reconfigure's scratch for the incoming down set, scrPkts
	// (one entry per link VC) the rotations' for the packets they move:
	// both paths are alloc-free (see the hotalloc roots).
	scrDown []bool
	scrPkts []*Packet
}

// New builds a network from cfg (cfg is validated and defaulted).
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab := cfg.Table
	if tab == nil {
		var err error
		tab, err = routing.NewTable(cfg.Graph, cfg.Mesh)
		if err != nil {
			return nil, err
		}
	}
	g := cfg.Graph
	n := &Network{
		cfg:       cfg,
		g:         g,
		tab:       tab,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		vcPerPort: cfg.VCsPerPort(),
		vnMask:    1<<uint(cfg.VCsPerVN) - 1,
		sticky:    cfg.PolicyEscape && !cfg.NonStickyEscape,
		linkBusy:  make([]int64, g.NumLinks()),
		ejectBusy: make([]int64, g.N()),
		inLinks:   make([][]int, g.N()),
	}
	n.mainVC = n.vnMask
	if cfg.PolicyEscape {
		n.escVC, n.mainVC = 1, n.vnMask&^1
	}
	n.ports = make([]portMask, g.NumLinks()+g.N())
	for i := range n.ports {
		n.ports[i].free = 1<<uint(n.vcPerPort) - 1
	}
	n.injQ = make([][]pktQueue, g.N())
	n.ejQ = make([][]pktQueue, g.N())
	n.ejDirty = make([]bool, g.N())
	n.linkDown = make([]bool, g.NumLinks())
	n.scrDown = make([]bool, g.NumLinks())
	n.scrPkts = make([]*Packet, g.NumLinks()*n.vcPerPort)
	n.eng = newEngine(&n.cfg)
	for r := 0; r < g.N(); r++ {
		n.injQ[r] = make([]pktQueue, cfg.Classes)
		n.ejQ[r] = make([]pktQueue, cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			// Pre-size the rings to their caps so bounded queues never
			// grow (and so Push never allocates) in steady state.
			n.injQ[r][c] = newPktQueue(cfg.InjectCap)
			n.ejQ[r][c] = newPktQueue(cfg.EjectCap)
		}
	}
	for _, l := range g.Links() {
		n.inLinks[l.To] = append(n.inLinks[l.To], l.ID)
	}
	n.buildLayout()
	n.Counters.VNFlits = make([]int64, cfg.VNets)
	n.Counters.VNActiveRouterCycles = make([]int64, cfg.VNets)
	n.Counters.vnRouterLastActive = make([][]int64, cfg.VNets)
	for vn := range n.Counters.vnRouterLastActive {
		row := make([]int64, g.N())
		for r := range row {
			row[r] = -1
		}
		n.Counters.vnRouterLastActive[vn] = row
	}
	return n, nil
}

// Config returns the network's (validated) configuration.
func (n *Network) Config() Config { return n.cfg }

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Table returns the routing table.
func (n *Network) Table() *routing.Table { return n.tab }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Frozen reports whether allocation is frozen (pre-drain credit freeze).
func (n *Network) Frozen() bool { return n.frozen }

// SetFrozen engages or releases the credit freeze: while frozen, no new
// VC/switch allocations or injections occur, but in-flight transfers
// complete (paper §III-C2 "Pre-Drain Window").
func (n *Network) SetFrozen(v bool) { n.frozen = v }

// InflightCount returns the number of transfers currently on links.
func (n *Network) InflightCount() int { return n.eng.inflightCount() }

// NextWorkCycle is a shim kept for the frozen cmd/drainbench/cycle.go
// until ROADMAP B1(d): every run steps every cycle. It returns a lower
// bound on the next cycle at which stepping could have an observable
// effect, and the next cycle always is one.
func (n *Network) NextWorkCycle() int64 { return n.cycle + 1 }

// SkipIdle is a shim kept for the frozen cmd/drainbench/cycle.go until
// ROADMAP B1(d). It would jump the clock over k cycles below
// NextWorkCycle(); there are none, so it accepts only k <= 0.
func (n *Network) SkipIdle(k int64) {
	if k > 0 {
		panic("noc: SkipIdle over a cycle that may have work")
	}
}

// NewPacket returns a packet with position/IDs initialized; the caller
// sets protocol fields and passes it to Inject. The packet comes from
// the network's free-list when one is available (see pool.go) — every
// field is rewritten, so a recycled packet is indistinguishable from a
// fresh allocation.
func (n *Network) NewPacket(src, dst, class, flits int) *Packet {
	n.nextID++
	p := n.takePacket()
	*p = Packet{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Class:     class,
		VNet:      n.cfg.VNetOf(class),
		Flits:     flits,
		CreatedAt: n.cycle,
		atRouter:  src,
		inLink:    LocalPort,
		slot:      -1,
	}
	return p
}

// CanInject reports whether router r's injection queue for class has room.
func (n *Network) CanInject(r, class int) bool {
	return n.cfg.InjectCap == 0 || n.injQ[r][class].Len() < n.cfg.InjectCap
}

// Inject queues p at its source router. It returns false (dropping
// nothing; the caller retries) when the injection queue is bounded and
// full.
func (n *Network) Inject(p *Packet) bool {
	if !n.CanInject(p.Src, p.Class) {
		return false
	}
	if p.Flits > n.cfg.MaxFlits {
		panic(fmt.Sprintf("noc: packet of %d flits exceeds MaxFlits %d", p.Flits, n.cfg.MaxFlits))
	}
	q := &n.injQ[p.Src][p.Class]
	if q.Len() == 0 {
		n.eng.noteInject(n, p.Src)
	}
	q.Push(p)
	n.Counters.Created++
	return true
}

// InjQueueLen returns the length of router r's class injection queue.
func (n *Network) InjQueueLen(r, class int) int { return n.injQ[r][class].Len() }

// EjectedLen returns the number of packets waiting in router r's class
// ejection queue.
func (n *Network) EjectedLen(r, class int) int { return n.ejQ[r][class].Len() }

// ejectSpace reports whether the class queue at r can accept one more.
func (n *Network) ejectSpace(r, class int) bool {
	return n.ejQ[r][class].Len() < n.cfg.EjectCap
}

// PopEjected removes and returns the oldest ejected packet of the class
// at router r, or nil if the queue is empty. The consumer (traffic sink
// or coherence controller) calls this; separate per-class consumption is
// what makes the paper's protocol-deadlock assumptions hold.
func (n *Network) PopEjected(r, class int) *Packet {
	return n.ejQ[r][class].Pop()
}

// PeekEjected returns the oldest ejected packet without removing it.
func (n *Network) PeekEjected(r, class int) *Packet {
	return n.ejQ[r][class].Peek()
}

// DiscardEjected empties every ejection queue, visiting only routers
// that ejected something since the last sweep, and recycles every
// drained packet into the free-list (the delivered packet's simulation
// life is over; statistics were taken at OnEject time). Synthetic-
// traffic sinks use it in place of a full router × class PopEjected
// scan; protocol consumers that need the packets keep using PopEjected
// (a router left dirty after manual pops is a harmless extra visit
// here) and may ReleasePacket themselves once done.
func (n *Network) DiscardEjected() {
	for _, r := range n.ejDirtyList {
		for c := range n.ejQ[r] {
			q := &n.ejQ[r][c]
			for p := q.Pop(); p != nil; p = q.Pop() {
				n.ReleasePacket(p)
			}
		}
		n.ejDirty[r] = false
	}
	n.ejDirtyList = n.ejDirtyList[:0]
}

// localPort returns the port index of router r's local injection port.
func (n *Network) localPort(r int) int { return n.g.NumLinks() + r }

// portOf resolves a packet position's input port: the link's own index,
// or the router's local port for LocalPort.
func (n *Network) portOf(inLink, router int) int {
	if inLink == LocalPort {
		return n.localPort(router)
	}
	return inLink
}

// buildLayout numbers every router's slots — in-links ascending, slots
// ascending within a port, the local port last; vc stores them router by
// router in that order — and lays out the head masks (New only; the
// masks start empty, like the slots).
func (n *Network) buildLayout() {
	g := n.g
	n.heads = make([]int32, g.N())
	n.lbase = make([]int32, g.NumLinks())
	heads, slots, words := 0, 0, 0
	for r := range n.heads {
		n.heads[r] = int32(heads)
		place := func(port int) {
			n.ports[port].first, n.ports[port].bit0 = int32(heads), int32(heads)-n.heads[r]
			heads += n.vcPerPort
		}
		for _, l := range n.inLinks[r] {
			place(l)
		}
		place(n.localPort(r))
		slots = max(slots, heads-int(n.heads[r]))
		for pos, l := range g.OutLinks(r) {
			n.lbase[l] = int32(routerMasks + linkMasks*pos)
		}
		words += routerMasks + linkMasks*g.Degree(r)
	}
	n.vc = make([]vcSlot, heads)
	n.rerouteAt = make([]int64, heads)
	n.maskW = (slots + 63) / 64
	masks := make([]uint64, words*n.maskW)
	n.subs = make([][]uint64, 0, g.N()*n.maskW)
	for r := range n.heads {
		stride := routerMasks + linkMasks*g.Degree(r)
		for w := 0; w < n.maskW; w++ {
			n.subs = append(n.subs, masks[:stride:stride])
			masks = masks[stride:]
		}
		for s := 0; s < n.vcPerPort; s++ {
			b := int(n.ports[n.localPort(r)].bit0) + s
			n.sub(r, b>>6)[mLocal] |= 1 << uint(b&63)
		}
	}
	n.vnBits = make([]uint64, n.cfg.VNets*n.maskW)
	for b := 0; b < n.maskW*64; b++ {
		n.vnBits[b%n.vcPerPort/n.cfg.VCsPerVN*n.maskW+b>>6] |= 1 << uint(b&63)
	}
	n.optMain = make([]uint64, n.maskW)
	n.optEsc = make([]uint64, n.maskW)
	n.escMask = mEsc
	if sharedEscape(&n.cfg) {
		n.escMask = mMain
	}
}

// sharedEscape reports whether the escape lookup provably returns the
// main one: DRAIN's unrestricted escape VC routes like every other VC,
// under a kind that ignores the up*/down* phase, and non-sticky escape
// never sets InEscape (CheckInvariants asserts it).
func sharedEscape(c *Config) bool {
	return c.PolicyEscape && c.NonStickyEscape && c.EscapeRouting == c.Routing && c.Routing != routing.UpDown
}

// slot returns VC slot s of the given input port.
func (n *Network) slot(port, s int) *vcSlot { return &n.vc[int(n.ports[port].first)+s] }

// sub returns sub-block w of router r's head masks: word w of each.
func (n *Network) sub(r, w int) []uint64 { return n.subs[r*n.maskW+w] }

// head returns the VC slot numbered b at router r.
func (n *Network) head(r, b int) *vcSlot { return &n.vc[int(n.heads[r])+b] }

// occupy makes p the head of slot s of the given input port of router,
// eligible to move from readyAt; it waits in the pending mask for the
// router's next visit to route it. The slot must be free or reserved for
// p's transfer.
func (n *Network) occupy(router, port, s int, p *Packet, readyAt int64) {
	pm := &n.ports[port]
	n.vc[int(pm.first)+s] = vcSlot{pkt: p, readyAt: readyAt, dst: int32(p.Dst)}
	n.rerouteAt[int(pm.first)+s] = readyAt
	pm.occ |= 1 << uint(s)
	pm.free &^= 1 << uint(s)
	b := int(pm.bit0) + s
	blk := n.sub(router, b>>6)
	blk[mPend] |= 1 << uint(b&63)
}

// seat makes p the head of the given slot of router's input port inLink
// (a link, or LocalPort), eligible to move from readyAt: the one way a
// packet enters a VC buffer. Entering an escape VC under the sticky
// discipline makes the packet sticky.
func (n *Network) seat(p *Packet, router, inLink, slot int, readyAt int64) {
	n.occupy(router, n.portOf(inLink, router), slot, p, readyAt)
	p.atRouter, p.inLink, p.slot = router, inLink, slot
	if n.stickyAt(slot) {
		p.InEscape = true
	}
	n.eng.placed(n, router, readyAt)
}

// vacate empties slot s of the given input port and marks it free. The
// head must be in no mask: a departing one left them when it was
// granted, a waiting one is dropped first (dropWaiting).
func (n *Network) vacate(port, s int) {
	pm := &n.ports[port]
	n.vc[int(pm.first)+s] = vcSlot{}
	n.rerouteAt[int(pm.first)+s] = 0
	pm.occ &^= 1 << uint(s)
	pm.free |= 1 << uint(s)
}

// dropWaiting vacates slot s of the given input port of router, which
// holds a head that is not departing.
func (n *Network) dropWaiting(router, port, s int) {
	b := int(n.ports[port].bit0) + s
	n.dropHead(n.sub(router, b>>6), 1<<uint(b&63))
	n.vacate(port, s)
}

// slotOf returns the VC slot holding the buffered packet p.
func (n *Network) slotOf(p *Packet) *vcSlot {
	return n.slot(n.portOf(p.inLink, p.atRouter), p.slot)
}

// freeInVN returns the free slots of virtual network vn at an input
// port, shifted down so bit 0 is the VN's first (escape) slot.
func (n *Network) freeInVN(port, vn int) uint64 {
	return n.ports[port].free >> uint(vn*n.cfg.VCsPerVN) & n.vnMask
}

// stickyAt reports whether a packet entering port slot s becomes sticky
// in the escape VC.
func (n *Network) stickyAt(s int) bool {
	return n.sticky && n.escVC>>uint(s%n.cfg.VCsPerVN)&1 != 0
}

// OccupiedVCs returns the number of link VC buffers currently holding
// packets (diagnostic).
func (n *Network) OccupiedVCs() int {
	c := 0
	for _, pm := range n.ports[:n.g.NumLinks()] {
		c += bits.OnesCount64(pm.occ)
	}
	return c
}

// InFlightPackets returns the total packets anywhere in the network:
// injection queues, VCs, and ejection queues. A packet mid-transfer on
// a link still occupies its upstream VC slot (land() frees it on
// completion), so the occupancy scan already covers every flight —
// counting n.inflights too would double-count packets in motion.
func (n *Network) InFlightPackets() int {
	total := 0
	for r := 0; r < n.g.N(); r++ {
		for c := 0; c < n.cfg.Classes; c++ {
			total += n.injQ[r][c].Len() + n.ejQ[r][c].Len()
		}
		total += bits.OnesCount64(n.ports[n.localPort(r)].occ)
	}
	return total + n.OccupiedVCs()
}

// EscapeOccupant returns the packet in link's escape VC for virtual
// network vn, or nil.
func (n *Network) EscapeOccupant(linkID, vn int) *Packet {
	return n.LinkOccupant(linkID, n.cfg.EscapeSlot(vn))
}

// LinkOccupant returns the packet in the given link VC slot, or nil.
func (n *Network) LinkOccupant(linkID, slot int) *Packet {
	return n.slot(linkID, slot).pkt
}

// LocalOccupant returns the packet in the given local VC slot, or nil.
func (n *Network) LocalOccupant(router, slot int) *Packet {
	return n.slot(n.localPort(router), slot).pkt
}
