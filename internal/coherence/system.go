package coherence

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"drain/internal/dense"
	"drain/internal/noc"
)

// LineState is an L1 MESI state.
type LineState byte

// L1 line states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// AccessGen produces the memory reference stream for one core.
type AccessGen interface {
	// Next returns the line address and whether the access is a write.
	Next(core int, rng *rand.Rand) (addr int64, write bool)
	// IssueProb is the per-cycle probability that the core issues a
	// memory access (models compute/memory intensity).
	IssueProb() float64
}

// Prewarmer is an optional AccessGen extension: PrewarmRange names the
// line addresses [first, first+n) to install in a core's cache before
// simulation starts, suppressing the cold-start miss burst that
// full-system simulators avoid with checkpoint warm-up. No two cores'
// ranges may overlap: a line is Exclusive in one L1 at most.
type Prewarmer interface {
	PrewarmRange(core int) (first, n int64)
}

// Config parameterizes the coherence system.
type Config struct {
	// Gen drives each core's reference stream.
	Gen AccessGen
	// MSHRs bounds outstanding misses per core (paper §III-A: MSHRs
	// bound per-class packet counts, a protocol-deadlock assumption).
	MSHRs int
	// L1Lines is the private cache capacity in lines.
	L1Lines int
	// OpsTarget ends the run after every core completes this many memory
	// accesses (0 = run forever; the harness then measures throughput).
	OpsTarget int64
	// Seed drives the per-core reference streams.
	Seed uint64
}

func (c *Config) setDefaults() {
	if c.MSHRs <= 0 {
		c.MSHRs = 4
	}
	if c.L1Lines <= 0 {
		c.L1Lines = 256
	}
}

// mshr tracks one outstanding miss.
type mshr struct {
	addr      int64
	write     bool
	needAcks  int
	gotAcks   int
	gotData   bool
	dataExcl  bool
	completed bool // waiting only to send Unblock / perform fill
}

// sharerSet is a core-index bitset: the directory's sharer list. It is
// walked in ascending core order, the order invalidations go out in.
type sharerSet []uint64

func (ss sharerSet) add(c int) { ss[c>>6] |= 1 << (c & 63) }

func (ss sharerSet) has(c int) bool { return ss[c>>6]>>(c&63)&1 != 0 }

// dirLine is the directory's view of one cache line.
type dirLine struct {
	// sharers stays nil until the line's first Shared transition: most
	// lines (every prewarmed private one) only ever have an owner.
	sharers sharerSet
	owner   int
	state   LineState // Invalid, Shared or Modified (dir-level)
	// busy: a transaction is in flight; new requests for the line stall
	// until Unblock arrives from requester and, when ackFrom ≥ 0, DirAck
	// from the old owner ackFrom.
	busy, gotUnblock, gotDirAck bool
	requester, ackFrom          int32
	// invNext is the sharer cursor of a GetM whose invalidations outnumber
	// InjectCap: the first core whose Inv has not gone out yet (sendInvs).
	// The sharers stay recorded until every Inv has.
	invNext int32
}

// lock opens a transaction for requester; ackFrom ≥ 0 names the old owner
// whose DirAck must also arrive.
func (dl *dirLine) lock(requester, ackFrom int) {
	dl.busy, dl.gotUnblock, dl.gotDirAck = true, false, false
	dl.requester, dl.ackFrom = int32(requester), int32(ackFrom)
}

// warmRange is one core's prewarmed lines [first, end): their home
// records read {Modified, owner} until the home first references them.
type warmRange struct {
	first, end int64
	owner      int
}

// node is one core+L1+directory-slice tile. The three per-address
// structures are open-addressed dense tables (internal/dense), not maps:
// the L1 lookup, MSHR check and directory fetch run on every consumed
// message and every issued access, and the dense tables keep that path
// free of mapaccess/aeshash work and of per-run iteration nondeterminism.
// The directory table maps an address to its line's index in dirLines,
// which holds the lines by value: a home never forgets a line, so the
// array only grows and an index stays valid for the run.
type node struct {
	lines    dense.Table[LineState]
	mshrs    dense.Table[*mshr]
	dir      dense.Table[int32]
	dirLines []dirLine
	// unfinished counts the MSHRs that are completed but still waiting for
	// injection capacity to fill and unblock (what retryCompletions retries).
	unfinished int
	// stops holds where the Request and Forward heads stopped during the
	// last Tick, indexed by class (HeadWait reads them).
	stops [ClassFwd + 1]headStop
	// invAddr is the line whose invalidations are still going out, when
	// invPending: the home consumes no Request until they all have.
	invAddr    int64
	invPending bool

	opsIssued    int64
	opsCompleted int64
	hits         int64
	misses       int64
	blockedCyc   int64 // cycles the core wanted to issue but could not
}

// Stats aggregates system-level protocol statistics.
type Stats struct {
	OpsIssued    int64
	OpsCompleted int64
	Hits         int64
	Misses       int64
	TxCompleted  int64 // coherence transactions finished (MSHR retired)
	BlockedCyc   int64
	MsgsSent     int64
	MsgsByType   [Unblock + 1]int64
}

// System couples cores, caches and directories to a network.
type System struct {
	cfg   Config
	net   *noc.Network
	nodes []*node
	rng   *rand.Rand
	stats Stats

	// injectCap is the network's InjectCap, read once: emit runs for
	// every consumed message and Config() copies the whole config.
	injectCap int

	// warm holds the prewarmed ranges, sorted and disjoint (prewarm).
	warm []warmRange
	// Free lists (LIFO, so reuse is a pure function of the run): a
	// message goes back when its carrier packet is popped, an MSHR when
	// its fill completes.
	freeMsgs  []*Msg
	freeMSHRs []*mshr

	// Scratch buffers: completed MSHR addresses (sorted — retry priority
	// is address order) and the batch a consumer hands emit.
	scrAddrs []int64
	batch    []out
}

// New builds a coherence system over net; the network must be configured
// with Classes ≥ 3.
func New(net *noc.Network, cfg Config) (*System, error) {
	cfg.setDefaults()
	if net.Config().Classes < NumClasses {
		return nil, fmt.Errorf("coherence: network has %d classes, need %d", net.Config().Classes, NumClasses)
	}
	if cfg.Gen == nil {
		return nil, fmt.Errorf("coherence: Config.Gen is required")
	}
	s := &System{
		cfg:       cfg,
		net:       net,
		injectCap: net.Config().InjectCap,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5bd1e995)),
	}
	for i := 0; i < net.Graph().N(); i++ {
		s.nodes = append(s.nodes, &node{})
	}
	if pw, ok := cfg.Gen.(Prewarmer); ok {
		if err := s.prewarm(pw); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// prewarm installs each core's range into its L1 (zero network
// traffic), truncated to leave a quarter of the L1 free for shared
// lines, and keeps the ranges sorted in s.warm. The homes install
// nothing: dirLine derives a prewarmed line's record at its first
// reference.
func (s *System) prewarm(pw Prewarmer) error {
	limit := int64(s.cfg.L1Lines * 3 / 4)
	for c := range s.nodes {
		first, n := pw.PrewarmRange(c)
		if n = min(n, limit); n > 0 {
			s.warm = append(s.warm, warmRange{first: first, end: first + n, owner: c})
		}
	}
	slices.SortFunc(s.warm, func(a, b warmRange) int { return cmp.Compare(a.first, b.first) })
	for i := 1; i < len(s.warm); i++ {
		if prev, w := s.warm[i-1], s.warm[i]; w.first < prev.end {
			return fmt.Errorf("coherence: cores %d and %d both prewarm line %d", prev.owner, w.owner, w.first)
		}
	}
	for _, w := range s.warm {
		nd := s.nodes[w.owner]
		nd.lines.Reserve(int(w.end - w.first))
		for addr := w.first; addr < w.end; addr++ {
			nd.lines.Put(addr, Exclusive)
		}
	}
	return nil
}

// dirLine returns home r's line for addr, installing it on the first
// reference: {Modified, owner} for a line in a prewarmed range, else
// Invalid. Until then the record is exactly what an eager install would
// hold, because every mutation of a record goes through here (DirAck
// and Unblock arrive only for lines with a transaction in flight). The
// pointer is valid until the next install.
func (s *System) dirLine(r int, addr int64) *dirLine {
	nd := s.nodes[r]
	i, ok := nd.dir.Get(addr)
	if !ok {
		dl := dirLine{state: Invalid}
		// Disjoint ranges sorted by first are sorted by end as well.
		if j := sort.Search(len(s.warm), func(j int) bool { return s.warm[j].end > addr }); j < len(s.warm) && s.warm[j].first <= addr {
			dl = dirLine{state: Modified, owner: s.warm[j].owner}
		}
		i = int32(len(nd.dirLines))
		nd.dir.Put(addr, i)
		nd.dirLines = append(nd.dirLines, dl)
	}
	return &nd.dirLines[i]
}

// Stats returns a snapshot of system statistics.
func (s *System) Stats() Stats {
	st := s.stats
	for _, nd := range s.nodes {
		st.OpsIssued += nd.opsIssued
		st.OpsCompleted += nd.opsCompleted
		st.Hits += nd.hits
		st.Misses += nd.misses
		st.BlockedCyc += nd.blockedCyc
	}
	return st
}

// Done reports whether every core reached OpsTarget.
func (s *System) Done() bool {
	if s.cfg.OpsTarget <= 0 {
		return false
	}
	for _, nd := range s.nodes {
		if nd.opsCompleted < s.cfg.OpsTarget {
			return false
		}
	}
	return true
}

// home returns the directory slice for an address.
func (s *System) home(addr int64) int {
	h := int(addr % int64(len(s.nodes)))
	if h < 0 {
		h += len(s.nodes)
	}
	return h
}

// send injects a coherence message; only emit and sendInvs call it,
// after counting capacity. The payload is a *Msg off the free list, so
// storing it in the interface allocates nothing.
func (s *System) send(from int, to int, m Msg) {
	p := s.net.NewPacket(from, to, m.Type.Class(), m.Type.Flits())
	pm := take(&s.freeMsgs)
	*pm = m
	p.Payload = pm
	if !s.net.Inject(p) {
		panic(fmt.Sprintf("coherence: injection failed after capacity check (%v)", m))
	}
	s.stats.MsgsSent++
	s.stats.MsgsByType[m.Type]++
}

// take pops the most recently freed entry of a free list, or allocates
// one when the list is empty.
func take[T any](free *[]*T) *T {
	if k := len(*free); k > 0 {
		x := (*free)[k-1]
		*free = (*free)[:k-1]
		return x
	}
	return new(T)
}

// release recycles a popped packet and its message, which the caller
// has copied out. A consumer that stalls only peeks, so it releases
// nothing.
func (s *System) release(p *noc.Packet) {
	s.freeMsgs = append(s.freeMsgs, p.Payload.(*Msg))
	s.net.ReleasePacket(p)
}

// out is one message of a batch, with its destination.
type out struct {
	to int
	m  Msg
}

// emit is the protocol's one injection gate. If node r's batch fits
// InjectCap in every class, it injects the batch in order and pops the
// head of r's ejection queue of class head (−1 for a fill or an issue:
// none); else it changes nothing, records the head's stop on the first
// class that lacks room and returns false. A Forward head is released
// before its replies take packets and a Request head after, which the
// pool's reuse order (and so PoolFree) depends on.
func (s *System) emit(r, head int, batch []out) bool {
	s.batch = batch[:0] // keep a grown backing array for the next batch
	if s.injectCap > 0 {
		var need [NumClasses]int
		for _, o := range batch {
			need[o.m.Type.Class()]++
		}
		for c, n := range need {
			if n > 0 && s.net.InjQueueLen(r, c)+n > s.injectCap {
				if head >= 0 {
					s.nodes[r].stops[head] = headStop{stopped: true, inject: c}
				}
				return false
			}
		}
	}
	if head == ClassFwd {
		s.release(s.net.PopEjected(r, ClassFwd))
	}
	for _, o := range batch {
		s.send(r, o.to, o.m)
	}
	if head == ClassReq {
		s.release(s.net.PopEjected(r, ClassReq))
	}
	return true
}

// Tick advances the protocol by one cycle: consume deliverable messages,
// then let cores issue. Call once per network cycle (before or after
// Network.Step; the order only shifts latencies by one cycle).
func (s *System) Tick() {
	for r := range s.nodes {
		s.consumeResponses(r)
		s.consumeForwards(r)
		s.consumeRequests(r)
		s.retryCompletions(r)
	}
	for r := range s.nodes {
		s.coreIssue(r)
	}
}

// ---- response handling (pure sink: never needs injection capacity) ----

func (s *System) consumeResponses(r int) {
	// Responses are always consumable; drain the whole queue (sink class,
	// paper §III-D2: "the ejection queue of a sink message class can
	// always be consumed").
	for {
		p := s.net.PopEjected(r, ClassResp)
		if p == nil {
			return
		}
		m := *p.Payload.(*Msg)
		// The message is fully copied out; the carrier packet's life ends
		// here, so hand both back to their free lists.
		s.release(p)
		switch m.Type {
		case Data, InvAck:
			s.onMissResponse(r, m)
		case DirAck, Unblock:
			s.onLineAck(r, m)
		case WBAck:
			// Writeback complete; nothing held.
		default:
			panic("coherence: unexpected response " + m.Type.String())
		}
	}
}

// onMissResponse records a miss's Data or InvAck and, once data and every
// ack have arrived, completes the MSHR. Completion needs injection
// capacity for the Unblock and possibly a writeback; if unavailable it
// retries next cycle (retryCompletions).
func (s *System) onMissResponse(r int, m Msg) {
	ms, ok := s.nodes[r].mshrs.Get(m.Addr)
	if !ok {
		return // stale (transaction raced with writeback); drop
	}
	if m.Type == InvAck {
		ms.gotAcks++
	} else {
		ms.gotData, ms.dataExcl, ms.needAcks = true, m.Excl, m.Acks
	}
	if !ms.gotData || ms.gotAcks < ms.needAcks {
		return
	}
	if !ms.completed {
		ms.completed = true
		s.nodes[r].unfinished++
	}
	s.tryFinish(r, ms)
}

// onLineAck records a busy line's DirAck or Unblock, and frees the line
// once every response it awaits has arrived.
func (s *System) onLineAck(r int, m Msg) {
	nd := s.nodes[r]
	if i, ok := nd.dir.Get(m.Addr); ok {
		dl := &nd.dirLines[i]
		if m.Type == DirAck {
			dl.gotDirAck = true
		} else {
			dl.gotUnblock = true
		}
		if dl.busy && dl.gotUnblock && (dl.ackFrom < 0 || dl.gotDirAck) {
			dl.busy, dl.gotUnblock, dl.gotDirAck = false, false, false
		}
	}
}

// tryFinish performs the fill + Unblock once capacity allows: the fill
// sends a PutM first when it must evict a Modified line.
func (s *System) tryFinish(r int, ms *mshr) {
	nd := s.nodes[r]
	victim, needWB := s.pickVictim(r)
	b := s.batch[:0]
	if needWB {
		b = append(b, out{s.home(victim), Msg{Type: PutM, Addr: victim, Requester: r}})
	}
	if !s.emit(r, -1, append(b, out{s.home(ms.addr), Msg{Type: Unblock, Addr: ms.addr, Requester: r}})) {
		return
	}
	if victim >= 0 {
		nd.lines.Delete(victim) // written back above, or a silent S/E eviction
	}
	if ms.write {
		nd.lines.Put(ms.addr, Modified)
	} else if ms.dataExcl {
		nd.lines.Put(ms.addr, Exclusive)
	} else {
		nd.lines.Put(ms.addr, Shared)
	}
	nd.mshrs.Delete(ms.addr)
	s.freeMSHRs = append(s.freeMSHRs, ms)
	nd.unfinished--
	nd.opsCompleted++
	s.stats.TxCompleted++
}

// pickVictim chooses an eviction victim if the L1 is full; returns
// (-1,false) when no eviction is needed.
func (s *System) pickVictim(r int) (int64, bool) {
	nd := s.nodes[r]
	if nd.lines.Len() < s.cfg.L1Lines {
		return -1, false
	}
	// Random replacement: one RNG draw salts an integer hash and the
	// line with the smallest hash (address tie-break) is evicted — a
	// commutative reduction, so it selects the same victim under any
	// visit order, and dense.Table's walk is deterministic anyway.
	salt := s.rng.Uint64()
	victim, best, found := int64(0), uint64(0), false
	nd.lines.Each(func(a int64, _ LineState) bool {
		h := mix64(uint64(a) ^ salt)
		if !found || h < best || (h == best && a < victim) {
			victim, best, found = a, h, true
		}
		return true
	})
	st, _ := nd.lines.Get(victim)
	return victim, st == Modified
}

// mix64 is the splitmix64 finalizer, used as the victim-selection hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// retryCompletions re-attempts fills blocked on injection capacity, in
// address order: when capacity admits only some of them, every run with
// the same seed must finish the same ones first.
func (s *System) retryCompletions(r int) {
	nd := s.nodes[r]
	if nd.unfinished == 0 {
		return // the usual cycle: skip the table walk
	}
	addrs := s.scrAddrs[:0]
	nd.mshrs.Each(func(a int64, ms *mshr) bool {
		if ms.completed {
			addrs = append(addrs, a)
		}
		return true
	})
	// The sort stays: address order is the protocol's retry priority
	// (dense.Table walks in slot order, which is not sorted).
	slices.Sort(addrs)
	for _, a := range addrs {
		if ms, ok := nd.mshrs.Get(a); ok {
			s.tryFinish(r, ms)
		}
	}
	s.scrAddrs = addrs[:0]
}

// ---- forward handling (consuming injects responses) ----

func (s *System) consumeForwards(r int) {
	nd := s.nodes[r]
	nd.stops[ClassFwd] = headStop{}
	for {
		p := s.net.PeekEjected(r, ClassFwd)
		if p == nil {
			return
		}
		m := *p.Payload.(*Msg)
		b := s.batch[:0]
		switch m.Type {
		case Inv:
			b = append(b, out{m.Requester, Msg{Type: InvAck, Addr: m.Addr, Requester: m.Requester}})
		case FwdGetS, FwdGetM:
			// Owner supplies Data to the requester and acknowledges the
			// directory: two responses.
			b = append(b, out{m.Requester, Msg{Type: Data, Addr: m.Addr, Requester: m.Requester}},
				out{s.home(m.Addr), Msg{Type: DirAck, Addr: m.Addr, Requester: m.Requester}})
		default:
			panic("coherence: unexpected forward " + m.Type.String())
		}
		if !s.emit(r, ClassFwd, b) {
			return
		}
		if m.Type == FwdGetS {
			nd.lines.Put(m.Addr, Shared)
		} else {
			nd.lines.Delete(m.Addr)
		}
	}
}

// ---- request handling at the directory ----

func (s *System) consumeRequests(r int) {
	nd := s.nodes[r]
	nd.stops[ClassReq] = headStop{}
	for !nd.invPending || !s.sendInvs(r) {
		p := s.net.PeekEjected(r, ClassReq)
		if p == nil {
			return
		}
		m := *p.Payload.(*Msg)
		dl := s.dirLine(r, m.Addr)
		if m.Type != PutM && dl.busy {
			// Head-of-line stall: the whole queue waits for this line.
			nd.stops[ClassReq] = headStop{stopped: true, inject: -1, addr: m.Addr}
			return
		}
		if !s.processRequest(r, m, dl) {
			return
		}
	}
	if s.net.PeekEjected(r, ClassReq) != nil {
		nd.stops[ClassReq] = headStop{stopped: true, inject: ClassFwd}
	}
}

// sendInvs sends as many of home r's outstanding invalidations
// (invPending) as fit InjectCap, in ascending core order, and reports
// whether any remain.
func (s *System) sendInvs(r int) bool {
	nd := s.nodes[r]
	dl := s.dirLine(r, nd.invAddr)
	for ; int(dl.invNext) < len(s.nodes); dl.invNext++ {
		if sh := int(dl.invNext); dl.sharers.has(sh) && sh != int(dl.requester) {
			if s.net.InjQueueLen(r, ClassFwd) >= s.injectCap {
				return true
			}
			s.send(r, sh, Msg{Type: Inv, Addr: nd.invAddr, Requester: int(dl.requester)})
		}
	}
	clear(dl.sharers)
	nd.invPending = false
	return false
}

// processRequest applies one directory request through emit; it returns
// false, leaving the line as it was, when emit refuses the replies.
func (s *System) processRequest(r int, m Msg, dl *dirLine) bool {
	c := m.Requester
	fwd := dl.state == Modified && dl.owner != c // the owner supplies the data
	data := Msg{Type: Data, Addr: m.Addr, Requester: c, Excl: m.Type == GetM || dl.state != Shared}
	b, later := s.batch[:0], -1
	switch {
	case m.Type == PutM:
		b = append(b, out{c, Msg{Type: WBAck, Addr: m.Addr, Requester: c}})
	case fwd && m.Type == GetS:
		b = append(b, out{dl.owner, Msg{Type: FwdGetS, Addr: m.Addr, Requester: c}})
	case fwd:
		b = append(b, out{dl.owner, Msg{Type: FwdGetM, Addr: m.Addr, Requester: c}})
	case m.Type == GetM && dl.state == Shared:
		// Invalidate the other sharers in ascending core order.
		for w, word := range dl.sharers {
			for ; word != 0; word &= word - 1 {
				if sh := w<<6 + bits.TrailingZeros64(word); sh != c {
					b = append(b, out{sh, Msg{Type: Inv, Addr: m.Addr, Requester: c}})
				}
			}
		}
		data.Acks = len(b)
		if s.injectCap > 0 && len(b) > s.injectCap {
			// More than InjectCap can ever admit at once: the Data and
			// the Invs that fit now go out, and sendInvs sends the rest.
			fit := max(0, s.injectCap-s.net.InjQueueLen(r, ClassFwd))
			b, later = b[:fit], b[fit].to
		}
		fallthrough
	default:
		b = append(b, out{c, data})
	}
	if !s.emit(r, ClassReq, b) {
		return false
	}
	switch {
	case m.Type == PutM:
		if dl.state == Modified && dl.owner == c && !dl.busy {
			dl.state, dl.owner = Invalid, -1
		}
	case fwd && m.Type == GetS:
		if dl.sharers == nil {
			dl.sharers = make(sharerSet, (len(s.nodes)+63)/64)
		}
		dl.sharers.add(dl.owner)
		dl.sharers.add(c)
		dl.lock(c, dl.owner)
		dl.state, dl.owner = Shared, -1
	case m.Type == GetS && dl.state == Shared:
		dl.sharers.add(c)
		dl.lock(c, -1)
	default:
		// Every other request leaves c the owner: GetS on an Invalid line
		// (E at the core, tracked as owned), GetM, and a stale request
		// from the owner itself after a silent upgrade.
		ackFrom := -1
		if fwd {
			ackFrom = dl.owner
		}
		if later >= 0 {
			dl.invNext, s.nodes[r].invAddr, s.nodes[r].invPending = int32(later), m.Addr, true
		} else if dl.state == Shared {
			clear(dl.sharers)
		}
		dl.lock(c, ackFrom)
		dl.state, dl.owner = Modified, c
	}
	return true
}

// ---- core issue ----

func (s *System) coreIssue(r int) {
	nd := s.nodes[r]
	if s.cfg.OpsTarget > 0 && nd.opsIssued >= s.cfg.OpsTarget {
		return
	}
	if s.rng.Float64() >= s.cfg.Gen.IssueProb() {
		return
	}
	addr, write := s.cfg.Gen.Next(r, s.rng)
	st, ok := nd.lines.Get(addr)
	if ok && (!write && st != Invalid || write && (st == Exclusive || st == Modified)) {
		// Hit. E→M upgrade on write is silent at the L1.
		if write {
			nd.lines.Put(addr, Modified)
		}
		nd.hits++
		nd.opsIssued++
		nd.opsCompleted++
		return
	}
	if write && st == Shared {
		nd.lines.Delete(addr) // upgrade handled as a fresh GetM below
	}
	// Miss: it needs no miss pending on addr, a free MSHR and room for
	// the request.
	t := GetS
	if write {
		t = GetM
	}
	if _, pending := nd.mshrs.Get(addr); pending || nd.mshrs.Len() >= s.cfg.MSHRs ||
		!s.emit(r, -1, append(s.batch[:0], out{s.home(addr), Msg{Type: t, Addr: addr, Requester: r}})) {
		nd.blockedCyc++
		return
	}
	ms := take(&s.freeMSHRs)
	*ms = mshr{addr: addr, write: write}
	nd.mshrs.Put(addr, ms)
	nd.opsIssued++
	nd.misses++
}
