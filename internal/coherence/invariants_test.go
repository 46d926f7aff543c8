package coherence

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"drain/internal/core"
	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
)

// holder is one L1's copy of a line.
type holder struct {
	core  int
	state LineState
}

// line is one line as the invariants see it: its L1 copies, in core
// order, and its home's record.
type line struct {
	holders []holder
	rec     dirLine
}

// lines returns every line some L1 holds or some home has a record for.
// It reads the system only: where dirLine would install a record on a
// first reference, it derives that record instead — {Modified, owner}
// inside a prewarmed range (found by a linear scan of s.warm), else
// Invalid.
func lines(s *System) map[int64]line {
	ls := map[int64]line{}
	for c, nd := range s.nodes {
		nd.lines.Each(func(addr int64, st LineState) bool {
			l := ls[addr]
			l.holders = append(l.holders, holder{c, st})
			ls[addr] = l
			return true
		})
		nd.dir.Each(func(addr int64, _ int32) bool {
			ls[addr] = ls[addr]
			return true
		})
	}
	for addr, l := range ls {
		home := s.nodes[s.home(addr)]
		l.rec = dirLine{state: Invalid}
		if i, ok := home.dir.Get(addr); ok {
			l.rec = home.dirLines[i]
		} else if w := slices.IndexFunc(s.warm, func(w warmRange) bool { return w.first <= addr && addr < w.end }); w >= 0 {
			l.rec = dirLine{state: Modified, owner: s.warm[w].owner}
		}
		ls[addr] = l
	}
	return ls
}

// violation returns the lowest-addressed line of ls that breaks either
// of two of the protocol's global invariants, and why:
//   - single writer: at most one L1 holds the line in E/M, and then no
//     L1 holds it in S;
//   - directory agreement, on every line whose record is not busy:
//     Invalid means no L1 holds it, Modified that only the owner may,
//     and Shared that every holder is a sharer and none holds E/M.
func violation(ls map[int64]line) (addr int64, err error) {
	for a, l := range ls {
		if e := l.violation(a); e != nil && (err == nil || a < addr) {
			addr, err = a, e
		}
	}
	return addr, err
}

func (l line) violation(addr int64) error {
	writers := 0
	for _, h := range l.holders {
		if h.state == Exclusive || h.state == Modified {
			writers++
		}
	}
	if writers > 1 || writers == 1 && len(l.holders) > 1 {
		return fmt.Errorf("line %d: single writer broken, holders %v", addr, l.holders)
	}
	dl := l.rec
	for _, h := range l.holders {
		isSharer := dl.sharers != nil && dl.sharers[h.core>>6]>>(h.core&63)&1 == 1
		if !dl.busy && (dl.state == Invalid || dl.state == Modified && h.core != dl.owner ||
			dl.state == Shared && (!isSharer || h.state != Shared)) {
			return fmt.Errorf("line %d: directory {state %d owner %d sharers %b} disagrees with holder %+v", addr, dl.state, dl.owner, dl.sharers, h)
		}
	}
	return nil
}

// A writeback can be overtaken: an owner evicts its Modified line and
// sends PutM, misses on the line again, and its new GetS or GetM reaches
// the home first (adaptive routing does not keep two packets in order).
// The home makes it the owner again, then applies the stale PutM and
// forgets it: the record reads Invalid while the owner holds the line
// E/M, and the next reader is granted a second Exclusive copy. This pins
// that defect, delivering the two requests in the overtaken order by
// hand; the invariant check catches each step. The fix moves coherence
// bytes, and must invert this test.
func TestStalePutMForgetsRefetchedOwner(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 3)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const addr = 2 // homed at node 2, neither reader
	sys.nodes[0].lines.Put(addr, Modified)
	*sys.dirLine(sys.home(addr), addr) = dirLine{state: Modified, owner: 0}
	sys.nodes[0].lines.Delete(addr) // evicted; its PutM is still on the way
	read(t, n, sys, 0, addr)        // the new GetS arrives first
	sys.send(0, sys.home(addr), Msg{Type: PutM, Addr: addr, Requester: 0})
	settle(t, n, sys)
	if _, err := violation(lines(sys)); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("after the stale PutM: %v; want the record to disagree with core 0's copy (fixed? invert this test)", err)
	}
	read(t, n, sys, 1, addr)
	if _, err := violation(lines(sys)); err == nil || !strings.Contains(err.Error(), "single writer") {
		t.Errorf("after core 1's read: %v; want a second Exclusive copy beside core 0's", err)
	}
}

// stalePutM reports whether a line's violation is the defect
// TestStalePutMForgetsRefetchedOwner pins: a cycle ago its record was
// {Modified, c} with core c holding the line, and now the record is
// Invalid while c still holds it. Only a PutM from the owner moves a
// record from Modified to Invalid.
func stalePutM(before, now line) bool {
	held := func(l line, c int) bool {
		return slices.ContainsFunc(l.holders, func(h holder) bool { return h.core == c })
	}
	c := before.rec.owner
	return !before.rec.busy && before.rec.state == Modified && held(before, c) &&
		!now.rec.busy && now.rec.state == Invalid && held(now, c)
}

// fwdGetSReinstall reports whether core c holding more lines than its L1
// has room for is the defect TestFwdGetSReinstallsEvictedLine pins, on
// line l: a cycle ago c held no copy, and now it holds one Shared while
// the busy record awaits c's DirAck. A FwdGetS reached c, the owner on
// record, after c had evicted the line silently, and c installed it with
// no eviction. No other path grows an L1 without evicting first.
func fwdGetSReinstall(before, now line, c int) bool {
	held := func(l line) (LineState, bool) {
		i := slices.IndexFunc(l.holders, func(h holder) bool { return h.core == c })
		if i < 0 {
			return Invalid, false
		}
		return l.holders[i].state, true
	}
	_, had := held(before)
	st, has := held(now)
	return !had && has && st == Shared && now.rec.busy && int(now.rec.ackFrom) == c && !now.rec.gotDirAck
}

// invariants checks one system after every cycle: the single-writer
// and directory-agreement invariants; no node holds more than
// Config.MSHRs MSHRs, nor any L1 more than Config.L1Lines lines; and in
// every class, each message sent is in an injection queue, a link or
// local VC or an ejection queue, or consumed. The violations allowed are
// the two pinned defects. A stale PutM ends the check, the state being
// known wrong from there on. Each FwdGetS reinstall lets its L1 hold one
// line more from then on, as a fill evicts only to make room for itself;
// a line more than that fails.
type invariants struct {
	n           *noc.Network
	sys         *System
	before      map[int64]line
	reinstalled []int             // FwdGetS reinstalls seen, by node
	consumed    [NumClasses]int64 // messages Tick popped, by class
	// reinstalls and batched count the reinstalls and the node-cycles
	// with invalidations batched.
	reinstalls, batched int
}

func newInvariants(n *noc.Network, sys *System) (*invariants, error) {
	c := &invariants{n: n, sys: sys, before: lines(sys), reinstalled: make([]int, len(sys.nodes))}
	if _, err := violation(c.before); err != nil {
		return nil, fmt.Errorf("after prewarm: %v", err)
	}
	return c, nil
}

// tick runs sys.Tick, the one consumer of the ejection queues, and
// checks the state it leaves. stale reports the pinned stale PutM.
func (c *invariants) tick() (stale bool, err error) {
	n, sys := c.n, c.sys
	var queued [NumClasses]int
	for r := range sys.nodes {
		for cl := range NumClasses {
			queued[cl] += n.EjectedLen(r, cl)
		}
	}
	sys.Tick()
	var sent, held [NumClasses]int64
	for ty, k := range sys.stats.MsgsByType {
		sent[MsgType(ty).Class()] += k
	}
	for r := range sys.nodes {
		for cl := range NumClasses {
			c.consumed[cl] += int64(queued[cl] - n.EjectedLen(r, cl))
			queued[cl] = 0
			held[cl] += int64(n.InjQueueLen(r, cl) + n.EjectedLen(r, cl))
		}
	}
	eachBuffered(n, func(p *noc.Packet) { held[p.Class]++ })
	for cl := range NumClasses {
		if sent[cl] != held[cl]+c.consumed[cl] {
			return false, fmt.Errorf("cycle %d: class %d sent %d messages, but %d are held and %d consumed",
				n.Cycle(), cl, sent[cl], held[cl], c.consumed[cl])
		}
	}
	now := lines(sys)
	for r, nd := range sys.nodes {
		if nd.mshrs.Len() > sys.cfg.MSHRs {
			return false, fmt.Errorf("cycle %d: node %d holds %d MSHRs, Config.MSHRs is %d", n.Cycle(), r, nd.mshrs.Len(), sys.cfg.MSHRs)
		}
		if nd.invPending {
			c.batched++
		}
		if nd.lines.Len() <= sys.cfg.L1Lines+c.reinstalled[r] {
			continue
		}
		for addr, l := range now {
			if fwdGetSReinstall(c.before[addr], l, r) {
				c.reinstalled[r]++
				c.reinstalls++
			}
		}
		if nd.lines.Len() > sys.cfg.L1Lines+c.reinstalled[r] {
			return false, fmt.Errorf("cycle %d: node %d's L1 holds %d lines, Config.L1Lines is %d and %d FwdGetS reinstalls are pinned there",
				n.Cycle(), r, nd.lines.Len(), sys.cfg.L1Lines, c.reinstalled[r])
		}
	}
	addr, err := violation(now)
	if err != nil && stalePutM(c.before[addr], now[addr]) {
		return true, fmt.Errorf("cycle %d: the pinned stale PutM: %v", n.Cycle(), err)
	} else if err != nil {
		return false, fmt.Errorf("cycle %d: %v", n.Cycle(), err)
	}
	c.before = now
	return false, nil
}

// eachBuffered calls f on the packet in every occupied link and local VC
// of n.
func eachBuffered(n *noc.Network, f func(*noc.Packet)) {
	cfg := n.Config()
	for slot := range cfg.VCsPerPort() {
		for l := range n.Graph().NumLinks() {
			if p := n.LinkOccupant(l, slot); p != nil {
				f(p)
			}
		}
		for r := range n.Graph().N() {
			if p := n.LocalOccupant(r, slot); p != nil {
				f(p)
			}
		}
	}
}

// The invariants hold after every cycle of contended runs that evict,
// forward, invalidate and write back, from a prewarmed start whose
// records are still derived. Six seeds run with InjectCap 16, and two
// with InjectCap 2, where a GetM's invalidations go out in batches. A
// seed that hits the stale PutM is checked no further; every seed has
// FwdGetS reinstalls within ~1 000 cycles.
func TestProtocolInvariantsEveryCycle(t *testing.T) {
	m := topology.MustMesh(3, 3)
	gen := warmGen{testGen: testGen{issue: 0.3, sharedFrac: 0.5, writeFrac: 0.4, shared: 24, private: 40}, lines: 8}
	var sent Stats
	checked, stale, reinstalls, batched := 0, 0, 0, 0
	runs := []struct {
		seed      uint64
		injectCap int
	}{{1, 16}, {2, 16}, {3, 16}, {4, 16}, {5, 16}, {6, 16}, {1, 2}, {2, 2}}
	for _, run := range runs {
		seed := run.seed
		n := protoNetCap(t, m.Graph, m, 3, seed, run.injectCap)
		sys, err := New(n, Config{Gen: gen, L1Lines: 16, OpsTarget: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		chk, err := newInvariants(n, sys)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for !sys.Done() && n.Cycle() < 200_000 {
			n.Step()
			checked++
			if isStale, err := chk.tick(); isStale {
				t.Logf("seed %d InjectCap %d, %v", seed, run.injectCap, err)
				stale++
				break
			} else if err != nil {
				t.Fatalf("seed %d InjectCap %d, %v", seed, run.injectCap, err)
			}
		}
		reinstalls += chk.reinstalls
		batched += chk.batched
		for ty, k := range sys.Stats().MsgsByType {
			sent.MsgsByType[ty] += k
		}
	}
	t.Logf("%d cycles checked; %d of %d runs stopped by the stale PutM; %d FwdGetS reinstalls overfilled an L1; %d cycles with invalidations batched",
		checked, stale, len(runs), reinstalls, batched)
	for _, ty := range []MsgType{FwdGetS, FwdGetM, Inv, PutM} {
		if sent.MsgsByType[ty] == 0 {
			t.Errorf("no %v was sent: the runs do not exercise that path", ty)
		}
	}
	if batched == 0 {
		t.Error("no GetM's invalidations outnumbered InjectCap: the InjectCap 2 runs do not reach the batches")
	}
}

// FuzzCoherence checks the invariants after every cycle of a small
// system: a 2x2 to 4x4 mesh with three VNs, or with one VN under a DRAIN
// controller; any testGen; a few L1 lines, MSHRs and queue slots.
func FuzzCoherence(f *testing.F) {
	f.Add(uint8(1), uint8(1), false, uint8(30), uint8(50), uint8(40), uint8(24), uint8(40), uint8(16), uint8(4), uint8(4), uint8(0), uint64(1))
	f.Add(uint8(2), uint8(0), true, uint8(60), uint8(70), uint8(50), uint8(8), uint8(12), uint8(4), uint8(2), uint8(1), uint8(1), uint64(2))
	f.Add(uint8(0), uint8(2), false, uint8(99), uint8(100), uint8(100), uint8(3), uint8(2), uint8(2), uint8(1), uint8(0), uint8(0), uint64(3))
	f.Fuzz(func(t *testing.T, w, h uint8, drain bool, issue, sharedPct, writePct, shared, private, l1, mshrs, ejectCap, injectCap uint8, seed uint64) {
		m := topology.MustMesh(2+int(w%3), 2+int(h%3))
		vnets := 3
		if drain {
			vnets = 1
		}
		n, err := noc.New(noc.Config{
			Graph: m.Graph, Mesh: m, VNets: vnets, VCsPerVN: 2, Classes: NumClasses,
			PolicyEscape: true, Routing: routing.AdaptiveMinimal, EscapeRouting: routing.AdaptiveMinimal,
			EjectCap: 1 + int(ejectCap%4), InjectCap: 2 + int(injectCap%3), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := warmGen{testGen: testGen{
			issue: float64(1+issue%100) / 100, sharedFrac: float64(sharedPct%101) / 100, writeFrac: float64(writePct%101) / 100,
			shared: 1 + int64(shared%32), private: 1 + int64(private%64),
		}, lines: int64(l1 % 12)}
		sys, err := New(n, Config{Gen: gen, L1Lines: 2 + int(l1%15), MSHRs: 1 + int(mshrs%4), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var ctrl *core.Controller
		if drain {
			if ctrl, err = core.New(n, core.Config{Epoch: 256, FullDrainEvery: 4}); err != nil {
				t.Fatal(err)
			}
		}
		chk, err := newInvariants(n, sys)
		if err != nil {
			t.Fatal(err)
		}
		for range 1500 {
			n.Step()
			if ctrl != nil {
				if err := ctrl.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if stale, err := chk.tick(); stale {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
}
