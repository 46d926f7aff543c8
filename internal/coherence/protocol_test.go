package coherence

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"drain/internal/noc"
	"drain/internal/topology"
	"drain/internal/workload"
)

// warmGen exercises prewarming: private-region accesses should hit after
// install.
type warmGen struct {
	testGen
	lines int64
}

func (g warmGen) PrewarmRange(core int) (first, n int64) { return int64(core) << 20, g.lines }

func TestPrewarmInstallsLines(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 1)
	g := warmGen{testGen: testGen{issue: 0, private: 64, shared: 16}, lines: 32}
	sys, err := New(n, Config{Gen: g, L1Lines: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c, nd := range sys.nodes {
		if nd.lines.Len() != 32 {
			t.Fatalf("core %d has %d lines after prewarm, want 32", c, nd.lines.Len())
		}
		nd.lines.Each(func(addr int64, st LineState) bool {
			if st != Exclusive {
				t.Fatalf("prewarmed line %d in state %d, want Exclusive", addr, st)
			}
			if dl := dirAt(sys, sys.home(addr), addr); dl.owner != c || dl.state != Modified {
				t.Fatalf("directory does not track core %d as owner of %d", c, addr)
			}
			return true
		})
	}
}

// TestPrewarmDerivesRecords holds the derived home records to the eager
// install they replace, for every profile on an 8x8 net: New installs
// no record, and the first reference to each line of each core's range
// (truncated to 3/4 of the L1) reads {Modified, owner}, the record an
// eager install would have written. The lines just outside each range
// read Invalid.
func TestPrewarmDerivesRecords(t *testing.T) {
	m := topology.MustMesh(8, 8)
	n := protoNet(t, m.Graph, m, 1, 1)
	const l1 = 256
	for _, name := range workload.Names() {
		prof := workload.MustGet(name)
		sys, err := New(n, Config{Gen: prof, L1Lines: l1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for r, nd := range sys.nodes {
			if nd.dir.Len() != 0 {
				t.Fatalf("%s: New installed %d records at home %d", name, nd.dir.Len(), r)
			}
		}
		// The eager install: every line of core c's range → {Modified, c}.
		lines := min(prof.PrivateLines, l1*3/4)
		eager := map[int64]dirLine{}
		for c := range sys.nodes {
			for addr := int64(c) << 20; addr < int64(c)<<20+lines; addr++ {
				eager[addr] = dirLine{state: Modified, owner: c}
			}
		}
		for c := range sys.nodes {
			for addr := int64(c)<<20 - 1; addr <= int64(c)<<20+lines; addr++ {
				want, in := eager[addr]
				if !in {
					want = dirLine{state: Invalid}
				}
				if got := dirAt(sys, sys.home(addr), addr); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: core %d's line %d reads %+v, the eager install %+v", name, c, addr, got, want)
				}
			}
		}
	}
}

// TestPrewarmOverlapRejected: two cores whose ranges overlap would both
// hold a line Exclusive, so New refuses the prewarm and names the line.
func TestPrewarmOverlapRejected(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 1)
	_, err := New(n, Config{Gen: overlapGen{}, L1Lines: 64, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "line 16") {
		t.Fatalf("New with overlapping prewarm ranges returned %v, want an error naming line 16", err)
	}
}

// overlapGen prewarms [16c, 16c+32) on core c: each range overlaps the
// next core's by 16 lines, the first shared one being 16.
type overlapGen struct{ testGen }

func (overlapGen) PrewarmRange(core int) (first, n int64) { return 16 * int64(core), 32 }

func TestPrewarmRespectsCapacity(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 2)
	g := warmGen{testGen: testGen{issue: 0, private: 64, shared: 16}, lines: 1000}
	sys, err := New(n, Config{Gen: g, L1Lines: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Prewarm caps at 3/4 of L1 capacity.
	for c, nd := range sys.nodes {
		if nd.lines.Len() > 48 {
			t.Fatalf("core %d prewarmed %d lines; cap is 48", c, nd.lines.Len())
		}
	}
}

func TestPrewarmedAccessesHit(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 3)
	// All-private accesses over a prewarmed region: every access hits.
	g := warmGen{testGen: testGen{issue: 0.5, private: 32, shared: 16, sharedFrac: 0}, lines: 32}
	sys, err := New(n, Config{Gen: g, L1Lines: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		n.Step()
		sys.Tick()
	}
	st := sys.Stats()
	if st.Misses != 0 {
		t.Errorf("prewarmed private stream missed %d times", st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no hits recorded")
	}
	if st.MsgsSent != 0 {
		t.Errorf("hit-only stream sent %d messages", st.MsgsSent)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	// Two readers share a line, then one writes: the upgrade must
	// invalidate the other sharer and end with Modified at the writer.
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 6)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	addr := int64(2) // homed at node 2
	lineAt := func(c int) LineState {
		st, _ := sys.nodes[c].lines.Get(addr)
		return st
	}
	readAt := func(c int) {
		nd := sys.nodes[c]
		nd.mshrs.Put(addr, &mshr{addr: addr})
		nd.opsIssued++
		sys.send(c, sys.home(addr), Msg{Type: GetS, Addr: addr, Requester: c})
		for i := 0; i < 1000 && lineAt(c) == Invalid; i++ {
			n.Step()
			sys.Tick()
		}
	}
	readAt(0)
	settle(t, n, sys)
	readAt(1)
	settle(t, n, sys)
	if lineAt(0) != Shared || lineAt(1) != Shared {
		t.Fatalf("states after two reads: %d, %d (want Shared, Shared)",
			lineAt(0), lineAt(1))
	}
	// Writer at node 1: S→M upgrade via GetM.
	nd1 := sys.nodes[1]
	nd1.lines.Delete(addr)
	nd1.mshrs.Put(addr, &mshr{addr: addr, write: true})
	nd1.opsIssued++
	sys.send(1, sys.home(addr), Msg{Type: GetM, Addr: addr, Requester: 1})
	for i := 0; i < 1000 && lineAt(1) != Modified; i++ {
		n.Step()
		sys.Tick()
	}
	settle(t, n, sys)
	if lineAt(1) != Modified {
		t.Fatal("writer did not reach Modified")
	}
	if _, has := sys.nodes[0].lines.Get(addr); has {
		t.Error("old sharer not invalidated")
	}
	if sys.stats.MsgsByType[Inv] == 0 {
		t.Error("no invalidation sent for the upgrade")
	}
}

func TestStalePutMAfterForward(t *testing.T) {
	// An owner can evict (PutM) while a FwdGetS races toward it; the
	// protocol must absorb the stale writeback without wedging.
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 7)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	addr := int64(3)
	// Owner at node 0 (simulate established state).
	sys.nodes[0].lines.Put(addr, Modified)
	*sys.dirLine(sys.home(addr), addr) = dirLine{state: Modified, owner: 0}
	// Owner writes back at the same time a reader requests.
	sys.nodes[0].lines.Delete(addr)
	sys.send(0, sys.home(addr), Msg{Type: PutM, Addr: addr, Requester: 0})
	nd1 := sys.nodes[1]
	nd1.mshrs.Put(addr, &mshr{addr: addr})
	nd1.opsIssued++
	sys.send(1, sys.home(addr), Msg{Type: GetS, Addr: addr, Requester: 1})
	for i := 0; i < 2000 && nd1.opsCompleted == 0; i++ {
		n.Step()
		sys.Tick()
	}
	if nd1.opsCompleted != 1 {
		t.Fatal("read racing a writeback never completed")
	}
	settle(t, n, sys)
}

// TestFwdGetSReinstallsEvictedLine characterizes a protocol defect (see
// ROADMAP item 2): an owner that silently evicted a clean Exclusive line
// still answers the FwdGetS its home sends, and consumeForwards installs
// the line Shared in its L1 — a line it never fetched, with no victim
// taken, so the L1 outgrows L1Lines. It pins today's wrong behaviour;
// the fix moves coherence bytes, waits for item 1's declared moves, and
// must invert this test: the owner holds no copy and its L1 stays within
// capacity.
func TestFwdGetSReinstallsEvictedLine(t *testing.T) {
	m := topology.MustMesh(2, 2)
	n := protoNet(t, m.Graph, m, 3, 5)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, L1Lines: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 2, 3     // homed at nodes 2 and 3, neither a reader
	read(t, n, sys, 0, a) // core 0 owns a (E)
	read(t, n, sys, 0, b) // the fill of b evicts a silently: the home still says core 0 owns it
	if _, has := sys.nodes[0].lines.Get(a); has {
		t.Fatal("core 0 kept line a through a fill into its one-line L1: the test sets up nothing")
	}
	read(t, n, sys, 1, a) // FwdGetS to core 0, which no longer holds a
	if sys.stats.MsgsByType[FwdGetS] != 1 {
		t.Fatalf("%d FwdGetS sent, want 1", sys.stats.MsgsByType[FwdGetS])
	}
	if st, has := sys.nodes[0].lines.Get(a); !has || st != Shared {
		t.Errorf("core 0 holds line a in state %d (present %v): want Shared, the defect pinned here (fixed? invert this test)", st, has)
	}
	if got := sys.nodes[0].lines.Len(); got != 2 {
		t.Errorf("core 0's one-line L1 holds %d lines, want 2 (the defect's overflow)", got)
	}
}

func TestMsgClassAndSize(t *testing.T) {
	classes := map[MsgType]int{
		GetS: ClassReq, GetM: ClassReq, PutM: ClassReq,
		Inv: ClassFwd, FwdGetS: ClassFwd, FwdGetM: ClassFwd,
		Data: ClassResp, InvAck: ClassResp, DirAck: ClassResp,
		WBAck: ClassResp, Unblock: ClassResp,
	}
	for mt, want := range classes {
		if mt.Class() != want {
			t.Errorf("%v class = %d, want %d", mt, mt.Class(), want)
		}
		if mt.String() == "" {
			t.Errorf("%v has empty name", mt)
		}
	}
	if Data.Flits() != 5 || PutM.Flits() != 5 {
		t.Error("data-bearing messages must be 5 flits")
	}
	if GetS.Flits() != 1 || Inv.Flits() != 1 || Unblock.Flits() != 1 {
		t.Error("control messages must be 1 flit")
	}
}

func TestHomeDistribution(t *testing.T) {
	m := topology.MustMesh(4, 4)
	n := protoNet(t, m.Graph, m, 3, 8)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 16000; i++ {
		counts[sys.home(rng.Int64N(1<<40))]++
	}
	for r, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("home %d receives %d of 16000 addresses; interleaving skewed", r, c)
		}
	}
}

// TestInvalidationsReachTheSecondSharerWord runs the Shared→Modified
// upgrade on a 9x8 mesh, where cores 64–71 live in the sharer set's
// second word (every figure runs ≤ 64 cores and never reaches it). Cores
// 3, 63, 64 and 71 read a line in turn; a GetM from core 5 must then send
// the invalidations in ascending core order across the word boundary,
// followed by the Data that tells core 5 to collect four acks.
func TestInvalidationsReachTheSecondSharerWord(t *testing.T) {
	m := topology.MustMesh(9, 8)
	n := protoNet(t, m.Graph, m, 3, 9)
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.nodes) != 72 {
		t.Fatalf("9x8 mesh has %d nodes, want 72", len(sys.nodes))
	}
	addr := int64(17) // homed at node 17, which takes no part
	type sent struct {
		id  int64
		to  int
		msg Msg
	}
	var log []sent
	n.OnEject = func(p *noc.Packet) {
		if m := p.Payload.(*Msg); m.Addr == addr && (m.Type == Inv || m.Type == Data) {
			log = append(log, sent{p.ID, p.Dst, *m})
		}
	}
	transact := func(c int, write bool) {
		t.Helper()
		nd := sys.nodes[c]
		nd.mshrs.Put(addr, &mshr{addr: addr, write: write})
		nd.opsIssued++
		mt := GetS
		if write {
			mt = GetM
		}
		sys.send(c, sys.home(addr), Msg{Type: mt, Addr: addr, Requester: c})
		for i := 0; i < 2000 && nd.opsCompleted == 0; i++ {
			n.Step()
			sys.Tick()
		}
		if nd.opsCompleted != 1 {
			t.Fatalf("core %d's %v never completed", c, mt)
		}
		settle(t, n, sys)
	}
	readers := []int{3, 63, 64, 71}
	for _, c := range readers {
		transact(c, false)
	}
	if dl := dirAt(sys, sys.home(addr), addr); dl.state != Shared || len(dl.sharers) != 2 {
		t.Fatalf("directory line after four reads: %+v, want Shared over two sharer words", dl)
	}
	log = log[:0]
	transact(5, true)
	slices.SortFunc(log, func(a, b sent) int { return cmp.Compare(a.id, b.id) })
	var got []string
	for _, s := range log {
		got = append(got, fmt.Sprintf("%v→%d acks=%d", s.msg.Type, s.to, s.msg.Acks))
	}
	want := []string{"Inv→3 acks=0", "Inv→63 acks=0", "Inv→64 acks=0", "Inv→71 acks=0", "Data→5 acks=4"}
	if !slices.Equal(got, want) {
		t.Errorf("GetM from core 5 sent, in order:\n  %v\nwant\n  %v", got, want)
	}
	for _, c := range readers {
		if _, has := sys.nodes[c].lines.Get(addr); has {
			t.Errorf("sharer %d still holds the line", c)
		}
	}
	if st, _ := sys.nodes[5].lines.Get(addr); st != Modified {
		t.Errorf("writer holds the line in state %d, want Modified", st)
	}
}
