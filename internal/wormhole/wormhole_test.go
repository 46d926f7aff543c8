package wormhole

import (
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

func hdr(id int64, flits int) Header {
	return Header{PacketID: id, Src: 0, Dst: 5, Class: 1, TotalFlits: flits}
}

func TestNewPacketWellFormed(t *testing.T) {
	for _, flits := range []int{1, 2, 5, 16} {
		p := NewPacket(hdr(1, flits))
		if err := p.Validate(); err != nil {
			t.Errorf("flits=%d: %v", flits, err)
		}
		if len(p.Flits) != flits {
			t.Errorf("flits=%d: got %d", flits, len(p.Flits))
		}
	}
}

func TestNewPacketPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-flit packet should panic")
		}
	}()
	NewPacket(hdr(1, 0))
}

func TestTruncateProducesTwoValidSubPackets(t *testing.T) {
	p := NewPacket(hdr(7, 5))
	down, up, err := Truncate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := down.Validate(); err != nil {
		t.Errorf("downstream: %v", err)
	}
	if err := up.Validate(); err != nil {
		t.Errorf("upstream: %v", err)
	}
	if len(down.Flits) != 2 || len(up.Flits) != 3 {
		t.Errorf("split sizes %d/%d, want 2/3", len(down.Flits), len(up.Flits))
	}
	// The synthesized flags: downstream gained a tail, upstream a head.
	if !down.Flits[1].Tail {
		t.Error("downstream missing synthesized tail")
	}
	if !up.Flits[0].Head {
		t.Error("upstream missing synthesized head")
	}
	// Headers embedded in both parts.
	if up.Flits[0].Header != p.Flits[0].Header {
		t.Error("upstream head lost the original header")
	}
}

func TestTruncateRejectsBadSplits(t *testing.T) {
	p := NewPacket(hdr(1, 3))
	for _, at := range []int{0, 3, -1, 7} {
		if _, _, err := Truncate(p, at); err == nil {
			t.Errorf("Truncate(…, %d) accepted", at)
		}
	}
	single := NewPacket(hdr(2, 1))
	if _, _, err := Truncate(single, 1); err == nil {
		t.Error("single-flit truncation accepted")
	}
}

func TestReassemblyInOrder(t *testing.T) {
	r := NewReassembler()
	p := NewPacket(hdr(3, 5))
	down, up, err := Truncate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Accept(down); err != nil || got != nil {
		t.Fatalf("first part should not complete: %v %v", got, err)
	}
	if r.Pending() != 1 {
		t.Errorf("pending = %d", r.Pending())
	}
	got, err := r.Accept(up)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("second part should complete the packet")
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
	if len(got.Flits) != 5 || r.Completed != 1 || r.Pending() != 0 {
		t.Errorf("reassembly state wrong: %d flits, %d completed, %d pending",
			len(got.Flits), r.Completed, r.Pending())
	}
}

func TestReassemblyRejectsDuplicates(t *testing.T) {
	r := NewReassembler()
	p := NewPacket(hdr(4, 4))
	down, _, err := Truncate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Accept(down); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Accept(down); err == nil {
		t.Error("duplicate sub-packet accepted")
	}
}

func TestScatterCoversPacket(t *testing.T) {
	subs, err := Scatter(hdr(9, 10), []int{3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("got %d sub-packets, want 4", len(subs))
	}
	total := 0
	for i, s := range subs {
		if err := s.Validate(); err != nil {
			t.Errorf("sub %d: %v", i, err)
		}
		total += len(s.Flits)
	}
	if total != 10 {
		t.Errorf("flits conserved? total %d, want 10", total)
	}
	if _, err := Scatter(hdr(9, 10), []int{0}); err == nil {
		t.Error("cut at 0 accepted")
	}
	if _, err := Scatter(hdr(9, 10), []int{3, 3}); err == nil {
		t.Error("duplicate cut accepted")
	}
}

// Property: any sequence of truncations followed by arrival in any order
// reassembles the exact original packet — the §III-C3 correctness claim.
func TestTruncationReassemblyProperty(t *testing.T) {
	f := func(seed uint64, flitsRaw, cutsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x17))
		flits := int(flitsRaw%20) + 1
		h := hdr(int64(seed%1000), flits)
		// Random distinct cut points.
		nCuts := int(cutsRaw) % flits // at most flits-1 valid cuts
		cutSet := map[int]bool{}
		for len(cutSet) < nCuts {
			c := 1 + rng.IntN(flits)
			if c < flits {
				cutSet[c] = true
			} else {
				nCuts--
			}
		}
		var cuts []int
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		subs, err := Scatter(h, cuts)
		if err != nil {
			return false
		}
		// Shuffle arrival order.
		rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		r := NewReassembler()
		var done *SubPacket
		for i, s := range subs {
			got, err := r.Accept(s)
			if err != nil {
				return false
			}
			if got != nil && i != len(subs)-1 {
				return false // completed early?!
			}
			done = got
		}
		if done == nil || len(done.Flits) != flits {
			return false
		}
		for i, f := range done.Flits {
			if f.Seq != i || f.Header != h {
				return false
			}
		}
		return r.Pending() == 0 && r.Completed == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved reassembly of many packets never cross-
// contaminates (MSHRs keep per-packet buffers).
func TestInterleavedReassemblyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x31))
		r := NewReassembler()
		type job struct{ subs []SubPacket }
		var pool []SubPacket
		nPkts := 3 + rng.IntN(5)
		for id := 0; id < nPkts; id++ {
			flits := 2 + rng.IntN(8)
			h := hdr(int64(id), flits)
			cut := 1 + rng.IntN(flits-1)
			subs, err := Scatter(h, []int{cut})
			if err != nil {
				return false
			}
			pool = append(pool, subs...)
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		completed := 0
		for _, s := range pool {
			got, err := r.Accept(s)
			if err != nil {
				return false
			}
			if got != nil {
				completed++
			}
		}
		return completed == nPkts && r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}
