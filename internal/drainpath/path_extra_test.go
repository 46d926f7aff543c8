package drainpath

import (
	"testing"
	"testing/quick"

	"drain/internal/topology"
)

func TestPosIsInverseOfSeq(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	p, err := FindEulerian(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range p.Seq {
		if p.Pos(l.ID) != i {
			t.Fatalf("Pos(%d) = %d, want %d", l.ID, p.Pos(l.ID), i)
		}
	}
}

func TestStringRendersAllLinks(t *testing.T) {
	g, err := topology.NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FindEulerian(g)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	// 8 links → 8 space-separated tokens.
	tokens := 1
	for _, ch := range s {
		if ch == ' ' {
			tokens++
		}
	}
	if tokens != 8 {
		t.Errorf("rendered %d tokens, want 8: %q", tokens, s)
	}
}

// Property: turn tables on random topologies are complete and bijective
// (every link appears exactly once as input and once as output).
func TestTurnTableBijectionProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 3
		g, err := topology.NewRandomConnected(n, 4, testRNG(seed))
		if err != nil {
			return false
		}
		p, err := FindEulerian(g)
		if err != nil {
			return false
		}
		tables := p.TurnTable(g)
		inSeen := make([]bool, g.NumLinks())
		outSeen := make([]bool, g.NumLinks())
		for r, tab := range tables {
			ins, outs := tab[0], tab[1]
			if len(ins) != len(outs) {
				return false
			}
			for i := range ins {
				if inSeen[ins[i]] || outSeen[outs[i]] {
					return false // a link repeated as input or output
				}
				inSeen[ins[i]] = true
				outSeen[outs[i]] = true
				if g.Link(ins[i]).To != r || g.Link(outs[i]).From != r {
					return false
				}
			}
		}
		for id := 0; id < g.NumLinks(); id++ {
			if !inSeen[id] || !outSeen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// Property: the search-based construction agrees with validation on
// random-regular (low-radix) topologies too.
func TestCoveringCycleOnRandomRegular(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		g, err := topology.NewRandomRegular(12, 3, rng)
		if err != nil {
			return false
		}
		p, err := FindCoveringCycle(g, 0)
		if err != nil {
			return false
		}
		return Validate(g, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}
