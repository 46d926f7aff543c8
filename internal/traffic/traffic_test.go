package traffic

import (
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func TestUniformRandomNeverSelf(t *testing.T) {
	u := UniformRandom{N: 16}
	r := rng(1)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		src := i % 16
		d := u.Dest(src, r)
		if d == src {
			t.Fatal("uniform returned self")
		}
		if d < 0 || d >= 16 {
			t.Fatalf("dest %d out of range", d)
		}
		counts[d]++
	}
	for n, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("node %d got %d packets; distribution skewed", n, c)
		}
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	tr := Transpose{W: 8}
	for src := 0; src < 64; src++ {
		d := tr.Dest(src, nil)
		if tr.Dest(d, nil) != src {
			t.Fatalf("transpose not an involution at %d", src)
		}
	}
	if tr.Dest(1, nil) != 8 {
		t.Errorf("transpose(1) = %d, want 8", tr.Dest(1, nil))
	}
}

func TestBitComplementAndShuffle(t *testing.T) {
	bc := BitComplement{N: 64}
	if bc.Dest(0, nil) != 63 || bc.Dest(63, nil) != 0 {
		t.Error("bit complement endpoints wrong")
	}
	sh := Shuffle{Bits: 6}
	if got := sh.Dest(1, nil); got != 2 {
		t.Errorf("shuffle(1) = %d, want 2", got)
	}
	if got := sh.Dest(32, nil); got != 1 {
		t.Errorf("shuffle(32) = %d, want 1", got)
	}
}

func TestHotspotConcentration(t *testing.T) {
	h := Hotspot{N: 16, Hot: 8, Fraction: 0.5}
	r := rng(2)
	hot := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if h.Dest(0, r) == 8 {
			hot++
		}
	}
	// ~50% + uniform share.
	if hot < trials/3 || hot > 2*trials/3 {
		t.Errorf("hotspot received %d of %d", hot, trials)
	}
}

func TestTornadoAndNeighbor(t *testing.T) {
	tor := Tornado{W: 8}
	// (0,0) → (4,0); halfway around the row.
	if got := tor.Dest(0, nil); got != 4 {
		t.Errorf("tornado(0) = %d, want 4", got)
	}
	if got := tor.Dest(7, nil); got != 3 {
		t.Errorf("tornado(7) = %d, want 3", got)
	}
	// Row preserved for every source.
	for src := 0; src < 64; src++ {
		if tor.Dest(src, nil)/8 != src/8 {
			t.Fatalf("tornado(%d) left its row", src)
		}
	}
	nb := Neighbor{N: 16}
	if nb.Dest(15, nil) != 0 || nb.Dest(3, nil) != 4 {
		t.Error("neighbor ring wrong")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bitcomp", "shuffle", "hotspot", "tornado", "neighbor"} {
		p, err := ByName(name, 64, 8)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
	}
	if _, err := ByName("nope", 64, 8); err == nil {
		t.Error("unknown pattern should fail")
	}
	if _, err := ByName("transpose", 60, 8); err == nil {
		t.Error("transpose on non-square should fail")
	}
	if _, err := ByName("shuffle", 60, 8); err == nil {
		t.Error("shuffle on non-power-of-two should fail")
	}
	if _, err := ByName("tornado", 60, 8); err == nil {
		t.Error("tornado with width not dividing n should fail")
	}
}

func TestGeneratorRate(t *testing.T) {
	m := topology.MustMesh(4, 4)
	n, err := noc.New(noc.Config{
		Graph: m.Graph, Mesh: m, Routing: routing.XY,
		VNets: 1, VCsPerVN: 2, Classes: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(UniformRandom{N: 16}, 0.1, 7)
	const cycles = 2000
	for c := 0; c < cycles; c++ {
		g.Tick(n)
		n.Step()
		for r := 0; r < 16; r++ {
			n.PopEjected(r, 0)
		}
	}
	// Expected injections: 16 nodes × 0.1 × 2000 = 3200 (±15%).
	if g.Created < 2700 || g.Created > 3700 {
		t.Errorf("created %d packets, want ≈3200", g.Created)
	}
}

func TestGeneratorBacksOffWhenQueueFull(t *testing.T) {
	// A saturated 2-node network must cause skips, not unbounded queues.
	m := topology.MustMesh(2, 1)
	n, err := noc.New(noc.Config{
		Graph: m.Graph, Mesh: m, Routing: routing.XY,
		VNets: 1, VCsPerVN: 1, Classes: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(UniformRandom{N: 2}, 1.0, 8)
	g.InjQueueCap = 4
	for c := 0; c < 500; c++ {
		g.Tick(n)
		n.Step() // never consume ejections: back-pressure builds
	}
	if g.Skipped == 0 {
		t.Error("generator never backed off under saturation")
	}
	if q := n.InjQueueLen(0, 0); q > 8 {
		t.Errorf("injection queue grew to %d despite cap", q)
	}
}

// Property: every pattern returns in-range destinations for every source.
func TestPatternsInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		pats := []Pattern{
			UniformRandom{N: 64}, Transpose{W: 8}, BitComplement{N: 64},
			Shuffle{Bits: 6}, Hotspot{N: 64, Hot: 10, Fraction: 0.3},
			Tornado{W: 8}, Neighbor{N: 64},
		}
		for _, p := range pats {
			for src := 0; src < 64; src++ {
				d := p.Dest(src, r)
				if d < 0 || d >= 64 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// TestRateThresholdMatchesFloat64 pins the integer-threshold fast path:
// for any rate, comparing the raw 53-bit draw against rateThresh must
// decide exactly as rand/v2's Float64() < rate would on the same draw.
func TestRateThresholdMatchesFloat64(t *testing.T) {
	rates := []float64{0, 1e-18, 0.02, 0.1, 0.25, 1.0 / 3.0, 0.45, 0.5,
		0.999999999, 1, 1.5, -0.1,
		// Exactly representable boundary neighborhoods.
		float64(1<<52) / (1 << 53), (float64(1<<52) + 1) / (1 << 53),
	}
	r := rng(11)
	for _, rate := range rates {
		g := NewGenerator(UniformRandom{N: 4}, rate, 1)
		g.refreshThresh()
		for i := 0; i < 20000; i++ {
			u := r.Uint64() & (1<<53 - 1)
			fires := u < g.rateThresh
			want := float64(u)/(1<<53) < rate
			if fires != want {
				t.Fatalf("rate=%v u=%d: threshold says %v, Float64 comparison says %v", rate, u, fires, want)
			}
		}
		// Edge draws.
		for _, u := range []uint64{0, 1, 1<<53 - 2, 1<<53 - 1} {
			fires := u < g.rateThresh
			want := float64(u)/(1<<53) < rate
			if fires != want {
				t.Fatalf("rate=%v edge u=%d: threshold says %v, Float64 comparison says %v", rate, u, fires, want)
			}
		}
	}
}

// TestNewGeneratorModeExactIsNewGenerator: the shim cmd/drainbench
// builds its generator through is the plain constructor — same draws.
func TestNewGeneratorModeExactIsNewGenerator(t *testing.T) {
	a := NewGenerator(UniformRandom{N: 16}, 0.1, 5)
	b := NewGeneratorMode(UniformRandom{N: 16}, 0.1, 5, RNGExact, 16)
	for i := 0; i < 100; i++ {
		if x, y := a.rng.Uint64(), b.rng.Uint64(); x != y {
			t.Fatalf("draw %d diverges", i)
		}
	}
}
