// Package traffic provides the synthetic traffic patterns and open-loop
// injection processes used by the paper's synthetic evaluations
// (uniform random and transpose in Figs. 10, 11 and 14, plus the usual
// complements for wider coverage).
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"drain/internal/noc"
)

// Pattern maps a source node to a destination node.
type Pattern interface {
	// Dest returns the destination for a packet from src; it may consult
	// rng for randomized patterns. Implementations must never return src
	// unless no other node exists.
	Dest(src int, rng *rand.Rand) int
	Name() string
}

// UniformRandom sends each packet to a uniformly random other node.
type UniformRandom struct{ N int }

// Dest implements Pattern.
func (u UniformRandom) Dest(src int, rng *rand.Rand) int {
	if u.N <= 1 {
		return src
	}
	d := rng.IntN(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (u UniformRandom) Name() string { return "uniform_random" }

// Transpose sends (x,y) to (y,x) on a W×W mesh numbering.
type Transpose struct{ W int }

// Dest implements Pattern.
func (t Transpose) Dest(src int, _ *rand.Rand) int {
	x, y := src%t.W, src/t.W
	return x*t.W + y
}

// Name implements Pattern.
func (t Transpose) Name() string { return "transpose" }

// BitComplement sends node i to node (N-1-i).
type BitComplement struct{ N int }

// Dest implements Pattern.
func (b BitComplement) Dest(src int, _ *rand.Rand) int { return b.N - 1 - src }

// Name implements Pattern.
func (b BitComplement) Name() string { return "bit_complement" }

// Shuffle sends node i to node obtained by rotating its bits left by one
// (i must index a power-of-two network).
type Shuffle struct{ Bits int }

// Dest implements Pattern.
func (s Shuffle) Dest(src int, _ *rand.Rand) int {
	mask := (1 << s.Bits) - 1
	return ((src << 1) | (src >> (s.Bits - 1))) & mask
}

// Name implements Pattern.
func (s Shuffle) Name() string { return "shuffle" }

// Hotspot sends a fraction of traffic to a fixed hot node and the rest
// uniformly.
type Hotspot struct {
	N        int
	Hot      int
	Fraction float64 // probability a packet targets Hot
}

// Dest implements Pattern.
func (h Hotspot) Dest(src int, rng *rand.Rand) int {
	if rng.Float64() < h.Fraction && h.Hot != src {
		return h.Hot
	}
	return UniformRandom{N: h.N}.Dest(src, rng)
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Tornado sends each node halfway around its row on a W-wide mesh
// (adversarial for minimal routing on meshes).
type Tornado struct{ W int }

// Dest implements Pattern.
func (t Tornado) Dest(src int, _ *rand.Rand) int {
	x, y := src%t.W, src/t.W
	return y*t.W + (x+t.W/2)%t.W
}

// Name implements Pattern.
func (t Tornado) Name() string { return "tornado" }

// Neighbor sends each node to its +1 ring neighbor (best-case locality).
type Neighbor struct{ N int }

// Dest implements Pattern.
func (nb Neighbor) Dest(src int, _ *rand.Rand) int { return (src + 1) % nb.N }

// Name implements Pattern.
func (nb Neighbor) Name() string { return "neighbor" }

// ByName constructs a pattern for an n-node network (w is the mesh width
// for transpose and tornado). Known names: uniform, transpose, bitcomp,
// shuffle, hotspot, tornado, neighbor.
func ByName(name string, n, w int) (Pattern, error) {
	switch name {
	case "uniform", "uniform_random":
		return UniformRandom{N: n}, nil
	case "transpose":
		if w*w != n {
			return nil, fmt.Errorf("traffic: transpose needs a square mesh, have n=%d w=%d", n, w)
		}
		return Transpose{W: w}, nil
	case "bitcomp", "bit_complement":
		return BitComplement{N: n}, nil
	case "shuffle":
		bits := 0
		for 1<<bits < n {
			bits++
		}
		if 1<<bits != n {
			return nil, fmt.Errorf("traffic: shuffle needs power-of-two nodes, have %d", n)
		}
		return Shuffle{Bits: bits}, nil
	case "hotspot":
		return Hotspot{N: n, Hot: n / 2, Fraction: 0.2}, nil
	case "tornado":
		if w <= 0 || n%w != 0 {
			return nil, fmt.Errorf("traffic: tornado needs a mesh width dividing n, have n=%d w=%d", n, w)
		}
		return Tornado{W: w}, nil
	case "neighbor":
		return Neighbor{N: n}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Generator drives open-loop Bernoulli injection into a network: each
// node independently creates a packet with probability Rate each cycle.
type Generator struct {
	Pattern Pattern
	// Rate is offered load in packets/node/cycle.
	Rate float64
	// CtrlFraction of packets are 1-flit control packets; the rest are
	// DataFlits-sized (mirrors a coherence mix on the synthetic runs).
	CtrlFraction float64
	DataFlits    int
	// Class assigned to generated packets.
	Class int
	// InjQueueCap skips injection at nodes whose queue is backed up
	// beyond this depth (keeps open-loop offered load well-defined
	// instead of accumulating unbounded queues). 0 disables the bound.
	InjQueueCap int

	rng *rand.Rand
	// src is the concrete PCG behind rng: the per-node rate draws call it
	// directly, skipping rng's Source interface dispatch while consuming
	// the identical stream (rng.Uint64() == src.Uint64(), same object).
	src *rand.PCG

	// rateThresh caches Rate as an integer threshold on the raw 53-bit
	// draw: u&mask53 < rateThresh is exactly rng.Float64() < Rate (see
	// refreshThresh). rateCached detects Rate being reassigned.
	rateThresh uint64
	rateCached float64

	// Created counts generation attempts that were actually injected.
	Created int64
	// Skipped counts injections suppressed by a full queue.
	Skipped int64
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(p Pattern, rate float64, seed uint64) *Generator {
	src := rand.NewPCG(seed, seed^0xa5a5a5a55a5a5a5a)
	return &Generator{
		Pattern:      p,
		Rate:         rate,
		CtrlFraction: 0.5,
		DataFlits:    5,
		InjQueueCap:  8,
		rng:          rand.New(src),
		src:          src,
	}
}

// RNGMode, RNGExact and NewGeneratorMode are a shim: the one draw
// discipline needs no selector, but the frozen cmd/drainbench/cycle.go:265
// names all three. The next `benchmark` PR drops them there and deletes
// this block.
type RNGMode int

const RNGExact RNGMode = 0

func NewGeneratorMode(p Pattern, rate float64, seed uint64, _ RNGMode, _ int) *Generator {
	return NewGenerator(p, rate, seed)
}

// mask53 extracts the 53 bits rand/v2's Float64 keeps of each Uint64
// draw: Float64() == float64(u<<11>>11) / (1<<53).
const mask53 = 1<<53 - 1

// refreshThresh recomputes the integer rate threshold. The per-node rate
// draw `rng.Float64() < Rate` is, by rand/v2's construction, exactly
// `float64(u&mask53)/2^53 < Rate` for one Uint64 draw u. Both sides are
// exact binary rationals (x := u&mask53 < 2^53 converts exactly, dividing
// by 2^53 only shifts the exponent, and Rate*2^53 likewise just shifts
// Rate's exponent), so the comparison equals the real-number comparison
// x < Rate*2^53, i.e. x < ceil(Rate*2^53). Comparing the raw draw against
// that integer threshold therefore consumes the identical RNG stream and
// fires on exactly the same cycles, while skipping the float conversion
// in the all-nodes-quiet common case.
func (g *Generator) refreshThresh() {
	t := g.Rate * (1 << 53)
	switch {
	case t <= 0:
		g.rateThresh = 0
	case t >= 1<<53:
		g.rateThresh = 1 << 53 // every draw fires
	default:
		g.rateThresh = uint64(math.Ceil(t))
	}
	g.rateCached = g.Rate
}

// Tick injects this cycle's packets into the network. For a node whose
// rate draw passes, the order of draws and effects is load-bearing for
// determinism: queue-cap check, destination draw, self-test, size draw,
// inject.
func (g *Generator) Tick(n *noc.Network) {
	if g.Rate != g.rateCached {
		g.refreshThresh()
	}
	nodes := n.Graph().N()
	for src := 0; src < nodes; src++ {
		if g.src.Uint64()&mask53 >= g.rateThresh {
			continue
		}
		if g.InjQueueCap > 0 && n.InjQueueLen(src, g.Class) >= g.InjQueueCap {
			g.Skipped++
			continue
		}
		dst := g.Pattern.Dest(src, g.rng)
		if dst == src {
			continue
		}
		flits := 1
		if g.rng.Float64() >= g.CtrlFraction {
			flits = g.DataFlits
		}
		p := n.NewPacket(src, dst, g.Class, flits)
		if n.Inject(p) {
			g.Created++
		} else {
			// A refused injection leaves ownership with us (the queue
			// never saw the packet), so hand it straight back to the pool.
			g.Skipped++
			n.ReleasePacket(p)
		}
	}
}

// SkipQuiet is a shim kept for the frozen cmd/drainbench/cycle.go until
// ROADMAP B1(d): every run ticks its generator every cycle. It reports
// how many of the next max cycles the generator may skip, and skips
// none: it draws nothing and returns 0, so the next Tick draws the
// next cycle.
func (g *Generator) SkipQuiet(nodes int, max int64) int64 { return 0 }
