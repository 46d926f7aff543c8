package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// sortedSample is the definition Sample must agree with bit for bit:
// keep every observation, sort, index by nearest rank.
type sortedSample struct {
	vals []int64
	sum  int64
	max  int64
}

func (s *sortedSample) Add(v int64) {
	s.vals = append(s.vals, v)
	s.sum += v
	if v > s.max {
		s.max = v
	}
}

func (s *sortedSample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return float64(s.sum) / float64(len(s.vals))
}

func (s *sortedSample) Percentile(q float64) int64 {
	if len(s.vals) == 0 {
		return 0
	}
	slices.Sort(s.vals)
	rank := int(math.Ceil(q*float64(len(s.vals)))) - 1
	rank = min(max(rank, 0), len(s.vals)-1)
	return s.vals[rank]
}

func (s *sortedSample) Reset() { *s = sortedSample{} }

// edgeValues are the observations around every boundary of Sample's
// layout: the first and last counted value, the first uncounted one,
// the doubling steps, negatives and the int64 extremes.
var edgeValues = []int64{
	0, 1, 63, 64, 65, 127, 128, countedBelow - 1, countedBelow, countedBelow + 1,
	-1, -2, -countedBelow, math.MinInt64, math.MaxInt64, 1_000_000,
}

// edgeQuantiles lie in, on and outside (0, 1].
var edgeQuantiles = []float64{-1, 0, 1e-9, 0.01, 0.5, 0.99, 1, 1.5, math.Inf(1), math.Inf(-1)}

// TestSampleMatchesSortedSlice drives a Sample and the sort-the-slice
// definition with the same random script — Adds drawn to hit every
// layout boundary, Percentile queries interleaved with them, a Reset now
// and then — and requires every summary to agree after every step.
func TestSampleMatchesSortedSlice(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5a17))
		var got Sample
		var want sortedSample
		agree := func(step int) bool {
			if got.Count() != len(want.vals) || got.Mean() != want.Mean() || got.Max() != want.max || got.P99() != want.Percentile(0.99) {
				t.Logf("seed %d step %d: count %d/%d mean %v/%v max %d/%d p99 %d/%d", seed, step,
					got.Count(), len(want.vals), got.Mean(), want.Mean(), got.Max(), want.max, got.P99(), want.Percentile(0.99))
				return false
			}
			return true
		}
		if !agree(-1) {
			return false
		}
		// Most scripts stay in one value regime, as real samples do; the
		// rest mix all of them.
		regime := rng.IntN(5)
		for step, steps := 0, rng.IntN(120); step < steps; step++ {
			switch op := rng.IntN(20); {
			case op == 0:
				got.Reset()
				want.Reset()
			case op < 4:
				q := edgeQuantiles[rng.IntN(len(edgeQuantiles))]
				if rng.IntN(2) == 0 {
					q = rng.Float64()*1.2 - 0.1
				}
				if g, w := got.Percentile(q), want.Percentile(q); g != w {
					t.Logf("seed %d step %d: Percentile(%v) = %d, want %d (n=%d)", seed, step, q, g, w, len(want.vals))
					return false
				}
			default:
				var v int64
				switch r := regime; {
				case r == 0 || r == 4 && rng.IntN(3) == 0:
					v = int64(rng.IntN(300)) // low-load latencies: few distinct values
				case r == 1 || r == 4 && rng.IntN(2) == 0:
					v = int64(rng.IntN(countedBelow + 64)) // across the counted range and just past it
				case r == 2:
					v = rng.Int64N(4*countedBelow) - countedBelow // negatives and stalls
				default:
					v = edgeValues[rng.IntN(len(edgeValues))]
				}
				// The int64 extremes wrap the running sum, on both sides alike.
				got.Add(v)
				want.Add(v)
			}
			if !agree(step) {
				return false
			}
		}
		return true
	}
	cases := 10_000
	if testing.Short() {
		cases = 1_000 // the race detector makes each case ~10x slower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: cases, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// TestSampleAddDoesNotAllocate pins what replaced the per-packet slice:
// once the counts have grown to cover the values in play, Add is one
// increment and allocates nothing, however many observations arrive —
// and Reset keeps that storage, so a reused Sample never allocates again.
func TestSampleAddDoesNotAllocate(t *testing.T) {
	var s Sample
	s.Add(5000) // grows the counts past every value below
	add := func() {
		for v := int64(0); v < 5000; v += 7 {
			s.Add(v)
		}
	}
	if allocs := testing.AllocsPerRun(100, add); allocs != 0 {
		t.Errorf("Add allocates %.1f times per run over grown counts, want 0", allocs)
	}
	if got, want := s.Count(), 1+101*715; got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	s.Reset()
	if s.Count() != 0 || s.P99() != 0 {
		t.Fatal("Reset did not empty the sample")
	}
	if allocs := testing.AllocsPerRun(100, add); allocs != 0 {
		t.Errorf("Add allocates %.1f times per run after Reset, want 0 (Reset must keep the counts' storage)", allocs)
	}
	if got := s.Percentile(1); got != 4998 {
		t.Errorf("max after Reset and refill = %d, want 4998 (stale counts survived Reset?)", got)
	}
}

// TestSampleMemoryFollowsDistinctValues pins the point of the layout: a
// saturated window's 73 k latencies cost what their range costs.
func TestSampleMemoryFollowsDistinctValues(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 73_000; i++ {
		s.Add(20 + int64(rng.IntN(1500)))
	}
	if len(s.rest) != 0 {
		t.Errorf("%d in-range observations stored one by one", len(s.rest))
	}
	if len(s.counts) != 2048 {
		t.Errorf("counts grew to %d cells for values below 1520, want 2048", len(s.counts))
	}
}
