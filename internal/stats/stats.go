// Package stats provides the measurement primitives the evaluation
// harness uses: latency samples with exact percentiles, throughput
// windows, and load-sweep summaries.
//
// Empty inputs are defined, not errors: every summary of an empty
// Sample or Curve returns 0 (never NaN, never a panic). A fully
// deadlocked run ejects zero packets, so "no observations" is a real
// state the tables must render; 0 is the pinned encoding of it.
package stats

import (
	"math"
	"slices"
)

// countedBelow bounds the values a Sample counts rather than stores:
// every latency, hop count and job-millisecond the repo records is in
// [0, countedBelow) unless a coherence round stalled for a million cycles.
const countedBelow = 1 << 16

// Sample accumulates scalar observations (latencies, hop counts) as
// exact per-value counts, so it costs memory per distinct value, not per
// observation, and a percentile is a walk over the counts with nothing
// to sort. The zero value is an empty sample ready to use.
type Sample struct {
	counts []int64 // counts[v] observations of v; len a power of two ≤ countedBelow
	rest   []int64 // the observations outside [0, countedBelow), one element each
	n      int
	sum    int64
	max    int64
}

// Add records one observation.
func (s *Sample) Add(v int64) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if uint64(v) < uint64(len(s.counts)) {
		s.counts[v]++
		return
	}
	s.addUncounted(v)
}

// addUncounted records an observation counts has no cell for yet: it
// doubles counts until v fits, or keeps v itself when it is out of range.
func (s *Sample) addUncounted(v int64) {
	if v < 0 || v >= countedBelow {
		s.rest = append(s.rest, v)
		return
	}
	n := max(64, len(s.counts))
	for int64(n) <= v {
		n *= 2
	}
	grown := make([]int64, n)
	copy(grown, s.counts)
	s.counts = grown
	s.counts[v]++
}

// Count returns the number of observations.
func (s *Sample) Count() int { return s.n }

// Mean returns the arithmetic mean (0 with no observations).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Max returns the largest observation (0 with no observations).
func (s *Sample) Max() int64 { return s.max }

// Percentile returns the q-quantile (0 < q ≤ 1) using the
// nearest-rank method; 0 with no observations. A q outside (0, 1]
// clamps to the nearest observation rather than panicking.
func (s *Sample) Percentile(q float64) int64 {
	if s.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= s.n {
		rank = s.n - 1
	}
	// Ascending order is: the negatives of rest, every counted value,
	// the rest from countedBelow up.
	slices.Sort(s.rest)
	negatives, _ := slices.BinarySearch(s.rest, 0)
	if rank < negatives {
		return s.rest[rank]
	}
	rank -= negatives
	if counted := s.n - len(s.rest); rank >= counted {
		return s.rest[negatives+rank-counted]
	}
	for v, c := range s.counts {
		if rank < int(c) {
			return int64(v)
		}
		rank -= int(c)
	}
	panic("stats: Sample counts do not add up to its observation count")
}

// P99 is shorthand for the 99th percentile (paper Fig. 15).
func (s *Sample) P99() int64 { return s.Percentile(0.99) }

// Reset discards all observations; the storage stays for the next ones.
func (s *Sample) Reset() {
	clear(s.counts)
	s.rest = s.rest[:0]
	s.n, s.sum, s.max = 0, 0, 0
}

// LoadPoint is one measurement on a latency/throughput curve.
type LoadPoint struct {
	Offered  float64 // offered load, packets/node/cycle
	Accepted float64 // accepted throughput, packets received/node/cycle
	AvgLat   float64 // mean packet network latency, cycles
	P99Lat   int64   // tail latency, cycles
}

// Curve is a sweep of load points at increasing offered load.
type Curve []LoadPoint

// Saturation returns the accepted throughput at the highest offered load
// (the post-saturation plateau, the paper's "saturation throughput" in
// packets received/node/cycle); 0 for an empty curve.
func (c Curve) Saturation() float64 {
	best := 0.0
	for _, p := range c {
		if p.Accepted > best {
			best = p.Accepted
		}
	}
	return best
}
