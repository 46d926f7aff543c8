package stats

import (
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(0.5) != 0 || s.Count() != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, v := range []int64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Errorf("count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v, want 3", s.Mean())
	}
	if s.Max() != 5 {
		t.Errorf("max = %d, want 5", s.Max())
	}
	if got := s.Percentile(0.5); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := s.Percentile(1.0); got != 5 {
		t.Errorf("p100 = %d, want 5", got)
	}
	// Adding after a percentile query must still work (re-sort).
	s.Add(10)
	if got := s.Percentile(1.0); got != 10 {
		t.Errorf("p100 after add = %d, want 10", got)
	}
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Error("reset did not clear")
	}
}

func TestP99(t *testing.T) {
	var s Sample
	for i := int64(1); i <= 100; i++ {
		s.Add(i)
	}
	if got := s.P99(); got != 99 {
		t.Errorf("p99 = %d, want 99", got)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewPCG(seed, seed))
		var s Sample
		minV := int64(1 << 62)
		maxV := int64(-1 << 62)
		for i := 0; i < n; i++ {
			v := int64(rng.IntN(10000))
			s.Add(v)
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		p01 := s.Percentile(0.01)
		p50 := s.Percentile(0.5)
		p99 := s.Percentile(0.99)
		// Monotone, bounded by min/max.
		return p01 >= minV && p99 <= maxV && p01 <= p50 && p50 <= p99 && s.Max() == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

func TestCurveSummaries(t *testing.T) {
	c := Curve{
		{Offered: 0.02, Accepted: 0.02, AvgLat: 20},
		{Offered: 0.10, Accepted: 0.10, AvgLat: 24},
		{Offered: 0.20, Accepted: 0.19, AvgLat: 45},
		{Offered: 0.30, Accepted: 0.21, AvgLat: 300},
		{Offered: 0.40, Accepted: 0.215, AvgLat: 800},
	}
	if got := c.Saturation(); got != 0.215 {
		t.Errorf("saturation = %v", got)
	}
	if got := (Curve{}).Saturation(); got != 0 {
		t.Errorf("empty curve saturation = %v", got)
	}
}
