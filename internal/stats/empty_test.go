package stats

import "testing"

// TestEmptySamplePinned pins the documented empty-sample contract: every
// summary of a Sample with no observations is exactly 0. A fully
// deadlocked simulation produces such samples, so these values flow
// straight into experiment tables.
func TestEmptySamplePinned(t *testing.T) {
	check := func(name string, s *Sample) {
		t.Helper()
		if got := s.Count(); got != 0 {
			t.Errorf("%s: Count = %d, want 0", name, got)
		}
		if got := s.Mean(); got != 0 {
			t.Errorf("%s: Mean = %v, want 0", name, got)
		}
		if got := s.Max(); got != 0 {
			t.Errorf("%s: Max = %d, want 0", name, got)
		}
		for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
			if got := s.Percentile(q); got != 0 {
				t.Errorf("%s: Percentile(%v) = %d, want 0", name, q, got)
			}
		}
		if got := s.P99(); got != 0 {
			t.Errorf("%s: P99 = %d, want 0", name, got)
		}
	}

	check("zero value", &Sample{})

	// Reset must restore the exact empty contract, including Max.
	var s Sample
	s.Add(42)
	s.Add(7)
	s.Reset()
	check("after Reset", &s)
}

// TestPercentileClampsQ pins the out-of-range-q behaviour on a
// non-empty sample: clamp to the nearest observation, never panic.
func TestPercentileClampsQ(t *testing.T) {
	var s Sample
	for _, v := range []int64{10, 20, 30} {
		s.Add(v)
	}
	if got := s.Percentile(-0.5); got != 10 {
		t.Errorf("Percentile(-0.5) = %d, want 10 (clamped to min)", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Errorf("Percentile(0) = %d, want 10 (clamped to min)", got)
	}
	if got := s.Percentile(5); got != 30 {
		t.Errorf("Percentile(5) = %d, want 30 (clamped to max)", got)
	}
}

// TestEmptyCurvePinned pins the empty-curve contract: saturation 0.
func TestEmptyCurvePinned(t *testing.T) {
	var c Curve
	if got := c.Saturation(); got != 0 {
		t.Errorf("Saturation = %v, want 0", got)
	}
}

// A single-point curve is its own saturation plateau.
func TestSinglePointCurve(t *testing.T) {
	c := Curve{{Offered: 0.05, Accepted: 0.048, AvgLat: 21, P99Lat: 40}}
	if got := c.Saturation(); got != 0.048 {
		t.Errorf("Saturation = %v, want 0.048", got)
	}
}
