//go:build race

package coherence

// The race detector's bookkeeping allocations would trip TestNewAllocs.
const raceEnabled = true
