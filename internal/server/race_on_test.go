//go:build race

package server

// The race detector's bookkeeping allocations would trip TestCacheHitAllocs.
const raceEnabled = true
