//go:build race

package noc

// The race detector's bookkeeping allocations would trip allocs_test.go.
const raceEnabled = true
