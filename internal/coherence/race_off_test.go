//go:build !race

package coherence

const raceEnabled = false
