//go:build !race

package noc

const raceEnabled = false
