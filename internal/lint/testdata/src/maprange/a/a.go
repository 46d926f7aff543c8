// Package a exercises the maprange analyzer: map iteration in a
// deterministic package must be collect-then-sorted, directive-annotated
// as order-free, or it is a finding.
package a

import (
	"sort"

	"slices"
)

// keys is the canonical allowed idiom: collect, then sort.
func keys(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// guarded collection with a call-free condition is still allowed.
func trueKeys(m map[int]bool) []int {
	picked := []int{}
	for k, v := range m {
		if v {
			picked = append(picked, k)
		}
	}
	slices.Sort(picked)
	return picked
}

// values collected then sorted with a comparator are allowed.
func sortedVals(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// There is no suppression: even an order-insensitive reduction is a
// finding, and a directive outside the vocabulary is one too.
func sum(m map[string]int) int {
	total := 0
	//drain:anyorder integer addition is commutative over any visit order
	// want:-1 `\[directive\] unknown directive "//drain:anyorder" \(known: hotpath, coldpath, ctxcarrier\)`
	for _, v := range m { // want `\[maprange\] iteration over map map\[string\]int has randomized order; collect and sort the keys first`
		total += v
	}
	return total
}

// Feeding output directly from map order is the core violation.
func emit(m map[int]string, sink func(string)) {
	for _, s := range m { // want `\[maprange\] iteration over map map\[int\]string has randomized order`
		sink(s)
	}
}

// Collecting without ever sorting does not launder the order.
func collectNoSort(m map[int]string) []string {
	var out []string
	for _, s := range m { // want `\[maprange\] iteration over map`
		out = append(out, s)
	}
	return out
}

// A guard with a call is not provably order-insensitive.
func guardedCall(m map[int]string, keep func(string) bool) []string {
	var out []string
	for _, s := range m { // want `\[maprange\] iteration over map`
		if keep(s) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
