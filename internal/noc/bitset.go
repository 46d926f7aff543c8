package noc

import "math/bits"

// bitset is a fixed-size set of small integers (router IDs) with O(1)
// set/clear and ascending-order iteration via bits.TrailingZeros64 at
// the use sites (the iteration is inlined in the event engine's step so
// the hot path stays free of closure allocations). Ascending order is
// load-bearing: the event engine must visit routers in exactly the
// order the dense stepper's 0..N-1 scan does, or the shared RNG would
// be consumed in a different sequence.
//
// Above one word the set is two-level: sum is a summary word whose bit
// w is set iff words[w] != 0, so iteration (nextWord) and emptiness
// (any) skip empty 64-router blocks instead of scanning them. That is
// the per-router idle-skipping worklist: on a 64x64 mesh a mostly-idle
// engine touches only the summary word plus the few words that actually
// hold active routers. Small domains (len(words) == 1, e.g. an 8x8
// mesh) keep sum nil and fall back to the dense single-word scan — the
// structural "density threshold": a one-word domain is its own summary.
type bitset struct {
	words []uint64
	sum   []uint64 // summary: bit w set iff words[w] != 0; nil when len(words) < 2
}

// newBitset returns an empty set over the domain [0, n).
func newBitset(n int) bitset {
	nw := (n + 63) / 64
	b := bitset{words: make([]uint64, nw)}
	if nw > 1 {
		b.sum = make([]uint64, (nw+63)/64)
	}
	return b
}

// set adds i to the set.
func (b *bitset) set(i int) {
	w := i >> 6
	b.words[w] |= 1 << uint(i&63)
	if b.sum != nil {
		b.sum[w>>6] |= 1 << uint(w&63)
	}
}

// clear removes i from the set.
func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << uint(i&63)
	if b.sum != nil && b.words[w] == 0 {
		b.sum[w>>6] &^= 1 << uint(w&63)
	}
}

// clearWordBit removes element (w<<6 + bit), addressed by word index:
// the engines' scan loops already hold the word index, so they clear
// through this instead of recomputing it from the element.
func (b *bitset) clearWordBit(w, bit int) {
	b.words[w] &^= 1 << uint(bit)
	if b.sum != nil && b.words[w] == 0 {
		b.sum[w>>6] &^= 1 << uint(w&63)
	}
}

// get reports whether i is in the set.
func (b *bitset) get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// nextWord returns the index of the first non-empty word after w (pass
// -1 to start), or -1 when none remain. Callers may clear bits of the
// current or earlier words mid-iteration; they must not set bits.
func (b *bitset) nextWord(w int) int {
	if b.sum == nil {
		for w++; w < len(b.words); w++ {
			if b.words[w] != 0 {
				return w
			}
		}
		return -1
	}
	w++
	sw := w >> 6
	if sw >= len(b.sum) {
		return -1
	}
	// Mask off summary bits below the resume point, then walk.
	cur := b.sum[sw] &^ (1<<uint(w&63) - 1)
	for {
		if cur != 0 {
			return sw<<6 + bits.TrailingZeros64(cur)
		}
		sw++
		if sw >= len(b.sum) {
			return -1
		}
		cur = b.sum[sw]
	}
}

// any reports whether the set is non-empty.
func (b *bitset) any() bool {
	if b.sum != nil {
		for _, s := range b.sum {
			if s != 0 {
				return true
			}
		}
		return false
	}
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// sumConsistent reports whether the summary level matches the words —
// the engines' check() validates it alongside their own invariants.
func (b *bitset) sumConsistent() bool {
	if b.sum == nil {
		return len(b.words) < 2
	}
	for w := range b.words {
		if (b.words[w] != 0) != (b.sum[w>>6]&(1<<uint(w&63)) != 0) {
			return false
		}
	}
	return true
}
