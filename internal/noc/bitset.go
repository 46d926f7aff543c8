package noc

// bitset is a fixed-size set of small integers (router IDs) with O(1)
// set/clear and ascending-order iteration via bits.TrailingZeros64 at
// the use sites (the iteration is inlined in the event engine's step so
// the hot path stays free of closure allocations). Ascending order is
// load-bearing: the event engine must visit routers in exactly the
// order the dense stepper's 0..N-1 scan does, or the shared RNG would
// be consumed in a different sequence.
//
// Iteration (nextWord) and emptiness (any) scan the words: one word per
// 64 routers, so 64 loads a cycle on the largest served mesh (64x64).
type bitset struct {
	words []uint64
}

// newBitset returns an empty set over the domain [0, n).
func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

// set adds i to the set.
func (b *bitset) set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// clear removes i from the set.
func (b *bitset) clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// clearWordBit removes element (w<<6 + bit), addressed by word index:
// the engines' scan loops already hold the word index, so they clear
// through this instead of recomputing it from the element.
func (b *bitset) clearWordBit(w, bit int) { b.words[w] &^= 1 << uint(bit) }

// get reports whether i is in the set.
func (b *bitset) get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// nextWord returns the index of the first non-empty word after w (pass
// -1 to start), or -1 when none remain. Callers may clear bits of the
// current or earlier words mid-iteration; they must not set bits.
func (b *bitset) nextWord(w int) int {
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w
		}
	}
	return -1
}

// any reports whether the set is non-empty.
func (b *bitset) any() bool { return b.nextWord(-1) >= 0 }
