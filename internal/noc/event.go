package noc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// eventEngine is the event-driven cycle core. Three structures replace
// the dense engine's exhaustive scans:
//
//   - alloc: a bitmap of routers that may hold an input VC head eligible
//     to move. Bits may be stale-SET (the visit finds nothing, draws no
//     randomness, and clears the bit) but are never stale-CLEAR: a bit is
//     cleared only when a visit granted every eligible head it counted,
//     and every path that creates eligibility (land, injection, rotation,
//     direct placement, readyAt maturation) re-sets the bit or schedules
//     a wake. That one-sided invariant is what makes the engine
//     byte-identical to the dense stepper — see DESIGN.md §"Event-driven
//     core" — and CheckInvariants verifies it against a full scan.
//   - inj: a bitmap of routers whose injection queues may be non-empty
//     (same one-sided staleness; injection draws no randomness at all).
//   - a timing wheel of power-of-two size > max(MaxFlits, RouterLatency):
//     per-slot FIFOs of flights (landing this cycle, in creation order —
//     the same order the dense inflights scan lands them) and of wakes
//     (routers whose placed packet matures this cycle).
//
// Because every future effect lives on the wheel, the engine can also
// prove windows of idleness: nextWorkCycle reports the earliest pending
// event, and skipIdle advances the clock over provably empty cycles in
// one jump (the idle fast-forward used by sim.RunSyntheticContext).
type eventEngine struct {
	// The wheel has a power-of-two number of slots strictly larger than
	// maxOff = max(MaxFlits, RouterLatency), the furthest any event is
	// scheduled ahead, so each pending cycle has a private slot.
	size, mask, maxOff int64
	flights            [][]flight // [cycle&mask] -> transfers landing that cycle
	wakes              [][]int32  // [cycle&mask] -> routers with a head maturing then
	count              int        // pending transfers across all slots

	alloc bitset // routers that may have an eligible head
	inj   bitset // routers whose injection queues may be non-empty
}

func newEventEngine(cfg *Config) *eventEngine {
	e := &eventEngine{maxOff: int64(max(cfg.MaxFlits, cfg.RouterLatency)), size: 1}
	for e.size <= e.maxOff {
		e.size <<= 1
	}
	e.mask = e.size - 1
	e.flights, e.wakes = make([][]flight, e.size), make([][]int32, e.size)
	e.alloc, e.inj = newBitset(cfg.Graph.N()), newBitset(cfg.Graph.N())
	return e
}

// step advances one cycle: fire this cycle's wheel slot (arrivals land
// in creation order, matured heads re-arm their router's activity bit),
// then — unless frozen — visit the active routers for allocation and
// injection in ascending order, exactly the order the dense stepper's
// 0..N-1 scans impose.
//
//drain:hotpath event-core cycle entry, dispatched from Network.Step through the engine seam (dynamic calls are not followed)
func (e *eventEngine) step(n *Network) {
	slot := n.cycle & e.mask
	if fl := e.flights[slot]; len(fl) > 0 {
		e.count -= len(fl)
		for i := range fl {
			n.land(fl[i])
		}
		e.flights[slot] = fl[:0]
	}
	if ws := e.wakes[slot]; len(ws) > 0 {
		for _, r := range ws {
			e.alloc.set(int(r))
		}
		e.wakes[slot] = ws[:0]
	}
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	// Allocation over the active set, empty words skipped (nextWord):
	// mostly-idle regions cost one word test per 64 routers. The per-word
	// copy makes clearing the just-visited bit
	// safe mid-iteration; no bit can be *set* during this loop (grants
	// only schedule future wheel events), which is also what makes the
	// forward nextWord walk exhaustive.
	for wi := e.alloc.nextWord(-1); wi >= 0; wi = e.alloc.nextWord(wi) {
		w := e.alloc.words[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			r := wi<<6 + bit
			eligible, granted := n.allocateRouter(r)
			if eligible == granted {
				// Every eligible head moved out; the next head to appear
				// (or mature) will re-set the bit via placed().
				e.alloc.clearWordBit(wi, bit)
			}
		}
	}
	// Injection over the routers with queued packets. Draws no
	// randomness, so stale-set bits are harmless no-op visits.
	for wi := e.inj.nextWord(-1); wi >= 0; wi = e.inj.nextWord(wi) {
		w := e.inj.words[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			r := wi<<6 + bit
			if !n.injectRouterQueues(r) {
				e.inj.clearWordBit(wi, bit)
			}
		}
	}
}

// addFlight schedules a started transfer to land at f.doneAt.
//
//drain:hotpath called from arbitration through the engine seam (dynamic calls are not followed)
func (e *eventEngine) addFlight(n *Network, f flight) {
	slot := f.doneAt & e.mask
	e.flights[slot] = append(e.flights[slot], f)
	e.count++
}

// placed arms router's activity bit, now or at the head's maturation
// cycle. readyAt is always within the wheel horizon (RouterLatency).
//
//drain:hotpath called from land/injection through the engine seam (dynamic calls are not followed)
func (e *eventEngine) placed(n *Network, router int, readyAt int64) {
	if readyAt <= n.cycle {
		e.alloc.set(router)
		return
	}
	slot := readyAt & e.mask
	e.wakes[slot] = append(e.wakes[slot], int32(router))
}

// noteInject arms router's injection bit.
//
//drain:hotpath called from Network.Inject through the engine seam (dynamic calls are not followed)
func (e *eventEngine) noteInject(_ *Network, router int) {
	e.inj.set(router)
}

// inflightCount returns the number of transfers currently on links.
func (e *eventEngine) inflightCount() int { return e.count }

// eachFlight visits every pending transfer.
func (e *eventEngine) eachFlight(fn func(f *flight)) {
	for s := range e.flights {
		for i := range e.flights[s] {
			fn(&e.flights[s][i])
		}
	}
}

// removeFailedFlights filters every wheel slot in place, dropping
// transfers bound for a failed link and fixing the pending count.
func (e *eventEngine) removeFailedFlights(n *Network, down []bool) int {
	dropped := 0
	for s, fl := range e.flights {
		out := fl[:0]
		for _, f := range fl {
			if !f.eject && down[f.toLink] {
				n.dropFlight(f)
				dropped++
				continue
			}
			out = append(out, f)
		}
		e.flights[s] = out
	}
	e.count -= dropped
	return dropped
}

// nextWorkCycle returns the earliest cycle at which stepping could have
// any effect: now+1 while any activity bit is set (an eligible or
// blocked head retries every cycle, and a queued injection would
// succeed as soon as a slot frees), otherwise the earliest pending
// wheel event, otherwise "never" — the network is completely empty.
//
//drain:hotpath per-iteration driver query, dispatched through the engine seam (dynamic calls are not followed)
func (e *eventEngine) nextWorkCycle(n *Network) int64 {
	if e.alloc.any() || e.inj.any() {
		return n.cycle + 1
	}
	for d := int64(1); d <= e.size; d++ {
		s := (n.cycle + d) & e.mask
		if len(e.flights[s]) > 0 || len(e.wakes[s]) > 0 {
			return n.cycle + d
		}
	}
	return math.MaxInt64
}

// skipIdle jumps the clock over k cycles the caller proved empty via
// nextWorkCycle. No wheel slot in the window holds an event and no
// activity bit is set, so the only per-cycle effects a dense run of k
// Steps would have produced are the frozen-cycle counter ticks.
//
//drain:hotpath fast-forward entry, dispatched from Network.SkipIdle through the engine seam (dynamic calls are not followed)
func (e *eventEngine) skipIdle(n *Network, k int64) {
	n.cycle += k
	if n.frozen {
		n.Counters.FrozenCyc += k
	}
}

// check validates the wheel and the activity bitmaps against a full
// scan: flights sit in the right slot within the horizon, the count
// agrees, every eligible head's router has its bit set (the never-
// stale-clear invariant), every immature head has a pending wake, and
// every non-empty injection queue has its router's bit set.
func (e *eventEngine) check(n *Network) error {
	total := 0
	for s := range e.flights {
		for i := range e.flights[s] {
			f := &e.flights[s][i]
			if f.doneAt <= n.cycle || f.doneAt > n.cycle+e.maxOff {
				return fmt.Errorf("noc: flight of packet %d lands at %d, outside (%d,%d]", f.pkt.ID, f.doneAt, n.cycle, n.cycle+e.maxOff)
			}
			if f.doneAt&e.mask != int64(s) {
				return fmt.Errorf("noc: flight of packet %d (doneAt %d) filed in wheel slot %d", f.pkt.ID, f.doneAt, s)
			}
		}
		total += len(e.flights[s])
	}
	if total != e.count {
		return fmt.Errorf("noc: wheel holds %d flights, count says %d", total, e.count)
	}
	if err := n.eachSlot(func(r, _, _ int, s *vcSlot) error {
		switch {
		case s.sending: // departing heads need neither bit nor wake
			return nil
		case s.readyAt <= n.cycle:
			if !e.alloc.get(r) {
				return fmt.Errorf("noc: eligible head (packet %d) at router %d but activity bit clear", s.pkt.ID, r)
			}
			return nil
		case s.readyAt > n.cycle+e.maxOff:
			return fmt.Errorf("noc: packet %d matures at %d, beyond the wheel horizon %d", s.pkt.ID, s.readyAt, n.cycle+e.maxOff)
		}
		if !slices.Contains(e.wakes[s.readyAt&e.mask], int32(r)) {
			return fmt.Errorf("noc: immature head (packet %d) at router %d has no wake at cycle %d", s.pkt.ID, r, s.readyAt)
		}
		return nil
	}); err != nil {
		return err
	}
	for r := 0; r < n.g.N(); r++ {
		if n.hasQueued(r) && !e.inj.get(r) {
			return fmt.Errorf("noc: router %d has queued injections but injection bit clear", r)
		}
	}
	return nil
}
