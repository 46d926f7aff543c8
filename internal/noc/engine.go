package noc

import "fmt"

// EngineKind selects the cycle-core implementation behind Network.Step.
type EngineKind int

const (
	// EngineEvent is the event-driven core (the default): activity
	// bitmaps for allocation and injection, a timing wheel over future
	// events, and idle fast-forward support. Byte-identical to
	// EngineDense — same RNG draw sequence, same counters, same results.
	EngineEvent EngineKind = iota
	// EngineDense is the reference stepper: every cycle it rescans all
	// in-flight transfers, all routers with occupied input VCs, and all
	// injection queues. Kept behind the engine seam as the differential
	// oracle for the event core (see FuzzDenseVsEvent).
	EngineDense
	// EngineParallel is the sharded cycle core: routers are partitioned
	// into Config.Shards contiguous shards and each cycle's phases
	// (arrival, allocation planning, injection) run on a fixed worker
	// pool with per-phase barriers, while every randomized decision
	// commits serially in ascending router order. Byte-identical to the
	// other engines for every shard count — see DESIGN.md §"Sharded
	// parallel engine".
	EngineParallel
)

// String implements fmt.Stringer (benchmark sub-names use it).
func (k EngineKind) String() string {
	switch k {
	case EngineDense:
		return "dense"
	case EngineParallel:
		return "parallel"
	}
	return "event"
}

// engine is the build-internal seam between Network's state (buffers,
// queues, counters, RNG) and the per-cycle control flow that decides
// which of that state to visit. Both implementations drive the same
// shared mutation paths (allocateRouter, injectRouterQueues, land), so
// any divergence is confined to *which routers are visited when* — and
// the determinism argument (DESIGN.md §"Event-driven core") shows the
// event engine visits a superset of the routers that matter, in the
// same ascending order, which is why the two are byte-identical.
//
// The Network notifies its engine at every point that changes head
// eligibility or queue occupancy: placed (a packet entered an input
// VC), noteInject (an injection queue went non-empty), addFlight (a
// transfer started). Missing a notification would strand a packet in
// the event engine; CheckInvariants cross-checks the activity bitmaps
// and the wheel against a full state scan to catch exactly that.
type engine interface {
	// step runs one cycle after Network.Step has incremented the clock:
	// complete arrivals, then (unless frozen) allocation and injection.
	step(n *Network)
	// addFlight registers a started transfer landing at f.doneAt.
	addFlight(n *Network, f flight)
	// placed records that a packet now heads an input VC of router,
	// becoming eligible at readyAt (readyAt <= now means immediately).
	placed(n *Network, router int, readyAt int64)
	// noteInject records that router's injection queues went non-empty.
	noteInject(n *Network, router int)
	// inflightCount returns the number of transfers currently on links.
	inflightCount() int
	// eachFlight visits every pending transfer (diagnostics only).
	eachFlight(fn func(f *flight))
	// nextWorkCycle returns a lower bound on the next cycle at which
	// stepping the network could have any observable effect: the
	// earliest pending wheel event, or now+1 when any activity bit is
	// set. The dense engine always answers now+1 (it cannot prove
	// idleness), which makes drivers engine-agnostic.
	nextWorkCycle(n *Network) int64
	// skipIdle advances the clock k cycles in one jump. Callers must
	// have proven the window empty via nextWorkCycle; the dense engine
	// panics (its nextWorkCycle never admits a skippable window).
	skipIdle(n *Network, k int64)
	// removeFailedFlights drops every pending non-eject transfer whose
	// destination link is marked down, applying n.dropFlight to each and
	// returning the count. Drop effects commute (disjoint packets and
	// slots, order-independent counter sums), so engines may visit their
	// flight sets in any internal order. Called between Steps only.
	removeFailedFlights(n *Network, down []bool) int
	// check validates engine-internal invariants against a full scan of
	// the network state (tests only).
	check(n *Network) error
	// stop releases engine-owned resources (the parallel engine's worker
	// goroutines); idempotent, no-op for the other engines. A stopped
	// parallel engine keeps working through its inline serial path.
	stop()
}

// newEngine constructs the engine selected by cfg.Engine.
func newEngine(cfg *Config) engine {
	switch cfg.Engine {
	case EngineDense:
		return &denseEngine{}
	case EngineParallel:
		return newParallelEngine(cfg)
	}
	return newEventEngine(cfg)
}

// flightWheel is the timing wheel of pending transfers the event and
// parallel engines share: a power-of-two number of slots strictly larger
// than maxOff = max(MaxFlits, RouterLatency), the furthest any event is
// scheduled ahead, so each pending cycle has a private slot. A slot holds
// the transfers landing that cycle in creation order — the order the
// dense engine's inflights scan lands them.
type flightWheel struct {
	size, mask, maxOff int64
	flights            [][]flight // [cycle&mask] -> transfers landing that cycle
	count              int        // pending transfers across all slots
}

func newFlightWheel(cfg *Config) flightWheel {
	w := flightWheel{maxOff: int64(max(cfg.MaxFlits, cfg.RouterLatency)), size: 1}
	for w.size <= w.maxOff {
		w.size <<= 1
	}
	w.mask, w.flights = w.size-1, make([][]flight, w.size)
	return w
}

// inflightCount returns the number of transfers currently on links.
func (w *flightWheel) inflightCount() int { return w.count }

// eachFlight visits every pending transfer.
func (w *flightWheel) eachFlight(fn func(f *flight)) {
	for s := range w.flights {
		for i := range w.flights[s] {
			fn(&w.flights[s][i])
		}
	}
}

// removeFailedFlights filters every wheel slot in place, dropping
// transfers bound for a failed link and fixing the pending count. It runs
// on the stepping goroutine between Steps (the parallel engine's workers
// are parked then: a reconfiguration is a serial phase, like commits).
func (w *flightWheel) removeFailedFlights(n *Network, down []bool) int {
	dropped := 0
	for s, fl := range w.flights {
		out := fl[:0]
		for _, f := range fl {
			if !f.eject && down[f.toLink] {
				n.dropFlight(f)
				dropped++
				continue
			}
			out = append(out, f)
		}
		w.flights[s] = out
	}
	w.count -= dropped
	return dropped
}

// checkFlights validates the wheel against a full scan: flights sit in
// the right slot within the horizon, and the count agrees.
func (w *flightWheel) checkFlights(n *Network) error {
	total := 0
	for s := range w.flights {
		for i := range w.flights[s] {
			f := &w.flights[s][i]
			if f.doneAt <= n.cycle || f.doneAt > n.cycle+w.maxOff {
				return fmt.Errorf("noc: flight of packet %d lands at %d, outside (%d,%d]", f.pkt.ID, f.doneAt, n.cycle, n.cycle+w.maxOff)
			}
			if f.doneAt&w.mask != int64(s) {
				return fmt.Errorf("noc: flight of packet %d (doneAt %d) filed in wheel slot %d", f.pkt.ID, f.doneAt, s)
			}
		}
		total += len(w.flights[s])
	}
	if total != w.count {
		return fmt.Errorf("noc: wheel holds %d flights, count says %d", total, w.count)
	}
	return nil
}
