package noc

// EngineKind selects the cycle-core implementation behind Network.Step.
type EngineKind int

const (
	// EngineEvent is the event-driven core (the default): activity
	// bitmaps for allocation and injection and a timing wheel over
	// future events. Byte-identical to EngineDense — same RNG draw
	// sequence, same counters, same results.
	EngineEvent EngineKind = iota
	// EngineDense is the reference stepper: every cycle it rescans all
	// in-flight transfers, all routers with occupied input VCs, and all
	// injection queues. Kept behind the engine seam as the differential
	// oracle for the event core (see FuzzDenseVsEvent).
	EngineDense
)

// String implements fmt.Stringer (benchmark sub-names use it).
func (k EngineKind) String() string {
	if k == EngineDense {
		return "dense"
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
// eligibility or queue occupancy: placed (seat put a packet in an
// input VC), noteInject (an injection queue went non-empty), addFlight (a
// transfer started). Missing a notification would strand a packet in
// the event engine; CheckInvariants cross-checks the activity bitmaps
// and the wheel against a full state scan to catch exactly that.
type engine interface {
	// step runs one cycle after Network.Step has incremented the clock:
	// complete arrivals, then (unless frozen) allocation and injection.
	step(n *Network)
	// addFlight registers a started transfer landing at f.doneAt.
	addFlight(n *Network, f flight)
	// placed records that seat made a packet the head of an input VC of
	// router, eligible now (readyAt <= now) or next cycle.
	placed(n *Network, router int, readyAt int64)
	// noteInject records that router's injection queues went non-empty.
	noteInject(n *Network, router int)
	// inflightCount returns the number of transfers currently on links.
	inflightCount() int
	// eachFlight visits every pending transfer (diagnostics only).
	eachFlight(fn func(f *flight))
	// removeFailedFlights drops every pending non-eject transfer whose
	// destination link is marked down, applying n.dropFlight to each and
	// returning the count. Drop effects commute (disjoint packets and
	// slots, order-independent counter sums), so engines may visit their
	// flight sets in any internal order. Called between Steps only.
	removeFailedFlights(n *Network, down []bool) int
	// check validates engine-internal invariants against a full scan of
	// the network state (tests only).
	check(n *Network) error
}

// newEngine constructs the engine selected by cfg.Engine (which Validate
// has held to the two values above).
func newEngine(cfg *Config) engine {
	if cfg.Engine == EngineDense {
		return &denseEngine{}
	}
	return newEventEngine(cfg)
}
