package noc

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// parallelEngine is the sharded cycle core: routers are partitioned into
// K contiguous shards and each cycle's read-dominated phases run on a
// fixed worker pool with per-phase barriers, while every randomized
// decision (arbitration draws) commits serially in ascending router
// order on the stepping goroutine. The result is byte-identical to the
// dense and event engines for every K — same RNG draw sequence, same
// counters, same buffers — which the three-way lockstep oracle
// (FuzzDenseVsEvent) and sim.TestParallelEngineDifferential prove.
//
// Why identity holds (DESIGN.md §"Sharded parallel engine" has the full
// argument):
//
//   - Arbitration draws are inherently serial: the option set of a later
//     output at a router depends on earlier same-router winners via
//     p.sending, and the *number* of draws depends on outcomes. So draws
//     and their commits stay on one goroutine, in the dense scan order
//     (ascending router, eject port first, then outputs ascending).
//   - Everything else a cycle does is either partitioned by owner
//     (arrival effects by destination router, injection by router,
//     wake/alloc bits by router) or stable across the phase (routing
//     candidates, downstream free-slot state — each output link is
//     granted at most once per cycle and belongs to one source router),
//     so it parallelizes without changing any observable.
//   - The two cross-shard flows — upstream buffer releases of landing
//     flights, and counter deltas — go through per-shard staging drained
//     in ascending shard order, and all merged quantities are
//     order-independent sums or owner-exclusive writes.
//   - Arbitration itself — option masks, draws, grants — is the serial
//     allocator, unchanged, run in the serial commit; the parallel plan
//     phase only does the routing it would otherwise do first (promote),
//     which touches nothing outside the router.
//
// Ejections are pushed serially in flight order so ejection-queue
// order, ejDirtyList order and OnEject callback order (float summation
// in the stats collectors!) match the serial engines. One observable
// difference remains: OnEject fires after the whole arrival phase
// rather than interleaved with it. The in-repo callbacks only read the
// packet, so nothing in the repo can tell.
type parallelEngine struct {
	nShards int

	// Flights are appended only from serial contexts (allocation), so
	// the wheel is global; wakes are per shard.
	flightWheel

	shardOf []int32 // router -> owning shard
	shards  []parShard

	// inlineBelow: cycles whose active-work estimate is below this run
	// serially on the stepping goroutine (identical results, no barrier
	// overhead). 0 after construction means "never inline".
	inlineBelow int

	// Worker pool: worker i processes shard i+1; shard 0 runs on the
	// stepping goroutine between kickoff and wg.Wait. curNet/curPhase
	// are published before the kickoff sends and read after the
	// receives; wg orders all shard writes before the next phase.
	curNet   *Network
	curPhase int
	start    []chan struct{}
	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once
	stopped  bool
	bound    bool
}

// Parallel phase identifiers (curPhase).
const (
	phaseLandArrive = iota // apply arrival effects, stage upstream frees
	phaseLandFree          // drain staged upstream frees in shard order
	phasePlan              // promote: route the heads that matured or crossed a threshold
	phaseInject            // move injection-queue heads into local VCs
)

// defaultParallelInline is the active-work threshold below which a cycle
// runs inline; chosen so a saturated 8x8 stays inline (barriers would
// dominate) while a loaded 64x64 runs phased.
const defaultParallelInline = 96

// upFree is a staged upstream buffer release: the position a landing
// packet departed from, captured before the arrival side overwrites the
// packet's position fields. Addressed to the shard owning the upstream
// router.
type upFree struct {
	inLink int32 // LocalPort or link ID
	router int32
	slot   int32
	flits  int32
}

// parShard is the per-shard state: the shard's slice of the activity
// bitmaps and wake wheel and its staging buffers. The
// bitsets span the full router domain (only bits in [lo,hi) are ever
// set), so no two shards share a word and ascending iteration over
// shards 0..K-1 visits routers in global ascending order.
//
//drain:staged per-shard by construction: each phase writes only its own instance's buffers and counters; the one cross-shard field, upOut, is written column-exclusively (shard s appends only to its own upOut[dst]) and drained at the next barrier in ascending source-shard order (shardsafe)
type parShard struct {
	lo, hi int
	alloc  bitset
	inj    bitset
	wakes  [][]int32

	// upOut[dst] stages upstream frees this shard's arrivals owe to
	// shard dst; dst drains them in ascending source-shard order.
	upOut [][]upFree

	ctr      Counters // staged counter delta (vnRouterLastActive aliased)
	injDelta int      // queues drained to empty this cycle
}

// newParallelEngine builds the engine and spawns its K-1 workers
// (shard 0 runs on the stepping goroutine). Construction is the cold
// path: everything the hot phases append to is a reusable arena.
func newParallelEngine(cfg *Config) *parallelEngine {
	nRouters := cfg.Graph.N()
	k := cfg.Shards
	if k <= 0 {
		k = 1
	}
	if k > nRouters {
		k = nRouters
	}
	e := &parallelEngine{
		nShards:     k,
		flightWheel: newFlightWheel(cfg),
		shardOf:     make([]int32, nRouters),
		shards:      make([]parShard, k),
		quit:        make(chan struct{}),
	}
	e.inlineBelow = cfg.ParallelInline
	if e.inlineBelow == 0 {
		e.inlineBelow = defaultParallelInline
	} else if e.inlineBelow < 0 {
		e.inlineBelow = 0
	}
	for s := range e.shards {
		sh := &e.shards[s]
		sh.lo = s * nRouters / k
		sh.hi = (s + 1) * nRouters / k
		for r := sh.lo; r < sh.hi; r++ {
			e.shardOf[r] = int32(s)
		}
		sh.alloc = newBitset(nRouters)
		sh.inj = newBitset(nRouters)
		sh.wakes = make([][]int32, e.size)
		sh.upOut = make([][]upFree, k)
	}
	e.start = make([]chan struct{}, k-1)
	for i := range e.start {
		e.start[i] = make(chan struct{}, 1)
		go e.worker(i + 1)
	}
	return e
}

// bind lazily wires the per-shard counter deltas to the network's
// authoritative VN-activity table (not yet allocated when newEngine
// runs).
//
//drain:coldpath one-time lazy wiring on the first Step; steady-state cycles see e.bound and never re-enter
func (e *parallelEngine) bind(n *Network) {
	for s := range e.shards {
		e.shards[s].ctr = n.Counters.newShardDelta(n.cfg.VNets)
	}
	e.bound = true
}

// worker is the persistent loop of one pool goroutine: wait for a phase
// kickoff, run this shard's share, signal the barrier.
//
//drain:hotpath parallel-phase worker body; spawned once at construction and dispatched per phase through channels (dynamic edges are not followed)
func (e *parallelEngine) worker(s int) {
	for {
		select {
		case <-e.quit:
			return
		case <-e.start[s-1]:
		}
		e.runShardPhase(e.curNet, e.curPhase, s)
		e.wg.Done()
	}
}

func (e *parallelEngine) runShardPhase(n *Network, phase, s int) {
	switch phase {
	case phaseLandArrive:
		e.landArrivals(n, s)
	case phaseLandFree:
		e.applyUpFrees(n, s)
	case phasePlan:
		e.planShard(n, s)
	case phaseInject:
		e.injectShard(n, s)
	}
}

// runPhase fans one phase across the shards and waits for all of them:
// workers take shards 1..K-1, the stepping goroutine takes shard 0. The
// buffered kickoff sends publish curNet/curPhase (channel send
// happens-before receive); wg.Wait is the barrier ordering every
// shard's writes before the next phase reads them.
func (e *parallelEngine) runPhase(n *Network, phase int) {
	e.curNet, e.curPhase = n, phase
	e.wg.Add(len(e.start))
	for _, c := range e.start {
		c <- struct{}{}
	}
	e.runShardPhase(n, phase, 0)
	e.wg.Wait()
	e.curNet = nil
}

// step advances one cycle. Small cycles (and every cycle once stopped)
// run inline — the event engine's exact algorithm over the per-shard
// structures; loaded cycles run the phased pipeline. The choice is a
// pure function of simulation state, and both paths are byte-identical,
// so interleaving them freely is safe.
//
//drain:hotpath parallel-core cycle entry, dispatched from Network.Step through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) step(n *Network) {
	if !e.bound {
		e.bind(n)
	}
	slot := n.cycle & e.mask
	fl := e.flights[slot]
	work := len(fl)
	for s := range e.shards {
		work += e.shards[s].alloc.count() + e.shards[s].inj.count()
	}
	if e.stopped || len(e.start) == 0 || work < e.inlineBelow {
		e.stepInline(n, fl, slot)
		return
	}
	e.stepPhased(n, fl, slot)
}

// stepInline runs the whole cycle serially on the stepping goroutine:
// lands in creation order, then allocation and injection over the
// per-shard bitsets in ascending shard order — which is ascending
// router order, exactly the dense scan.
func (e *parallelEngine) stepInline(n *Network, fl []flight, slot int64) {
	if len(fl) > 0 {
		e.count -= len(fl)
		for i := range fl {
			n.land(fl[i])
		}
		e.flights[slot] = fl[:0]
	}
	e.fireWakes(slot)
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	e.allocate(n)
	for s := range e.shards {
		sh := &e.shards[s]
		for wi := sh.inj.nextWord(-1); wi >= 0; wi = sh.inj.nextWord(wi) {
			for w := sh.inj.words[wi]; w != 0; w &= w - 1 {
				if bit := bits.TrailingZeros64(w); !n.injectRouterQueues(wi<<6 + bit) {
					sh.inj.clearWordBit(wi, bit)
				}
			}
		}
	}
}

// stepPhased runs the cycle as the barrier pipeline: parallel arrivals
// (staging upstream frees), parallel frees, serial ejection pushes,
// wakes, parallel promotion, serial allocation, parallel injection, and
// a serial reduce of the staged deltas in shard order.
func (e *parallelEngine) stepPhased(n *Network, fl []flight, slot int64) {
	if len(fl) > 0 {
		e.count -= len(fl)
		e.runPhase(n, phaseLandArrive)
		e.runPhase(n, phaseLandFree)
		for i := range fl {
			if fl[i].eject {
				n.pushEject(int(fl[i].toRouter), fl[i].pkt)
			}
		}
		e.flights[slot] = fl[:0]
	}
	e.fireWakes(slot)
	if n.frozen {
		e.reduce(n)
		n.Counters.FrozenCyc++
		return
	}
	e.runPhase(n, phasePlan)
	e.allocate(n)
	e.runPhase(n, phaseInject)
	e.reduce(n)
}

// fireWakes re-arms the activity bits of routers whose head matures
// this cycle. Cheap pure bit work, so it always runs serially.
func (e *parallelEngine) fireWakes(slot int64) {
	for s := range e.shards {
		sh := &e.shards[s]
		if ws := sh.wakes[slot]; len(ws) > 0 {
			for _, r := range ws {
				sh.alloc.set(int(r))
			}
			sh.wakes[slot] = ws[:0]
		}
	}
}

// landArrivals (phaseLandArrive, per shard): apply the destination-side
// effects of every flight landing in this shard, and stage the upstream
// release — captured from the packet's position fields before
// landArrive overwrites them — to the shard owning the departed router.
// Eject flights only stage their release here; the push happens
// serially after phaseLandFree.
func (e *parallelEngine) landArrivals(n *Network, s int) {
	sh := &e.shards[s]
	fl := e.flights[n.cycle&e.mask]
	for i := range fl {
		f := &fl[i]
		if e.shardOf[f.toRouter] != int32(s) {
			continue
		}
		p := f.pkt
		dst := e.shardOf[p.atRouter]
		sh.upOut[dst] = append(sh.upOut[dst], upFree{
			inLink: int32(p.inLink), router: int32(p.atRouter),
			slot: int32(p.slot), flits: int32(p.Flits),
		})
		if !f.eject {
			n.landArrive(*f, &sh.ctr)
		}
	}
}

// applyUpFrees (phaseLandFree, per shard): drain the staged releases
// addressed to this shard, in ascending source-shard order. All touched
// state (upstream VC slots, occupancy counts) is owned by this shard's
// routers; BufReads accumulates in the shard delta.
func (e *parallelEngine) applyUpFrees(n *Network, s int) {
	sh := &e.shards[s]
	for i := range e.shards {
		src := &e.shards[i]
		cell := src.upOut[s]
		for j := range cell {
			u := &cell[j]
			n.freeUpstream(int(u.inLink), int(u.router), int(u.slot), int64(u.flits), &sh.ctr)
		}
		src.upOut[s] = cell[:0]
	}
}

// planShard (phasePlan, per shard): promote every active router of the
// shard, so the serial allocation that follows finds the routing — the
// table lookups, the part of a visit that touches the most memory —
// already done. Writes only the routers' own mask blocks and slots.
func (e *parallelEngine) planShard(n *Network, s int) {
	sh := &e.shards[s]
	for wi := sh.alloc.nextWord(-1); wi >= 0; wi = sh.alloc.nextWord(wi) {
		for w := sh.alloc.words[wi]; w != 0; w &= w - 1 {
			n.promote(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// allocate visits the active routers serially in ascending shard (=
// router) order, making every RNG draw in exactly the dense scan's
// sequence: per router, the eject draw first, then each output ascending.
func (e *parallelEngine) allocate(n *Network) {
	for s := range e.shards {
		sh := &e.shards[s]
		for wi := sh.alloc.nextWord(-1); wi >= 0; wi = sh.alloc.nextWord(wi) {
			for w := sh.alloc.words[wi]; w != 0; w &= w - 1 {
				bit := bits.TrailingZeros64(w)
				if eligible, granted := n.allocateRouter(wi<<6 + bit); eligible == granted {
					sh.alloc.clearWordBit(wi, bit)
				}
			}
		}
	}
}

// injectShard (phaseInject, per shard): the event engine's injection
// sweep over this shard's bits. Injection draws no randomness and
// touches only router-owned state; the injPending and counter deltas
// stage per shard.
func (e *parallelEngine) injectShard(n *Network, s int) {
	sh := &e.shards[s]
	for wi := sh.inj.nextWord(-1); wi >= 0; wi = sh.inj.nextWord(wi) {
		w := sh.inj.words[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			pending, emptied := n.injectRouterQueuesInto(wi<<6+bit, &sh.ctr)
			sh.injDelta += emptied
			if !pending {
				sh.inj.clearWordBit(wi, bit)
			}
		}
	}
}

// reduce folds the staged per-shard deltas into the network in
// ascending shard order. Sums only, so the result is byte-identical to
// the serial engines' in-place accumulation.
func (e *parallelEngine) reduce(n *Network) {
	for s := range e.shards {
		sh := &e.shards[s]
		n.Counters.absorb(&sh.ctr)
		n.injPending -= sh.injDelta
		sh.injDelta = 0
	}
}

// addFlight schedules a started transfer to land at f.doneAt. Called
// from serial contexts only (allocation).
//
//drain:hotpath called from arbitration through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) addFlight(n *Network, f flight) {
	slot := f.doneAt & e.mask
	e.flights[slot] = append(e.flights[slot], f)
	e.count++
}

// placed arms the owning shard's activity bit, now or at the head's
// maturation cycle. In parallel phases this is only ever called for
// routers of the running shard (arrivals and injections are partitioned
// by destination router), so the per-shard structures never race.
//
//drain:hotpath called from land/injection through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) placed(n *Network, router int, readyAt int64) {
	sh := &e.shards[e.shardOf[router]]
	if readyAt <= n.cycle {
		sh.alloc.set(router)
		return
	}
	slot := readyAt & e.mask
	sh.wakes[slot] = append(sh.wakes[slot], int32(router))
}

// noteInject arms the owning shard's injection bit (serial contexts:
// Network.Inject runs between cycles).
//
//drain:hotpath called from Network.Inject through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) noteInject(_ *Network, router int) {
	e.shards[e.shardOf[router]].inj.set(router)
}

// nextWorkCycle mirrors the event engine: now+1 while any activity bit
// is set, otherwise the earliest pending wheel event, otherwise never.
//
//drain:hotpath per-iteration driver query, dispatched through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) nextWorkCycle(n *Network) int64 {
	for s := range e.shards {
		if e.shards[s].alloc.any() || e.shards[s].inj.any() {
			return n.cycle + 1
		}
	}
	for d := int64(1); d <= e.size; d++ {
		slot := (n.cycle + d) & e.mask
		if len(e.flights[slot]) > 0 {
			return n.cycle + d
		}
		for s := range e.shards {
			if len(e.shards[s].wakes[slot]) > 0 {
				return n.cycle + d
			}
		}
	}
	return math.MaxInt64
}

// skipIdle jumps the clock over k cycles the caller proved empty via
// nextWorkCycle (see the event engine's skipIdle).
//
//drain:hotpath fast-forward entry, dispatched from Network.SkipIdle through the engine seam (dynamic calls are not followed)
func (e *parallelEngine) skipIdle(n *Network, k int64) {
	n.cycle += k
	n.noteCycles(k)
	if n.frozen {
		n.Counters.FrozenCyc += k
	}
}

// stop terminates the worker pool. Idempotent; subsequent Steps use the
// inline path, which remains byte-identical.
func (e *parallelEngine) stop() {
	e.quitOnce.Do(func() {
		e.stopped = true
		close(e.quit)
	})
}

// check validates the wheel, the per-shard activity structures and the
// staging buffers against a full scan (tests only; see the event
// engine's check for the invariant statements).
func (e *parallelEngine) check(n *Network) error {
	if err := e.checkFlights(n); err != nil {
		return err
	}
	for s := range e.shards {
		sh := &e.shards[s]
		for r := 0; r < len(e.shardOf); r++ {
			owned := r >= sh.lo && r < sh.hi
			if !owned && (sh.alloc.get(r) || sh.inj.get(r)) {
				return fmt.Errorf("noc: shard %d holds activity bit for router %d outside [%d,%d)", s, r, sh.lo, sh.hi)
			}
		}
		if !sh.alloc.sumConsistent() || !sh.inj.sumConsistent() {
			return fmt.Errorf("noc: shard %d activity bitset summary level disagrees with its words", s)
		}
		for d := range sh.upOut {
			if len(sh.upOut[d]) != 0 {
				return fmt.Errorf("noc: shard %d has %d unstaged upstream frees for shard %d between cycles", s, len(sh.upOut[d]), d)
			}
		}
		if sh.injDelta != 0 {
			return fmt.Errorf("noc: shard %d has unreduced injPending delta %d", s, sh.injDelta)
		}
	}
	if err := n.eachSlot(func(r, _, _ int, s *vcSlot) error {
		sh := &e.shards[e.shardOf[r]]
		return headArmed(n, r, s, &sh.alloc, sh.wakes, e.mask, e.maxOff)
	}); err != nil {
		return err
	}
	for r := 0; r < n.g.N(); r++ {
		if n.hasQueued(r) && !e.shards[e.shardOf[r]].inj.get(r) {
			return fmt.Errorf("noc: router %d has queued injections but injection bit clear", r)
		}
	}
	return nil
}
