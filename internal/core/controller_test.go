package core

import (
	"reflect"
	"testing"

	"drain/internal/noc"
	"drain/internal/topology"
)

func TestDrainWindowChargesFreeze(t *testing.T) {
	n := drainNet(t, topology.MustMesh(3, 3).Graph, 2, 10)
	c, err := New(n, Config{Epoch: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Drive exactly through the first drain: the network must be frozen
	// for pre-drain + drain window and then released.
	frozenSpan := 0
	for i := 0; i < 200; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if n.Frozen() {
			frozenSpan++
		}
		if c.Stats().Drains == 1 && !n.Frozen() {
			break
		}
	}
	if c.Stats().Drains != 1 {
		t.Fatalf("drains = %d, want 1", c.Stats().Drains)
	}
	// Pre-drain and a one-hop window, MaxFlits (5) cycles each.
	if frozenSpan != 10 || n.Counters.FrozenCyc != 10 {
		t.Errorf("frozen for %d cycles (%d counted), want 10", frozenSpan, n.Counters.FrozenCyc)
	}
	if n.Frozen() {
		t.Error("network left frozen after the window")
	}
}

// TestMultiHopDrainWindow: a window of DrainHops 3 forces its hops
// MaxFlits cycles apart, the first MaxFlits after the freeze, and thaws
// MaxFlits after the last.
func TestMultiHopDrainWindow(t *testing.T) {
	g := topology.MustMesh(3, 3).Graph
	n := drainNet(t, g, 2, 11)
	c, err := New(n, Config{Epoch: 100, DrainHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a packet in an escape buffer so the multi-hop drain has
	// something to move, and freeze the network so normal allocation
	// cannot deliver it before the window fires.
	p, err := n.PlacePacket(0, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFrozen(true)
	var frozeAt, thawAt int64
	var hops []int64
	for i := 0; i < 300 && thawAt == 0; i++ {
		n.Step()
		was, left := c.Draining(), c.left
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		switch {
		case !was && c.Draining():
			frozeAt = n.Cycle()
		case was && !c.Draining():
			thawAt = n.Cycle()
		case c.left != left && c.left >= 0:
			hops = append(hops, n.Cycle())
		}
	}
	if c.Stats().Drains != 1 {
		t.Fatal("no drain happened")
	}
	f := int64(n.Config().MaxFlits)
	want := []int64{frozeAt + f, frozeAt + 2*f, frozeAt + 3*f}
	if !reflect.DeepEqual(hops, want) || thawAt != frozeAt+4*f {
		t.Errorf("froze at %d, hops at %v, thawed at %d; want hops at %v and the thaw at %d", frozeAt, hops, thawAt, want, frozeAt+4*f)
	}
	// The packet moved up to 3 forced hops (fewer only if it ejected).
	if p.DrainHops == 0 && p.EjectedAt == 0 {
		t.Error("multi-hop drain moved nothing")
	}
	if st := c.Stats(); st.PacketsMoved == 0 && st.Ejections == 0 {
		t.Errorf("stats recorded no movement: %+v", st)
	}
}

// TestDrainStartsQuiesced: the pre-drain freeze is the largest packet's
// serialization, so every transfer granted before it lands before the
// first rotation, and none is granted before the later ones. 5-flit
// packets offered at every router every cycle keep transfers on the
// links whenever an epoch expires; at each forced hop none may be left,
// on both engines.
func TestDrainStartsQuiesced(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	for _, eng := range []noc.EngineKind{noc.EngineEvent, noc.EngineDense} {
		n := drainNet(t, g, 2, 12, func(c *noc.Config) { c.Engine = eng })
		c, err := New(n, Config{Epoch: 30})
		if err != nil {
			t.Fatal(err)
		}
		busyFreezes := 0
		for i := 0; i < 3000; i++ {
			for src := 0; src < g.N(); src++ {
				if dst := (src + 1 + i%(g.N()-1)) % g.N(); n.InjQueueLen(src, 0) < 2 {
					n.Inject(n.NewPacket(src, dst, 0, 5))
				}
			}
			n.Step()
			if c.frozen && n.Cycle() >= c.at && c.left != 0 && n.InflightCount() != 0 {
				t.Fatalf("engine %d, cycle %d: forced hop with %d transfers in flight", eng, n.Cycle(), n.InflightCount())
			}
			running := !c.frozen
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			if running && c.frozen && n.InflightCount() > 0 {
				busyFreezes++
			}
			for r := 0; r < g.N(); r++ {
				for n.PopEjected(r, 0) != nil {
				}
			}
		}
		if st := c.Stats(); st.Drains < 50 || busyFreezes*2 < int(st.Drains) {
			t.Errorf("engine %d: %d drains, %d freezes began with transfers in flight; want ≥ 50, at least half", eng, st.Drains, busyFreezes)
		}
	}
}

func TestPathSearchAlgorithmOnFaultyTopology(t *testing.T) {
	g, err := topology.MustMesh(4, 4).WithoutEdge(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := drainNet(t, g, 2, 13)
	c, err := New(n, Config{Algorithm: PathSearch})
	if err != nil {
		t.Fatal(err)
	}
	if c.Path().Len() != g.NumLinks() {
		t.Errorf("search path covers %d of %d links", c.Path().Len(), g.NumLinks())
	}
}

// TestNextWorkCycleTracksDrainSchedule pins the controller's next-work
// hint: while running it is the scheduled drain, during a freeze it is
// the window's next hop or thaw, at most MaxFlits cycles away, and it is
// never in the past.
func TestNextWorkCycleTracksDrainSchedule(t *testing.T) {
	n := drainNet(t, topology.MustMesh(3, 3).Graph, 2, 10)
	c, err := New(n, Config{Epoch: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NextWorkCycle(); got != 50 {
		t.Fatalf("fresh controller NextWorkCycle = %d, want first drain at 50", got)
	}
	sawFreeze := false
	for i := 0; i < 200; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		got := c.NextWorkCycle()
		if got <= n.Cycle() {
			t.Fatalf("cycle %d: NextWorkCycle = %d is not in the future", n.Cycle(), got)
		}
		if c.Draining() {
			sawFreeze = true
			if f := int64(n.Config().MaxFlits); got > n.Cycle()+f {
				t.Fatalf("cycle %d: frozen NextWorkCycle = %d, want at most %d", n.Cycle(), got, n.Cycle()+f)
			}
		}
		if c.Stats().Drains == 1 && !c.Draining() {
			// Back to running: the hint must be the next epoch boundary.
			if got != n.Cycle()+50 {
				t.Fatalf("post-drain NextWorkCycle = %d, want %d", got, n.Cycle()+50)
			}
			break
		}
	}
	if !sawFreeze {
		t.Fatal("drain window never opened")
	}
}

// TestReconfigureOntoFullGraphReinstallsConstructionPath pins the restore
// shortcut to the search it skips: after a failure, reconfiguring onto
// the network's own graph must leave the path and the turn-table a search
// over a rebuilt copy of that graph leaves, for both algorithms.
func TestReconfigureOntoFullGraphReinstallsConstructionPath(t *testing.T) {
	full := topology.MustMesh(4, 4).Graph
	faulted, err := full.WithoutEdge(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := faulted.WithEdge(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []PathAlgorithm{PathEulerian, PathSearch} {
		var ctl [2]*Controller
		for i, restored := range []*topology.Graph{full, rebuilt} {
			c, err := New(drainNet(t, full, 2, 13), Config{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*topology.Graph{faulted, restored} {
				if err := c.Reconfigure(g); err != nil {
					t.Fatal(err)
				}
			}
			ctl[i] = c
		}
		if !reflect.DeepEqual(ctl[0].next, ctl[1].next) || !reflect.DeepEqual(ctl[0].Path(), ctl[1].Path()) {
			t.Errorf("algorithm %d: reinstalled path differs from the one searched over a rebuilt graph", alg)
		}
		if ctl[0].Path() != ctl[0].full || ctl[1].Path() == ctl[1].full {
			t.Errorf("algorithm %d: only the network's own graph may take the shortcut", alg)
		}
	}
}
