package core

import (
	"testing"

	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
)

// drainNet builds a DRAIN-configured network: 1 VN, escape policy with an
// unrestricted escape VC, fully adaptive routing.
func drainNet(t *testing.T, g *topology.Graph, vcs int, seed uint64, mutate ...func(*noc.Config)) *noc.Network {
	t.Helper()
	cfg := noc.Config{
		Graph:         g,
		VNets:         1,
		VCsPerVN:      vcs,
		Classes:       1,
		PolicyEscape:  true,
		Routing:       routing.AdaptiveMinimal,
		EscapeRouting: routing.AdaptiveMinimal,
		DerouteAfter:  -1, // strict minimal: drains alone must resolve deadlocks
		Seed:          seed,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestControllerDefaults(t *testing.T) {
	n := drainNet(t, topology.MustMesh(3, 3).Graph, 2, 1)
	c, err := New(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.Epoch != 64*1024 {
		t.Errorf("epoch = %d, want 64K", cfg.Epoch)
	}
	if cfg.DrainHops != 1 || cfg.FullDrainEvery != 1024 {
		t.Error("unexpected defaults")
	}
}

func TestBothPathAlgorithms(t *testing.T) {
	g := topology.MustMesh(3, 3).Graph
	for _, alg := range []PathAlgorithm{PathEulerian, PathSearch} {
		n := drainNet(t, g, 2, 2)
		c, err := New(n, Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if c.Path().Len() != g.NumLinks() {
			t.Fatalf("alg %d: path misses links", alg)
		}
	}
	n := drainNet(t, g, 2, 2)
	if _, err := New(n, Config{Algorithm: PathAlgorithm(99)}); err == nil {
		t.Error("bad algorithm should fail")
	}
}

func TestEpochScheduling(t *testing.T) {
	n := drainNet(t, topology.MustMesh(3, 3).Graph, 2, 3)
	c, err := New(n, Config{Epoch: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 cycles / (100 epoch + ~10 window) ≈ 9 drains.
	st := c.Stats()
	if st.Drains < 7 || st.Drains > 10 {
		t.Errorf("drains = %d, want ≈9", st.Drains)
	}
	if n.Counters.FrozenCyc == 0 {
		t.Error("no frozen cycles recorded")
	}
	if n.Frozen() && c.Draining() == false {
		t.Error("network left frozen outside a drain")
	}
}

func TestFullDrainScheduling(t *testing.T) {
	n := drainNet(t, topology.MustMesh(2, 2).Graph, 2, 4)
	c, err := New(n, Config{Epoch: 50, FullDrainEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Drains < 6 {
		t.Fatalf("too few drains: %d", st.Drains)
	}
	wantFull := st.Drains / 3
	if st.FullDrains < wantFull-1 || st.FullDrains > wantFull+1 {
		t.Errorf("full drains = %d, want ≈%d of %d", st.FullDrains, wantFull, st.Drains)
	}
}

// TestFullDrainEjectsEverything: a full drain empties the network (paper
// §III-C2 "Full Drain"), checked on the loop production runs. A planted
// ring deadlock — every clockwise buffer full, each packet waiting for
// the next — sits still until the first drain window; with
// FullDrainEvery 1 that window rotates the whole path, one hop per
// MaxFlits cycles, so by its end every packet has passed its destination
// and been ejected, and the forced hops are accounted as VN activity.
func TestFullDrainEjectsEverything(t *testing.T) {
	const ring = 6
	g, err := topology.NewRing(ring)
	if err != nil {
		t.Fatal(err)
	}
	n := drainNet(t, g, 1, 3)
	for r := 0; r < ring; r++ {
		// Two hops beyond the buffer's router.
		if _, err := n.PlacePacket(r, (r+1)%ring, (r+3)%ring, 0); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(n, Config{Epoch: 50, FullDrainEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c.Stats().Drains == 0 || c.Draining() {
		if n.Cycle() > 200 {
			t.Fatal("no drain window ended within four epochs")
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Drains == 0 && n.OccupiedVCs() != ring {
			t.Fatalf("cycle %d: %d VCs occupied before the drain, want the %d deadlocked ones", n.Cycle(), n.OccupiedVCs(), ring)
		}
	}
	if st := c.Stats(); st.FullDrains != 1 || st.Ejections != ring {
		t.Errorf("first window: %d full drains ejecting %d packets, want 1 and %d", st.FullDrains, st.Ejections, ring)
	}
	if n.OccupiedVCs() != 0 {
		t.Errorf("%d VCs still occupied after the full drain", n.OccupiedVCs())
	}
	for vn, flits := range n.Counters.VNFlits {
		if flits == 0 {
			t.Errorf("drain moves not accounted in VN %d activity", vn)
		}
	}
}

// TestDrainResolvesSaturationDeadlock is the core end-to-end property:
// an unprotected adaptive network that deadlocks under saturation makes
// continuous forward progress once the DRAIN controller runs.
func TestDrainResolvesSaturationDeadlock(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	n := drainNet(t, g, 1, 5) // single VC: maximally deadlock-prone
	c, err := New(n, Config{Epoch: 200})
	if err != nil {
		t.Fatal(err)
	}
	dst := func(cyc, r int) int {
		d := (r*7 + cyc*13 + 5) % 16
		if d == r {
			d = (d + 1) % 16
		}
		return d
	}
	const horizon = 30000
	created, delivered := 0, 0
	lastDelivered, lastProgress := 0, 0
	for cyc := 0; cyc < horizon; cyc++ {
		for r := 0; r < 16; r++ {
			if n.CanInject(r, 0) && n.InjQueueLen(r, 0) < 4 {
				if n.Inject(n.NewPacket(r, dst(cyc, r), 0, 1)) {
					created++
				}
			}
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 16; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				delivered++
			}
		}
		if delivered > lastDelivered {
			lastDelivered, lastProgress = delivered, cyc
		}
		if cyc-lastProgress > 5000 {
			t.Fatalf("no delivery progress for 5000 cycles at cycle %d (delivered %d/%d)", cyc, delivered, created)
		}
	}
	if delivered < created/2 {
		t.Errorf("delivered only %d of %d packets", delivered, created)
	}
	if c.Stats().Drains == 0 {
		t.Error("controller never drained")
	}
}

// TestDrainResolvesDeadlockOnFaultyTopology exercises the paper's
// headline use case: irregular faulty topologies with fully adaptive
// routing.
func TestDrainResolvesDeadlockOnFaultyTopology(t *testing.T) {
	base := topology.MustMesh(4, 4).Graph
	g := base
	// Remove two specific edges to make the topology irregular.
	for _, e := range [][2]int{{5, 6}, {9, 13}} {
		var err error
		g, err = g.WithoutEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
	}
	n := drainNet(t, g, 1, 6)
	c, err := New(n, Config{Epoch: 300})
	if err != nil {
		t.Fatal(err)
	}
	created, delivered := 0, 0
	for cyc := 0; cyc < 20000; cyc++ {
		for r := 0; r < 16; r++ {
			d := (r*11 + cyc*3 + 7) % 16
			if d != r && n.InjQueueLen(r, 0) < 2 {
				if n.Inject(n.NewPacket(r, d, 0, 1)) {
					created++
				}
			}
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 16; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				delivered++
			}
		}
	}
	if delivered == 0 || delivered < created/2 {
		t.Errorf("delivered %d of %d on faulty topology", delivered, created)
	}
}

// TestDrainPreservesPackets: no packet is ever lost or duplicated across
// many drain windows under load.
func TestDrainPreservesPackets(t *testing.T) {
	g := topology.MustMesh(3, 3).Graph
	n := drainNet(t, g, 2, 8)
	c, err := New(n, Config{Epoch: 64}) // aggressive draining
	if err != nil {
		t.Fatal(err)
	}
	created, delivered := 0, 0
	seen := map[int64]bool{}
	for cyc := 0; cyc < 8000; cyc++ {
		if created < 500 {
			r := cyc % 9
			d := (cyc*5 + 3) % 9
			if d != r && n.Inject(n.NewPacket(r, d, 0, 5)) {
				created++
			}
		}
		n.Step()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 9; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				if seen[p.ID] {
					t.Fatalf("packet %d delivered twice", p.ID)
				}
				seen[p.ID] = true
				if p.Dst != r {
					t.Fatalf("packet %d misdelivered to %d (dst %d)", p.ID, r, p.Dst)
				}
				delivered++
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if delivered != created {
		t.Errorf("delivered %d of %d with aggressive drains (in flight: %d)",
			delivered, created, n.InFlightPackets())
	}
}
