package noc

import (
	"testing"

	"drain/internal/routing"
	"drain/internal/topology"
)

func TestEngineKindString(t *testing.T) {
	if got := EngineEvent.String(); got != "event" {
		t.Errorf("EngineEvent.String() = %q", got)
	}
	if got := EngineDense.String(); got != "dense" {
		t.Errorf("EngineDense.String() = %q", got)
	}
}

func TestEventWheelSizing(t *testing.T) {
	g, err := topology.NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		maxFlits, routerLatency int
		wantSize                int64
	}{
		{1, 1, 2},
		{5, 1, 8},
		{8, 1, 16}, // power-of-two offset still needs a strictly larger wheel
		{5, 9, 16},
		{16, 4, 32},
	}
	for _, c := range cases {
		cfg := Config{Graph: g, MaxFlits: c.maxFlits, RouterLatency: c.routerLatency}
		e := newEventEngine(&cfg)
		maxOff := int64(c.maxFlits)
		if int64(c.routerLatency) > maxOff {
			maxOff = int64(c.routerLatency)
		}
		if e.size != c.wantSize || e.mask != c.wantSize-1 || e.maxOff != maxOff {
			t.Errorf("maxFlits=%d latency=%d: size=%d mask=%d maxOff=%d, want size=%d",
				c.maxFlits, c.routerLatency, e.size, e.mask, e.maxOff, c.wantSize)
		}
		if e.size&(e.size-1) != 0 || e.size <= maxOff {
			t.Errorf("wheel size %d is not a power of two strictly above offset %d", e.size, maxOff)
		}
	}
}

func newTestNet(t *testing.T, kind EngineKind) *Network {
	t.Helper()
	g, err := topology.NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Graph: g, VNets: 1, VCsPerVN: 2, Classes: 1,
		Routing: routing.AdaptiveMinimal,
		Seed:    1,
		Engine:  kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestInjPendingCount pins the incremental non-empty-injection-queue
// count that lets injectFromQueues skip whole cycles: it must rise as
// queues go non-empty, fall as they drain, and always agree with the
// recount in CheckInvariants.
func TestInjPendingCount(t *testing.T) {
	n := newTestNet(t, EngineEvent)
	if n.injPending != 0 {
		t.Fatalf("fresh network injPending = %d", n.injPending)
	}
	// Three packets at router 0 make ONE non-empty queue; one more at
	// router 1 makes two.
	for i := 0; i < 3; i++ {
		if !n.Inject(n.NewPacket(0, 2, 0, 1)) {
			t.Fatal("inject refused")
		}
	}
	if n.injPending != 1 {
		t.Fatalf("injPending = %d after 3 injections at one router, want 1", n.injPending)
	}
	if !n.Inject(n.NewPacket(1, 3, 0, 1)) {
		t.Fatal("inject refused")
	}
	if n.injPending != 2 {
		t.Fatalf("injPending = %d with two routers queued, want 2", n.injPending)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && n.injPending > 0; i++ {
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if n.injPending != 0 {
		t.Fatalf("injPending = %d after draining, want 0", n.injPending)
	}
}
