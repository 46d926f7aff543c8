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
		maxFlits int
		wantSize int64
	}{
		{1, 2},
		{5, 8},
		{8, 16}, // power-of-two offset still needs a strictly larger wheel
		{16, 32},
	}
	for _, c := range cases {
		cfg := Config{Graph: g, MaxFlits: c.maxFlits}
		e := newEventEngine(&cfg)
		maxOff := int64(c.maxFlits)
		if e.size != c.wantSize || e.mask != c.wantSize-1 || e.maxOff != maxOff {
			t.Errorf("maxFlits=%d: size=%d mask=%d maxOff=%d, want size=%d",
				c.maxFlits, e.size, e.mask, e.maxOff, c.wantSize)
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

// TestInjectBitTracksQueues pins the event engine's injection set, the
// only record of which routers have queued packets: a router's bit rises
// as one of its queues goes non-empty and falls at the visit that empties
// them, and CheckInvariants agrees at every step.
func TestInjectBitTracksQueues(t *testing.T) {
	n := newTestNet(t, EngineEvent)
	inj := &n.eng.(*eventEngine).inj
	for i := 0; i < 3; i++ {
		if !n.Inject(n.NewPacket(0, 2, 0, 1)) {
			t.Fatal("inject refused")
		}
	}
	if !n.Inject(n.NewPacket(1, 3, 0, 1)) {
		t.Fatal("inject refused")
	}
	if !inj.get(0) || !inj.get(1) || inj.get(2) || inj.get(3) {
		t.Fatalf("injection set %b after injections at routers 0 and 1", inj.words[0])
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && (n.hasQueued(0) || n.hasQueued(1)); i++ {
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if n.hasQueued(0) || n.hasQueued(1) || inj.words[0] != 0 {
		t.Fatalf("injection set %b with queues at 0: %v, at 1: %v", inj.words[0], n.hasQueued(0), n.hasQueued(1))
	}
}
