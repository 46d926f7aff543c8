package noc

import "fmt"

// PlacePacket installs a fresh packet directly into the VC buffer that
// link from→to feeds, bypassing injection. It exists for tests, demos
// and the paper's Fig. 8 walk-through, which need exact packet
// placements to reconstruct published deadlock scenarios.
func (n *Network) PlacePacket(from, to, dst, slot int) (*Packet, error) {
	l, ok := n.g.LinkID(from, to)
	if !ok {
		return nil, fmt.Errorf("noc: no link %d->%d", from, to)
	}
	if slot < 0 || slot >= n.vcPerPort {
		return nil, fmt.Errorf("noc: slot %d out of range [0,%d)", slot, n.vcPerPort)
	}
	if n.ports[l].free>>uint(slot)&1 == 0 {
		return nil, fmt.Errorf("noc: slot %d of link %d->%d is occupied", slot, from, to)
	}
	p := n.NewPacket(from, dst, slot/n.cfg.VCsPerVN, 1)
	n.seat(p, to, l, slot, 0)
	return p, nil
}
