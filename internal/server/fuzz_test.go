package server

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"drain/internal/sim"
)

// spelledOut is the request that names every default of c explicitly:
// what a client gets by reading the canonical form back.
func spelledOut(c canonical) Request {
	if c.Kind == KindFigure {
		return Request{Kind: c.Kind, Fig: c.Fig, Scale: c.Scale, Seed: c.Seed, RNGMode: "exact"}
	}
	p := c.Params
	return Request{
		Kind: c.Kind, Seed: p.Seed, Scheme: p.Scheme.String(),
		Width: p.Width, Height: p.Height, Faults: p.Faults, FaultSeed: p.FaultSeed,
		VNets: p.VNets, VCsPerVN: p.VCsPerVN, Epoch: p.Epoch,
		Pattern: c.Pattern, Rates: c.Rates, Warmup: c.Warmup, Measure: c.Measure,
		FaultSchedule: p.FaultSchedule, RNGMode: "exact",
	}
}

// FuzzCanonicalize feeds raw bodies through the handler's decode and
// canonicalization. Nothing may panic. An accepted request, re-marshalled
// from its struct and again with every default spelled out, must be
// accepted under the same key; the spelled-out form is a fixed point; and
// sim.Build must take what canonicalization admitted (schedule-free
// sweeps of up to 64 routers), so a validated request cannot end as a 500.
func FuzzCanonicalize(f *testing.F) {
	seeds := append([]string{keyLiteralBody}, append(badDecode, badCanonical...)...)
	for _, bodies := range requestFieldCases {
		seeds = append(seeds, bodies...)
	}
	sort.Strings(seeds) // a stable seed numbering
	for _, body := range seeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		c, err := req.Canonicalize()
		if err != nil {
			return
		}
		for i, again := range []Request{req, spelledOut(c)} {
			data, _ := json.Marshal(again)
			back, err := decodeRequest(bytes.NewReader(data))
			c2, err2 := back.Canonicalize()
			if err != nil || err2 != nil || c2.Key() != c.Key() {
				t.Fatalf("%s, re-encoded from an accepted request: decode %v, canonicalize %v, key %s -> %s", data, err, err2, c.Key(), c2.Key())
			}
			if data2, _ := json.Marshal(spelledOut(c2)); i == 1 && !bytes.Equal(data2, data) {
				t.Fatalf("the spelled-out form is not a fixed point: %s -> %s", data, data2)
			}
		}
		if c.Kind == KindSweep && len(c.Params.FaultSchedule) == 0 && c.Params.Width*c.Params.Height <= 64 {
			if _, err := sim.Build(c.Params); err != nil {
				t.Fatalf("accepted request %s does not build: %v", body, err)
			}
		}
	})
}
