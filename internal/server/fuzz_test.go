package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
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
	addRequestSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		c, err := req.Canonicalize()
		if err != nil {
			return
		}
		for i, again := range []Request{req, spelledOut(c)} {
			data, _ := json.Marshal(again)
			back, err := decodeRequest(data)
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

// addRequestSeeds seeds f with every request body the tests name,
// accepted and rejected.
func addRequestSeeds(f *testing.F) {
	seeds := append([]string{keyLiteralBody}, append(badDecode, badCanonical...)...)
	for _, bodies := range requestFieldCases {
		seeds = append(seeds, bodies...)
	}
	sort.Strings(seeds) // a stable seed numbering
	for _, body := range seeds {
		f.Add([]byte(body))
	}
}

// FuzzRepeatedBody posts each body twice through the handler. Before an
// accepted body is posted, marker bytes are cached under its canonical
// key, so no simulation runs: both posts must be hits answering the
// marker, and the body (if within the size limit) must be the one body
// remembered. A rejected body must get the same 4xx both times and leave
// nothing remembered.
func FuzzRepeatedBody(f *testing.F) {
	addRequestSeeds(f)
	marker := []byte("marker")
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{CacheEntries: 1}) // one key at most: a small cache keeps each run cheap
		accepted := false
		if req, err := decodeRequest(body); err == nil {
			if c, err := req.Canonicalize(); err == nil {
				s.cache.Put(c.Key(), marker)
				accepted = true
			}
		}
		h := s.Handler()
		first := serve(h, body)
		second := serve(h, body)
		for i, rec := range []*httptest.ResponseRecorder{first, second} {
			if accepted {
				wantHit(t, fmt.Sprintf("accepted %q, post %d", body, i+1), rec, marker)
			} else if rec.Code < 400 || rec.Code >= 500 || rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("rejected %q, post %d: status %d %q; first post %d %q", body, i+1, rec.Code, rec.Body.Bytes(), first.Code, first.Body.Bytes())
			}
		}
		want := 0
		if accepted && len(body) <= rememberBodyBytes {
			want = 1
		}
		if n := s.cache.remembered(); n != want {
			t.Fatalf("%q (accepted %v): %d bodies remembered, want %d", body, accepted, n, want)
		}
		if hits, misses := s.cache.Hits(), s.cache.Misses(); accepted && (hits != 2 || misses != 0) || !accepted && hits+misses != 0 {
			t.Fatalf("%q (accepted %v): hits=%d misses=%d", body, accepted, hits, misses)
		}
	})
}
