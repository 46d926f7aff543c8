package server

import (
	"reflect"
	"strings"
	"testing"

	"drain/internal/sim"
)

// keyOf decodes a JSON request body and returns its cache key.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	req, err := decodeRequest([]byte(body))
	if err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	c, err := req.Canonicalize()
	if err != nil {
		t.Fatalf("canonicalize %q: %v", body, err)
	}
	return c.Key()
}

// Two JSON bodies naming the same simulation must hash to the same key
// regardless of field order.
func TestKeyIgnoresFieldOrder(t *testing.T) {
	a := keyOf(t, `{"kind":"sweep","scheme":"drain","width":8,"faults":4,"rates":[0.02,0.1]}`)
	b := keyOf(t, `{"rates":[0.02,0.1],"faults":4,"width":8,"scheme":"drain","kind":"sweep"}`)
	if a != b {
		t.Fatalf("field order changed key: %s vs %s", a, b)
	}
}

// A request relying on defaults and one spelling every default out must
// cache as the same entry.
func TestKeyDefaultsExplicitIdentical(t *testing.T) {
	figDefault := keyOf(t, `{"fig":"fig6"}`)
	figExplicit := keyOf(t, `{"kind":"figure","fig":"fig6","scale":"quick","seed":1}`)
	if figDefault != figExplicit {
		t.Fatalf("figure default vs explicit keys differ: %s vs %s", figDefault, figExplicit)
	}

	swDefault := keyOf(t, `{"kind":"sweep"}`)
	swExplicit := keyOf(t, `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"faults":0,"fault_seed":1,"vnets":1,"vcs_per_vn":2,"epoch":65536,"seed":1,
		"pattern":"uniform","rates":[0.02,0.10],"warmup":1000,"measure":4000}`)
	if swDefault != swExplicit {
		t.Fatalf("sweep default vs explicit keys differ: %s vs %s", swDefault, swExplicit)
	}
}

const keyLiteralBody = `{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4}`

// The key of a fixed sweep request, as computed before the "shards"
// request field was removed (it never entered the encoding): entries
// cached by an older server still answer.
func TestKeyLiteral(t *testing.T) {
	const want = "05d87f06221b93a23763c43c5ffc2860ba5a088173d8b1028d16dd3c81631592"
	if got := keyOf(t, keyLiteralBody); got != want {
		t.Fatalf("cache key moved: got %s, want %s", got, want)
	}
}

// A fault schedule changes what the sweep computes, so it MUST be part
// of the cache key: adding one, moving an event, or flipping its
// direction each produce a distinct key.
func TestKeyIncludesFaultSchedule(t *testing.T) {
	base := `{"kind":"sweep","scheme":"drain","width":8,"height":8}`
	oneFault := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true}]}`
	laterFault := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":2000,"a":1,"b":2,"fail":true}]}`
	withRecover := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true},{"cycle":2000,"a":1,"b":2,"fail":false}]}`
	keys := map[string]string{}
	for _, body := range []string{base, oneFault, laterFault, withRecover} {
		k := keyOf(t, body)
		if prev, dup := keys[k]; dup {
			t.Fatalf("fault schedule not in cache key: %s and %s collide", prev, body)
		}
		keys[k] = body
	}
}

// An explicit "rng_mode":"exact" is the default spelled out: same key
// as omitting it, for a sweep and a figure alike (cmd/drainbench's
// serve_warm re-encodings send it and must stay cache hits).
func TestKeyIgnoresExplicitExactRNGMode(t *testing.T) {
	for _, pair := range [][2]string{
		{`{"kind":"sweep","scheme":"drain","width":8,"height":8}`, `{"kind":"sweep","scheme":"drain","width":8,"height":8,"rng_mode":"exact"}`},
		{`{"fig":"fig6"}`, `{"fig":"fig6","rng_mode":"exact"}`},
	} {
		if a, b := keyOf(t, pair[0]), keyOf(t, pair[1]); a != b {
			t.Errorf("explicit exact mode changed the cache key: %s -> %s, %s -> %s", pair[0], a, pair[1], b)
		}
	}
}

// keyExempt names, with the reason, every field of the cache-key structs
// that is NOT serialized into the key's preimage. A field changes what a
// run computes (serialize it) or only how fast (list it here).
var keyExempt = map[string]string{
	"sim.Params.RoutingTable": "a prebuilt table memoizes the pure routing function of the (already-keyed) topology parameters; reusing one cannot change results",
}

// TestKeyStructsFullyClassified: every field of canonical and sim.Params
// is in the key's JSON preimage or in keyExempt, never both, never
// neither. A `json:"-"` or unexported field added to sim.Params without
// deciding its cache-key fate fails here.
func TestKeyStructsFullyClassified(t *testing.T) {
	exempted := 0
	for _, typ := range []reflect.Type{reflect.TypeOf(canonical{}), reflect.TypeOf(sim.Params{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := typ.String() + "." + f.Name
			serialized := f.IsExported() && f.Tag.Get("json") != "-"
			reason, exempt := keyExempt[name]
			switch {
			case serialized && exempt:
				t.Errorf("%s is in keyExempt but IS serialized into the key (stale entry)", name)
			case !serialized && !exempt:
				t.Errorf("%s is left out of the cache key without a keyExempt entry: serialize it if it changes results, list it with the reason if it only changes speed", name)
			case exempt && reason == "":
				t.Errorf("keyExempt[%q] has no reason", name)
			case exempt:
				exempted++
			}
		}
	}
	if exempted != len(keyExempt) {
		t.Errorf("keyExempt has %d entries, %d of them unserialized fields of the key structs: drop the stale ones", len(keyExempt), exempted)
	}
}

// requestFieldCases holds, per Request field (by JSON name), bodies that
// set it to a valid non-default value. Each must be accepted and must
// move the key: a field canonicalization validates and then drops would
// let two different simulations share a cache entry.
var requestFieldCases = map[string][]string{
	// An explicit kind differs from the implied one only when "fig" rides
	// on a sweep (where it is ignored).
	"kind":           {`{"kind":"sweep","fig":"fig6"}`},
	"fig":            {`{"fig":"fig6"}`},
	"scale":          {`{"fig":"fig6","scale":"full"}`},
	"seed":           {`{"fig":"fig6","seed":2}`, `{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"seed":2}`},
	"scheme":         {`{"kind":"sweep","scheme":"escape","width":8,"height":8,"faults":4}`},
	"width":          {`{"kind":"sweep","scheme":"drain","width":10,"height":8,"faults":4}`},
	"height":         {`{"kind":"sweep","scheme":"drain","width":8,"height":10,"faults":4}`},
	"faults":         {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":5}`},
	"fault_seed":     {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"fault_seed":2}`},
	"vnets":          {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"vnets":2}`},
	"vcs_per_vn":     {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"vcs_per_vn":3}`},
	"epoch":          {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"epoch":1024}`},
	"pattern":        {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"pattern":"transpose"}`},
	"rates":          {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"rates":[0.05]}`},
	"warmup":         {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"warmup":500}`},
	"measure":        {`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"measure":8000}`},
	"fault_schedule": {`{"kind":"sweep","width":8,"height":8,"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true}]}`},
}

// noEffectField is the one field that is validated and then changes
// nothing, the key included (TestKeyIgnoresExplicitExactRNGMode).
const noEffectField = "rng_mode"

// TestEveryRequestFieldReachesTheKey enumerates Request's fields by
// reflection. Every field but noEffectField needs a case (a new field
// without one fails); every case must be accepted and, with that one
// field cleared, hash to a different key; no two cases may collide.
func TestEveryRequestFieldReachesTheKey(t *testing.T) {
	typ := reflect.TypeOf(Request{})
	byKey := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if len(requestFieldCases[name]) == 0 && name != noEffectField {
			t.Errorf("Request.%s (%q) has no case in requestFieldCases: show that it reaches the key", typ.Field(i).Name, name)
		}
		for _, body := range requestFieldCases[name] {
			req, err := decodeRequest([]byte(body))
			if err != nil || reflect.ValueOf(req).Field(i).IsZero() {
				t.Errorf("%s: case %s does not decode (%v) or does not set the field", name, body, err)
				continue
			}
			cleared := req
			reflect.ValueOf(&cleared).Elem().Field(i).SetZero()
			with, err1 := req.Canonicalize()
			without, err2 := cleared.Canonicalize()
			if err1 != nil || err2 != nil || with.Key() == without.Key() {
				t.Errorf("%s: case %s is rejected (%v; without the field: %v) or does not move the key", name, body, err1, err2)
				continue
			}
			if prev, dup := byKey[with.Key()]; dup {
				t.Errorf("key collision between %s and %s", prev, body)
			}
			byKey[with.Key()] = body
		}
	}
}

// badCanonical are bodies that decode and that canonicalization must
// refuse: the service answers them 400 with the reason.
var badCanonical = []string{
	`{"kind":"mystery"}`,
	`{"kind":"figure"}`,                                           // no fig
	`{"fig":"fig999"}`,                                            // unknown figure
	`{"fig":"fig6","scale":"huge"}`,                               // unknown scale
	`{"kind":"sweep","scheme":"teleport"}`,                        // unknown scheme
	`{"kind":"sweep","width":1000}`,                               // mesh too large
	`{"kind":"sweep","faults":-1}`,                                // negative faults
	`{"kind":"sweep","pattern":"nope"}`,                           // unknown pattern
	`{"kind":"sweep","rates":[2.0]}`,                              // rate out of range
	`{"kind":"sweep","rates":[0.0]}`,                              // rate out of range
	`{"kind":"sweep","warmup":-1}`,                                // negative warmup
	`{"kind":"sweep","vnets":33}`,                                 // 33 x 2 VCs per port: over the 64 a port holds
	`{"kind":"sweep","vnets":3037000500,"vcs_per_vn":3037000500}`, // product overflows
	`{"kind":"sweep","width":1,"height":1}`,                       // one router, no links
	`{"kind":"sweep","width":2,"height":2,"faults":3}`,            // a connected 2x2 mesh can lose 1 of its 4 links
	`{"kind":"sweep","faults":50}`,                                // 8x8: 112 links, 63 needed
	`{"kind":"sweep","scheme":"dor","faults":1}`,                  // DoR needs a fault-free mesh
	`{"kind":"sweep","rng_mode":"fast"}`,                          // unknown rng mode
	`{"kind":"sweep","rng_mode":"counter"}`,                       // removed rng mode: rejected, never a silent exact run
	`{"fig":"fig6","rng_mode":"counter"}`,                         // removed rng mode (figure)
	`{"kind":"sweep","scheme":"dor","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true}]}`,                        // DoR needs a fault-free mesh
	`{"kind":"sweep","fault_schedule":[{"cycle":-1,"a":1,"b":2,"fail":true}]}`,                                       // negative cycle
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":3,"fail":true}]}`,                                       // no such mesh link
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":false}]}`,                                      // recovering an up link
	`{"kind":"sweep","width":4,"height":4,"fault_schedule":[{"cycle":100,"a":0,"b":5,"fail":false}]}`,                // recovering a link the mesh never had
	`{"kind":"sweep","fault_schedule":[{"cycle":20,"a":1,"b":2,"fail":true},{"cycle":10,"a":5,"b":6,"fail":true}]}`,  // unsorted
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true},{"cycle":10,"a":2,"b":1,"fail":false}]}`, // duplicate link event
}

func TestCanonicalizeRejectsBadRequests(t *testing.T) {
	for _, body := range badCanonical {
		req, err := decodeRequest([]byte(body))
		if err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		if _, err := req.Canonicalize(); err == nil {
			t.Errorf("Canonicalize(%s) accepted a bad request", body)
		}
	}

	// A rates slice over the limit.
	long := Request{Kind: KindSweep, Rates: make([]float64, maxRates+1)}
	for i := range long.Rates {
		long.Rates[i] = 0.01
	}
	if _, err := long.Canonicalize(); err == nil {
		t.Errorf("Canonicalize accepted %d rates", len(long.Rates))
	}
}
