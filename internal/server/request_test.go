package server

import (
	"encoding/json"
	"testing"
)

// keyOf decodes a JSON request body and returns its cache key.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
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

// The key of a fixed sweep request, as computed before the "shards"
// request field was removed (it never entered the encoding): entries
// cached by an older server still answer.
func TestKeyLiteral(t *testing.T) {
	const want = "05d87f06221b93a23763c43c5ffc2860ba5a088173d8b1028d16dd3c81631592"
	if got := keyOf(t, `{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4}`); got != want {
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

// Any semantically different request must miss: each axis change below
// must produce a distinct key.
func TestKeySemanticChangesDiffer(t *testing.T) {
	base := `{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4}`
	variants := []string{
		base,
		`{"kind":"sweep","scheme":"escape","width":8,"height":8,"faults":4}`,
		`{"kind":"sweep","scheme":"drain","width":10,"height":8,"faults":4}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":5}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"fault_seed":2}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"seed":2}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"pattern":"transpose"}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"rates":[0.05]}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"measure":8000}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"epoch":1024}`,
		`{"fig":"fig6"}`,
		`{"fig":"fig6","scale":"full"}`,
		`{"fig":"fig6","seed":2}`,
	}
	seen := make(map[string]string, len(variants))
	for _, v := range variants {
		k := keyOf(t, v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

func TestCanonicalizeRejectsBadRequests(t *testing.T) {
	bad := []string{
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
		`{"kind":"sweep","rng_mode":"fast"}`,                          // unknown rng mode
		`{"kind":"sweep","rng_mode":"counter"}`,                       // removed rng mode: rejected, never a silent exact run
		`{"fig":"fig6","rng_mode":"counter"}`,                         // removed rng mode (figure)
		`{"kind":"sweep","scheme":"dor","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true}]}`,                        // DoR needs a fault-free mesh
		`{"kind":"sweep","fault_schedule":[{"cycle":-1,"a":1,"b":2,"fail":true}]}`,                                       // negative cycle
		`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":3,"fail":true}]}`,                                       // no such mesh link
		`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":false}]}`,                                      // recovering an up link
		`{"kind":"sweep","fault_schedule":[{"cycle":20,"a":1,"b":2,"fail":true},{"cycle":10,"a":5,"b":6,"fail":true}]}`,  // unsorted
		`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true},{"cycle":10,"a":2,"b":1,"fail":false}]}`, // duplicate link event
	}
	for _, body := range bad {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
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
