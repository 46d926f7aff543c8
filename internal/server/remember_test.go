package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// serve posts body to h through a recorder.
func serve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// isRemembered reports whether request body req finds an entry through
// Lookup's map, without counting anything.
func (c *resultCache) isRemembered(req string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.bodies[req]
	return ok
}

// remembered returns the number of remembered request bodies.
func (c *resultCache) remembered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// checkBodies reports whether the remembered bodies and the entries
// agree: every body an entry lists finds that entry, and no other body is
// remembered.
func (c *resultCache) checkBodies() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, el := range c.m {
		for _, req := range el.Value.(*cacheEntry).bodies {
			if c.bodies[req] != el {
				return fmt.Errorf("body %q of entry %.12s finds another entry", req, key)
			}
			n++
		}
	}
	if n != len(c.bodies) {
		return fmt.Errorf("%d bodies remembered, the entries list %d", len(c.bodies), n)
	}
	return nil
}

// primed returns a server whose cache holds marker under the key of
// body, so a request for it is a hit and no simulation runs.
func primed(t *testing.T, cfg Config, body string, marker []byte) *Server {
	t.Helper()
	s := New(cfg)
	s.cache.Put(keyOf(t, body), marker)
	return s
}

// wantHit checks rec is a cache hit answering marker.
func wantHit(t *testing.T, what string, rec *httptest.ResponseRecorder, marker []byte) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), marker) {
		t.Fatalf("%s: status %d X-Cache %q body %q, want 200 hit %q", what, rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes(), marker)
	}
}

// A remembered body is served from its entry, and the cache evicts the
// bodies with the entry: on a 1-entry cache, putting a second key leaves
// the first key's bodies unreachable and deleted.
func TestRememberedBodiesEvictedWithEntry(t *testing.T) {
	c := newResultCache(1)
	c.Put("a", []byte("A"))
	c.Remember("a", []byte("req-a"))
	c.Remember("a", []byte("req-a2"))
	c.Remember("b", []byte("req-b")) // no entry: not remembered
	if got, ok := c.Lookup([]byte("req-a2")); !ok || string(got) != "A" {
		t.Fatalf("Lookup(req-a2) = %q, %v; want A", got, ok)
	}
	if n := c.remembered(); n != 2 {
		t.Fatalf("%d bodies remembered, want 2", n)
	}
	c.Put("b", []byte("B"))
	if _, ok := c.Lookup([]byte("req-a")); ok {
		t.Fatal("a body of the evicted entry still finds it")
	}
	if n := c.remembered(); n != 0 {
		t.Fatalf("%d bodies remembered after evicting their entry, want 0", n)
	}
	if err := c.checkBodies(); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Hits(), c.Misses(); h != 1 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0: a failed Lookup counts nothing", h, m)
	}
}

// A body that spells a key is looked up among bodies only.
func TestBodyNeverAliasesKey(t *testing.T) {
	c := newResultCache(2)
	key := keyOf(t, `{"fig":"fig6"}`)
	c.Put(key, []byte("fig6"))
	if _, ok := c.Lookup([]byte(key)); ok {
		t.Fatal("a body spelling a cached key found its entry")
	}
}

// Through the handler: the ninth distinct body for one key, and a body
// over the size limit, are still answered, through the decode path, and
// never remembered; a remembered body is answered again.
func TestRememberLimits(t *testing.T) {
	marker, marker9 := []byte("fig6 marker"), []byte("fig9 marker")
	s := primed(t, Config{}, `{"fig":"fig6"}`, marker)
	s.cache.Put(keyOf(t, `{"fig":"fig9"}`), marker9)
	h := s.Handler()
	var bodies []string
	for i := 0; i <= rememberBodies; i++ {
		bodies = append(bodies, `{"fig":"fig6"`+strings.Repeat(" ", i)+`}`)
	}
	for _, body := range bodies {
		for i := 0; i < 2; i++ {
			wantHit(t, fmt.Sprintf("%q, post %d", body, i+1), serve(h, []byte(body)), marker)
		}
	}
	// The long body's key has no remembered body yet: only the size
	// limit keeps it out.
	long := `{"fig":"fig9",` + strings.Repeat(" ", rememberBodyBytes) + `"seed":1}`
	for i := 0; i < 2; i++ {
		wantHit(t, fmt.Sprintf("the %d-byte body, post %d", len(long), i+1), serve(h, []byte(long)), marker9)
	}
	for i, body := range bodies {
		if got, want := s.cache.isRemembered(body), i < rememberBodies; got != want {
			t.Errorf("body %d remembered = %v, want %v", i+1, got, want)
		}
	}
	if s.cache.isRemembered(long) {
		t.Errorf("a %d-byte body was remembered", len(long))
	}
	if n := s.cache.remembered(); n != rememberBodies {
		t.Errorf("%d bodies remembered, want %d", n, rememberBodies)
	}
	if h, m := s.cache.Hits(), s.cache.Misses(); h != int64(2*len(bodies)+2) || m != 0 {
		t.Errorf("hits=%d misses=%d, want %d/0", h, m, 2*len(bodies)+2)
	}
}

// Every accepted request counts exactly one hit or one miss, as it would
// if each were decoded and looked up by its key: the first request for a
// key misses and runs the job, every later one hits; rejected requests
// count nothing and are never remembered.
func TestRememberedCountsMatchCanonicalPath(t *testing.T) {
	seq := []string{
		`{"fig":"fig6"}`, `{"fig":"fig6"}`, `{"fig":"fig6","seed":1}`, `{"fig":"fig6"}`,
		`{"fig":"fig6","bogus":1}`, `{"fig":"fig6","bogus":1}`,
		`{"fig":"fig9"}`, `{"seed":1,"fig":"fig9"}`, `{"fig":"fig9"}`, `{"fig":"fig6","seed":1}`,
		`{"fig":"fig99"}`, `{"fig":"fig99"}`, `{"kind":"figure","fig":"fig6","scale":"quick"}`,
	}
	s := New(Config{Workers: 1})
	h := s.Handler()
	seen := map[string]bool{}
	var hits, misses int64
	answers := map[string][]byte{}
	for i, body := range seq {
		rec := serve(h, []byte(body))
		req, err := decodeRequest([]byte(body))
		c, err2 := req.Canonicalize()
		if err != nil || err2 != nil {
			if rec.Code != http.StatusBadRequest || s.cache.isRemembered(body) {
				t.Fatalf("request %d %s: status %d, remembered %v; want 400, not remembered", i, body, rec.Code, s.cache.isRemembered(body))
			}
			continue
		}
		key := c.Key()
		want := "miss"
		if seen[key] {
			want = "hit"
			hits++
		} else {
			misses++
		}
		seen[key] = true
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			t.Fatalf("request %d %s: status %d X-Cache %q, want 200 %s", i, body, rec.Code, rec.Header().Get("X-Cache"), want)
		}
		if prev, ok := answers[key]; ok && !bytes.Equal(prev, rec.Body.Bytes()) {
			t.Fatalf("request %d %s: the answer differs from the key's first", i, body)
		}
		answers[key] = rec.Body.Bytes()
		if !s.cache.isRemembered(body) {
			t.Fatalf("request %d %s: accepted but not remembered", i, body)
		}
	}
	gotHits, gotMisses, entries := s.CacheStats()
	if gotHits != hits || gotMisses != misses || entries != len(seen) || s.JobsExecuted() != int64(len(seen)) {
		t.Errorf("hits %d misses %d entries %d jobs %d; the canonical path counts %d %d %d %d",
			gotHits, gotMisses, entries, s.JobsExecuted(), hits, misses, len(seen), len(seen))
	}
}

// Handlers on several goroutines remember, look up and evict bodies at
// once (a 2-entry cache, three keys, two spellings each): every answer is
// its key's, every request counts one hit or one miss, every miss is one
// job, and the remembered bodies agree with the entries throughout.
func TestRememberConcurrently(t *testing.T) {
	t.Parallel()
	var bodies [][]byte
	for seed := 1; seed <= 3; seed++ {
		bodies = append(bodies,
			[]byte(fmt.Sprintf(`{"fig":"fig6","seed":%d}`, seed)),
			[]byte(fmt.Sprintf(`{"seed":%d,"kind":"figure","fig":"fig6"}`, seed)))
	}
	want := map[string][]byte{}
	ref := New(Config{}).Handler()
	for _, body := range bodies {
		want[string(body)] = serve(ref, body).Body.Bytes()
	}
	s := New(Config{CacheEntries: 2, Workers: 2})
	h := s.Handler()
	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*len(bodies); i++ {
				body := bodies[(i+c)%len(bodies)]
				rec := serve(h, body)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[string(body)]) {
					t.Errorf("client %d, %s: status %d, the answer is not its key's", c, body, rec.Code)
					return
				}
				if err := s.cache.checkBodies(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	hits, misses, entries := s.CacheStats()
	if hits+misses != clients*rounds*int64(len(bodies)) || misses != s.JobsExecuted() || entries != 2 {
		t.Errorf("hits %d + misses %d for %d requests, %d jobs, %d entries", hits, misses, clients*rounds*len(bodies), s.JobsExecuted(), entries)
	}
}

// TestCacheHitAllocs guards the hit on a remembered body: a map lookup
// and the write, no decode, canonicalization or hashing. The recorder
// and request of each hit are built outside the count. Measured 9, most
// of them the recorder's and the mux's (24 when every hit was decoded
// and hashed).
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	const body = `{"kind":"sweep","width":4,"height":4,"seed":7,"rates":[0.02,0.05]}`
	marker := []byte("sweep marker")
	s := primed(t, Config{}, body, marker)
	h := s.Handler()
	wantHit(t, "first post", serve(h, []byte(body)), marker)
	const runs = 100
	recs := make([]*httptest.ResponseRecorder, runs+1)
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		recs[i] = httptest.NewRecorder()
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for _, rec := range recs {
		wantHit(t, "a counted post", rec, marker)
	}
	t.Logf("%.1f allocations per hit on a remembered body", allocs)
	if allocs > 9 {
		t.Errorf("%.1f allocations per hit on a remembered body; ceiling is 9", allocs)
	}
}
