package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// The request bodies remembered per entry: at most rememberBodies of
// them, each at most rememberBodyBytes long. With the entry cap they
// bound the memory the remembered bodies take.
const (
	rememberBodies    = 8
	rememberBodyBytes = 1 << 10
)

// resultCache is a bounded LRU of finished response bodies keyed by the
// request's content address. Values are the exact bytes served: because
// every simulation is a pure function of its canonical configuration, a
// hit returns byte-identical output to the original computation.
// Callers must treat returned slices as immutable.
//
// Each entry also remembers the exact request bodies that were accepted
// and canonicalized to its key, so a byte-identical repeat finds the
// entry through Lookup without being decoded, canonicalized or hashed.
// The bodies live in their own map: a body is never looked up among the
// keys.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List               // front = most recently used
	m      map[string]*list.Element // key → entry
	bodies map[string]*list.Element // remembered request body → its entry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key    string
	body   []byte
	bodies []string // the request bodies remembered for this entry
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:    capacity,
		ll:     list.New(),
		m:      make(map[string]*list.Element, capacity),
		bodies: make(map[string]*list.Element),
	}
}

// Lookup returns the cached body of the entry that request body req was
// remembered under, counting a hit and marking the entry most recently
// used. A body that is not remembered counts nothing: the caller goes on
// to Get, which counts the request's hit or miss.
func (c *resultCache) Lookup(req []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[string(req)]
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Get returns the cached body for key, marking it most recently used.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Remember makes request body req, which was accepted and canonicalized
// to key, find key's entry through Lookup. It does nothing when key is
// not cached, req is already remembered, req is longer than
// rememberBodyBytes or the entry holds rememberBodies bodies already.
func (c *resultCache) Remember(key string, req []byte) {
	if len(req) > rememberBodyBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.bodies) == rememberBodies {
		return
	}
	if _, ok := c.bodies[string(req)]; ok {
		return
	}
	s := string(req)
	e.bodies = append(e.bodies, s)
	c.bodies[s] = el
}

// Put stores body under key, evicting the least recently used entry
// (and the request bodies remembered for it) when over capacity.
// Re-putting an existing key refreshes its recency and keeps its
// remembered bodies; the body is identical by construction (same key ⇒
// same canonical config ⇒ same deterministic output), so which write
// wins a race is immaterial.
func (c *resultCache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.m, e.key)
		for _, req := range e.bodies {
			delete(c.bodies, req)
		}
	}
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits and Misses report lookup counters.
func (c *resultCache) Hits() int64   { return c.hits.Load() }
func (c *resultCache) Misses() int64 { return c.misses.Load() }
