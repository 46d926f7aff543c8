package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"drain/internal/experiments"
	"drain/internal/sim"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds jobs waiting for a run slot; submissions beyond
	// it get 429 + Retry-After (explicit backpressure). Default 64.
	QueueDepth int
	// Workers is the service's CPU budget, in run slots: at most this
	// many jobs execute at once and at most this many simulations run at
	// once across all of them. A job holds one slot for its whole life
	// and a figure job borrows the slots no other job is using, giving
	// each back within one simulation when another job needs it (see
	// experiments.Slots). Default 2.
	Workers int
	// JobTimeout bounds one job's execution; an expired job fails with
	// 504 and stops simulating within noc.CancelCheckEvery cycles.
	// Default 5m.
	JobTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache. Default 1024.
	CacheEntries int
}

func (c *Config) setDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
}

// Server executes simulation jobs on a fixed budget of run slots, with
// a bounded wait for a slot and a content-addressed result cache in
// front. A job lives on its request's goroutine from admission to reply.
type Server struct {
	cfg    Config
	cache  *resultCache
	slots  *experiments.Slots // cfg.Workers run slots, shared by every job
	wait   chan struct{}      // one token per admitted job still waiting for a slot
	totals sim.Totals         // every run made for this server's jobs, exact; /metrics reads it

	mu       sync.RWMutex // orders admission (jobs.Add) against Close (jobs.Wait)
	draining bool
	jobs     sync.WaitGroup // admitted jobs not yet answered

	//drain:ctxcarrier process-lifetime kill switch, not a call-scoped ctx; ForceStop cancels it to abort all in-flight jobs
	forceCtx  context.Context // cancelled by ForceStop: aborts in-flight jobs
	forceStop context.CancelFunc

	metrics serverMetrics
	start   time.Time
}

// New builds a Server, ready to serve.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		slots: experiments.NewSlots(cfg.Workers),
		wait:  make(chan struct{}, cfg.QueueDepth),
		start: time.Now(),
	}
	s.forceCtx, s.forceStop = context.WithCancel(context.Background())
	return s
}

// admit counts a job in without blocking, or returns the status and
// reason that turn it away: 503 once draining, 429 when QueueDepth jobs
// already wait for a slot. An admitted job owes one <-s.wait, once it has
// (or has given up on) a slot, and one jobs.Done.
func (s *Server) admit() (status int, reason string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return http.StatusServiceUnavailable, "server is draining"
	}
	select {
	case s.wait <- struct{}{}:
		s.jobs.Add(1)
		return 0, ""
	default:
		return http.StatusTooManyRequests, "job queue full; retry later"
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Close drains the server: no new job is admitted, every waiting and
// in-flight job runs to completion, and Close returns when the last has
// been answered. Call ForceStop first (or concurrently) to abort
// in-flight jobs instead of finishing them.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.jobs.Wait()
}

// ForceStop cancels the context of every waiting and in-flight job.
// Submitters receive cancellation errors; runs stop within
// noc.CancelCheckEvery simulated cycles.
func (s *Server) ForceStop() { s.forceStop() }

// Handler returns the service's HTTP routes:
//
//	POST /v1/jobs  — submit a figure or sweep job (JSON Request body)
//	GET  /metrics  — queue/cache/latency counters, text format
//	GET  /healthz  — 200 "ok", or 503 "draining" during shutdown
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxBody bounds request bodies; every valid Request is tiny.
const maxBody = 1 << 20

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// A byte-identical repeat of an accepted request is answered from the
	// entry it was remembered under, before any decoding.
	if body, ok := s.cache.Lookup(data); ok {
		writeBody(w, "hit", body)
		return
	}
	req, err := decodeRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	c, err := req.Canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := c.Key()
	if body, ok := s.cache.Get(key); ok {
		s.cache.Remember(key, data)
		writeBody(w, "hit", body)
		return
	}

	// Two identical requests racing past the cache miss both compute;
	// determinism makes either result correct and both Puts identical,
	// so no single-flight coordination is needed for correctness.
	if status, reason := s.admit(); status != 0 {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		}
		writeError(w, status, reason)
		return
	}
	defer s.jobs.Done()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.forceCtx, cancel)()

	// The job lives on this goroutine: wait for a run slot, execute under
	// the server's slots, totals and JobTimeout, give the slot back.
	// Acquire fails only if the client hung up or the server was
	// force-stopped while the job waited: nobody wants the result.
	admitted := time.Now()
	err = s.slots.Acquire(ctx)
	<-s.wait
	slotted := time.Now()
	var body []byte
	if err == nil {
		s.metrics.inflight.Add(1)
		jctx, jcancel := context.WithTimeout(sim.WithTotals(experiments.WithSlots(ctx, s.slots), &s.totals), s.cfg.JobTimeout)
		body, err = s.execute(jctx, key, c)
		jcancel()
		s.slots.Release()
		s.metrics.inflight.Add(-1) // before the reply: a client that has its answer must not still see the job in flight
	}
	done := time.Now()
	s.metrics.observe(done.Sub(admitted), err)
	switch {
	case err == nil:
		s.cache.Put(key, body)
		s.cache.Remember(key, data)
		w.Header().Set("Server-Timing", fmt.Sprintf("wait;dur=%.3f, run;dur=%.3f",
			slotted.Sub(admitted).Seconds()*1e3, done.Sub(slotted).Seconds()*1e3))
		writeBody(w, "miss", body)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "job timed out: "+err.Error())
	case errors.Is(err, context.Canceled):
		// Client is gone or the server was force-stopped; the status is
		// best-effort.
		writeError(w, http.StatusServiceUnavailable, "job cancelled: "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// decodeRequest decodes a request body: exactly one JSON object with
// known fields. A second value or trailing text is an error, not
// silently dropped.
func decodeRequest(data []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Request{}, errors.New("data after the JSON object")
	}
	return req, nil
}

// retryAfterSeconds estimates how long a 429'd client should wait: the
// median job latency (rounded up), or 1s before any job has finished.
func (s *Server) retryAfterSeconds() int {
	p50 := s.metrics.latencyP50()
	if p50 <= 0 {
		return 1
	}
	secs := int((p50 + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeBody(w http.ResponseWriter, cacheStatus string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// QueueDepth returns the number of admitted jobs waiting for a run slot.
func (s *Server) QueueDepth() int { return len(s.wait) }

// InFlight returns the number of jobs currently executing.
func (s *Server) InFlight() int { return int(s.metrics.inflight.Load()) }

// CacheStats returns (hits, misses, entries).
func (s *Server) CacheStats() (hits, misses int64, entries int) {
	return s.cache.Hits(), s.cache.Misses(), s.cache.Len()
}

// JobsExecuted returns how many admitted jobs have finished (cache hits
// excluded — a hit is never admitted).
func (s *Server) JobsExecuted() int64 { return s.metrics.jobsTotal.Load() }

// uptime is split out for the metrics page.
func (s *Server) uptime() time.Duration { return time.Since(s.start) }
