package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"drain/internal/stats"
)

// latencyWindow caps the latency sample; when full it resets, so the
// percentiles describe a recent window rather than all of history and
// memory stays bounded.
const latencyWindow = 1 << 16

// serverMetrics aggregates the service counters /metrics exposes. Job
// latency percentiles reuse the repo's measurement primitive
// (stats.Sample) rather than a second quantile implementation.
type serverMetrics struct {
	inflight      atomic.Int64
	jobsTotal     atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64

	mu      sync.Mutex
	latency stats.Sample // milliseconds

	// lastScrape/lastCycles remember the previous /metrics scrape so the
	// cycles-per-second gauge reports the rate over the scrape interval
	// (first scrape falls back to the process-lifetime average).
	lastScrape time.Time
	lastCycles int64
}

// observe records one finished job.
func (m *serverMetrics) observe(d time.Duration, err error) {
	m.jobsTotal.Add(1)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		m.jobsCancelled.Add(1)
	default:
		m.jobsFailed.Add(1)
	}
	m.mu.Lock()
	if m.latency.Count() >= latencyWindow {
		m.latency.Reset()
	}
	m.latency.Add(d.Milliseconds())
	m.mu.Unlock()
}

// latencyP50 returns the median job latency of the current window.
func (m *serverMetrics) latencyP50() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.latency.Percentile(0.50)) * time.Millisecond
}

// handleMetrics writes the counters in Prometheus text exposition
// style (one "name value" pair per line, gauge/counter semantics by
// name), with no dependency on a metrics library.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &s.metrics
	m.mu.Lock()
	count := m.latency.Count()
	p50 := m.latency.Percentile(0.50)
	p99 := m.latency.Percentile(0.99)
	mean := m.latency.Mean()
	m.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "drainserved_uptime_seconds %.0f\n", s.uptime().Seconds())
	fmt.Fprintf(w, "drainserved_queue_depth %d\n", s.QueueDepth())
	fmt.Fprintf(w, "drainserved_queue_capacity %d\n", cap(s.wait))
	fmt.Fprintf(w, "drainserved_jobs_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(w, "drainserved_jobs_total %d\n", m.jobsTotal.Load())
	fmt.Fprintf(w, "drainserved_jobs_failed %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "drainserved_jobs_cancelled %d\n", m.jobsCancelled.Load())
	hits, misses, entries := s.CacheStats()
	fmt.Fprintf(w, "drainserved_cache_hits %d\n", hits)
	fmt.Fprintf(w, "drainserved_cache_misses %d\n", misses)
	fmt.Fprintf(w, "drainserved_cache_entries %d\n", entries)
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "drainserved_cache_hit_rate %.4f\n", hitRate)
	cycles := s.totals.Cycles.Load()
	m.mu.Lock()
	now := time.Now()
	rate := 0.0
	switch {
	case !m.lastScrape.IsZero() && now.After(m.lastScrape) && cycles >= m.lastCycles:
		rate = float64(cycles-m.lastCycles) / now.Sub(m.lastScrape).Seconds()
	case s.uptime() > 0:
		rate = float64(cycles) / s.uptime().Seconds()
	}
	m.lastScrape, m.lastCycles = now, cycles
	m.mu.Unlock()
	fmt.Fprintf(w, "drainserved_sim_runs_total %d\n", s.totals.Runs.Load())
	fmt.Fprintf(w, "drainserved_sim_cycles_total %d\n", cycles)
	fmt.Fprintf(w, "drainserved_sim_cycles_per_second %.0f\n", rate)
	fmt.Fprintf(w, "drainserved_sim_reconfigs_total %d\n", s.totals.Reconfigs.Load())
	fmt.Fprintf(w, "drainserved_sim_packets_rerouted_total %d\n", s.totals.Rerouted.Load())
	fmt.Fprintf(w, "drainserved_job_latency_ms_count %d\n", count)
	fmt.Fprintf(w, "drainserved_job_latency_ms_p50 %d\n", p50)
	fmt.Fprintf(w, "drainserved_job_latency_ms_p99 %d\n", p99)
	fmt.Fprintf(w, "drainserved_job_latency_ms_mean %.1f\n", mean)
}
