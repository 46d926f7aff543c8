package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drain/internal/experiments"
	"drain/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.ForceStop()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A served figure must carry exactly the markdown cmd/experiments
// renders for the same experiment whatever the run-slot budget (fig11
// fans its simulations out over the slots the server lends it), and
// resubmitting the same request must be a cache hit with byte-identical
// body and no recomputation.
func TestFigureJobMatchesCLIAndCaches(t *testing.T) {
	e, ok := experiments.ByID("fig11")
	if !ok {
		t.Fatal("fig11 not in registry")
	}
	tables, err := e.Run(context.Background(), experiments.Quick, 1)
	if err != nil {
		t.Fatalf("direct fig11 run: %v", err)
	}
	want := experiments.RenderFigure(e, tables)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: workers})

			resp, body := postJob(t, ts.URL, `{"fig":"fig11"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Fatalf("first request X-Cache = %q, want miss", got)
			}
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("decode response: %v", err)
			}
			if r.Markdown != want {
				t.Fatalf("served markdown differs from cmd/experiments rendering:\n--- served ---\n%s\n--- direct ---\n%s", r.Markdown, want)
			}

			resp2, body2 := postJob(t, ts.URL, `{"kind":"figure","fig":"fig11","scale":"quick","seed":1}`)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("resubmit status %d", resp2.StatusCode)
			}
			if got := resp2.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("resubmit X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(body, body2) {
				t.Fatal("cache hit body differs from original miss body")
			}
			if n := s.JobsExecuted(); n != 1 {
				t.Fatalf("JobsExecuted = %d after identical resubmit, want 1 (no recompute)", n)
			}
		})
	}
}

// A served sweep must report the same curve experiments.LoadSweep computes.
func TestSweepJobMatchesLoadSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req := `{"kind":"sweep","width":4,"height":4,"faults":2,"rates":[0.02,0.05],"warmup":200,"measure":500}`
	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(r.Tables))
	}

	p := sim.Params{Width: 4, Height: 4, Faults: 2, FaultSeed: 1, Scheme: sim.SchemeDRAIN, Seed: 1}
	curve, err := experiments.LoadSweep(context.Background(), p, "uniform", []float64{0.02, 0.05}, 200, 500)
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	if len(r.Tables[0].Rows) != len(curve) {
		t.Fatalf("served %d rows, direct sweep has %d points", len(r.Tables[0].Rows), len(curve))
	}
	for i, pt := range curve {
		want := []string{
			fmt.Sprintf("%.3f", pt.Offered),
			fmt.Sprintf("%.4f", pt.Accepted),
			fmt.Sprintf("%.1f", pt.AvgLat),
			fmt.Sprintf("%d", pt.P99Lat),
		}
		for j := range want {
			if r.Tables[0].Rows[i][j] != want[j] {
				t.Fatalf("row %d col %d: served %q, direct %q", i, j, r.Tables[0].Rows[i][j], want[j])
			}
		}
	}
}

// slowSweep returns a request body whose simulation runs long enough to
// occupy a worker until cancelled; seed varies the cache key per call.
func slowSweep(seed int) string {
	return fmt.Sprintf(`{"kind":"sweep","width":8,"height":8,"seed":%d,"rates":[0.1],"measure":2000000000}`, seed)
}

// With one worker and a one-slot queue, a third concurrent job must be
// rejected with 429 and a Retry-After hint, and cancelling the slow
// jobs must return the pool to idle.
func TestQueueFullBackpressureAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	launch := func(seed int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/jobs", strings.NewReader(slowSweep(seed)))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	launch(101)
	waitFor(t, "first job in flight", func() bool { return s.InFlight() == 1 })
	launch(102)
	waitFor(t, "second job queued", func() bool { return s.QueueDepth() == 1 })

	resp, body := postJob(t, ts.URL, slowSweep(103))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	// Hang up both slow clients: the in-flight run must stop within
	// noc.CancelCheckEvery cycles and the queued one must be skipped.
	cancel()
	wg.Wait()
	waitFor(t, "pool idle after cancel", func() bool {
		return s.InFlight() == 0 && s.QueueDepth() == 0
	})
	if hits, _, _ := s.CacheStats(); hits != 0 {
		t.Fatalf("cancelled jobs produced %d cache hits", hits)
	}
}

// Close must finish queued work, then reject new submissions and flip
// /healthz to draining.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts.URL, `{"fig":"fig6"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up job status %d", resp.StatusCode)
	}

	s.Close() // drains: the completed job is already through

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}

	resp2, body := postJob(t, ts.URL, `{"fig":"fig5"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d (%s), want 503", resp2.StatusCode, body)
	}
}

func TestHealthzOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postJob(t, ts.URL, `{"fig":"fig6"}`) // miss + execute
	postJob(t, ts.URL, `{"fig":"fig6"}`) // hit

	text := getMetrics(t, ts.URL)
	for _, want := range []string{
		"drainserved_queue_depth 0",
		"drainserved_queue_capacity 64",
		"drainserved_jobs_inflight 0",
		"drainserved_jobs_total 1",
		"drainserved_jobs_failed 0",
		"drainserved_cache_hits 1",
		"drainserved_cache_misses 1",
		"drainserved_cache_entries 1",
		"drainserved_cache_hit_rate 0.5000",
		"drainserved_sim_cycles_total ",
		"drainserved_sim_cycles_per_second ",
		"drainserved_job_latency_ms_count 1",
		"drainserved_job_latency_ms_p50 ",
		"drainserved_job_latency_ms_p99 ",
		"drainserved_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestLatencyWindow pins the job-latency summary over stats.Sample:
// nearest-rank p50/p99 in whole milliseconds over the current window,
// and a window that starts over once latencyWindow jobs are in it.
func TestLatencyWindow(t *testing.T) {
	var m serverMetrics
	summary := func() (int, int64, int64, time.Duration) {
		return m.latency.Count(), m.latency.Percentile(0.50), m.latency.Percentile(0.99), m.latencyP50()
	}
	// Jobs of 1..200 ms, slowest first: rank, not arrival, decides.
	for ms := 200; ms >= 1; ms-- {
		m.observe(time.Duration(ms)*time.Millisecond+300*time.Microsecond, nil)
	}
	if n, p50, p99, d := summary(); n != 200 || p50 != 100 || p99 != 198 || d != 100*time.Millisecond {
		t.Errorf("200 jobs of 1..200 ms: count %d p50 %d p99 %d latencyP50 %v, want 200 100 198 100ms", n, p50, p99, d)
	}
	// Fill the window to the brim with 7 ms jobs: nothing is dropped yet.
	for m.latency.Count() < latencyWindow {
		m.observe(7*time.Millisecond, nil)
	}
	if n, p50, p99, _ := summary(); n != latencyWindow || p50 != 7 || p99 != 7 || m.latency.Max() != 200 {
		t.Errorf("full window: count %d p50 %d p99 %d max %d, want %d 7 7 200", n, p50, p99, m.latency.Max(), latencyWindow)
	}
	// The next job opens a new window that remembers none of the old one
	// (a two-minute job is past what the sample counts by value).
	m.observe(2*time.Minute, nil)
	m.observe(3*time.Millisecond, nil)
	if n, p50, p99, _ := summary(); n != 2 || p50 != 3 || p99 != 120_000 {
		t.Errorf("new window: count %d p50 %d p99 %d, want 2 3 120000", n, p50, p99)
	}
	if got := m.jobsTotal.Load(); got != latencyWindow+2 {
		t.Errorf("jobsTotal = %d, want %d", got, latencyWindow+2)
	}
}

// badDecode are bodies the decoder refuses: malformed, an unknown field,
// or more than one JSON value. With badCanonical they are everything the
// service must answer 400, with the reason, and never cache.
var badDecode = []string{
	`{`,
	`{"figs":"fig6"}`,
	`{"kind":"sweep","shards":4}`, // a field that no longer exists
	`{"fig":"fig6"}{"fig":"fig9"}`,
	`{"fig":"fig6"} trailing`,
	`{"fig":"fig6"}}`,
}

func TestBadRequestsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	for _, body := range append(badDecode, badCanonical...) {
		resp, data := postJob(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d (%s), want 400", body, resp.StatusCode, data)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error body %q not the JSON envelope", body, data)
		}
		if strings.Contains(body, "rng_mode") && !strings.Contains(e.Error, `"exact"`) {
			t.Errorf("POST %s: error %q does not name the accepted value", body, e.Error)
		}
		if strings.Contains(body, `"a":0,"b":5`) && !strings.Contains(e.Error, "fault event 0 (cycle 100): no failed link 0-5 to restore") {
			t.Errorf("POST %s: error %q does not name the event", body, e.Error)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("rejected requests left %d cache entries", n)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, read error %v", resp.StatusCode, err)
	}
	return string(body)
}

// The simulator totals on /metrics are each server's own and exact: a
// default sweep is 2 rates × 5 000 cycles on the server that ran it and
// nothing on a server that sat idle in the same process.
func TestSimTotalsArePerServerAndExact(t *testing.T) {
	t.Parallel()
	_, a := newTestServer(t, Config{})
	_, b := newTestServer(t, Config{})
	if resp, body := postJob(t, a.URL, `{"kind":"sweep","width":4,"height":4}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		name, url    string
		runs, cycles int
	}{{"A", a.URL, 2, 10000}, {"B", b.URL, 0, 0}} {
		text := getMetrics(t, tc.url)
		for _, want := range []string{
			fmt.Sprintf("drainserved_sim_runs_total %d\n", tc.runs),
			fmt.Sprintf("drainserved_sim_cycles_total %d\n", tc.cycles),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("server %s: /metrics lacks %q:\n%s", tc.name, want, text)
			}
		}
	}
}

// A job that outlives JobTimeout is answered 504 and gives back every
// run slot it held or lent to a helper, so the next job runs.
func TestJobTimeoutFreesEverySlot(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2, JobTimeout: 150 * time.Millisecond})
	if resp, body := postJob(t, ts.URL, `{"fig":"fig10"}`); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("quick fig10 under a 150ms timeout: status %d (%s), want 504", resp.StatusCode, body)
	}
	// The reply is written after the job released: no waiting needed.
	for i := 0; i < 2; i++ {
		if !s.slots.TryAcquire() {
			t.Fatalf("after the 504 only %d of 2 run slots are free", i)
		}
	}
	s.slots.Release()
	s.slots.Release()
	if n := s.InFlight() + s.QueueDepth(); n != 0 {
		t.Errorf("after the 504: %d jobs in flight or waiting", n)
	}
	if resp, body := postJob(t, ts.URL, `{"fig":"fig6"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("job after the timeout: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// A miss says where its time went in a Server-Timing header; the cached
// body and the hit path know nothing of it.
func TestServerTimingOnMissOnly(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1})
	miss, missBody := postJob(t, ts.URL, `{"fig":"fig14"}`)
	hit, hitBody := postJob(t, ts.URL, `{"fig":"fig14"}`)
	if miss.Header.Get("X-Cache") != "miss" || hit.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q then %q, want miss then hit", miss.Header.Get("X-Cache"), hit.Header.Get("X-Cache"))
	}
	var wait, run float64
	got := miss.Header.Get("Server-Timing")
	if n, err := fmt.Sscanf(got, "wait;dur=%f, run;dur=%f", &wait, &run); n != 2 || err != nil || wait < 0 || run <= 0 {
		t.Errorf("miss Server-Timing = %q, want wait;dur=<ms>, run;dur=<ms> with run > 0", got)
	}
	if got, ok := hit.Header["Server-Timing"]; ok {
		t.Errorf("hit carries Server-Timing %q", got)
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Error("hit body differs from the miss body")
	}
}
