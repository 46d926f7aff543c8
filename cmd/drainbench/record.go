package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number. N is the number of samples behind it
// and Stat says how they were reduced ("p50", "p90", "mean", "count").
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Stat  string  `json:"stat,omitempty"`
}

// record is everything one run of one workload produced. Metrics holds
// the metrics BENCHMARK.json names: end-to-end for an untraced run,
// per-layer for a traced one.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Ops       int               `json:"ops"`    // timed operations run (windows, rounds, jobs, requests)
	Digest    string            `json:"digest"` // SHA-256 over the run's deterministic outputs
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the four-key object the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueAtUnit `json:"metrics"`
}

type valueAtUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) result() result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueAtUnit{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = valueAtUnit{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// printRecord lists every metric by name with its unit, reduction and
// sample count.
func printRecord(w io.Writer, r *record) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s): %d operations timed, %d operations and checks attempted, %d failed\n",
		r.Workload, r.Seed, pass, r.Ops, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %-8s %-5s n=%d\n", name, m.Value, m.Unit, m.Stat, m.N)
	}
	fmt.Fprintf(w, " digest %s\n", r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, " note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, " FAILED: %s\n", f)
	}
}

// checker counts operations and verification checks against the number
// attempted; a failure keeps its message (the first few are printed).
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

const maxFailureMessages = 8

// check records one attempted operation or check and whether it held.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < maxFailureMessages {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// add folds in a batch of operations counted elsewhere (the hot request
// loops tally per client instead of taking the lock per request).
func (c *checker) add(attempted, failed int, firstErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += attempted
	c.failed += failed
	if firstErr != nil && len(c.msgs) < maxFailureMessages {
		c.msgs = append(c.msgs, firstErr.Error())
	}
}

// opsRun is the outcome of one timed loop.
type opsRun struct {
	ns  []int64 // ns[i] is the duration of operation i; -1 when it failed
	end []int64 // end[i] is when operation i finished, in ns since the loop started
}

// ok returns the durations of the successful operations in index order,
// those whose index satisfies keep (nil: all).
func (r opsRun) ok(keep func(i int) bool) []int64 {
	out := make([]int64, 0, len(r.ns))
	for i, ns := range r.ns {
		if ns >= 0 && (keep == nil || keep(i)) {
			out = append(out, ns)
		}
	}
	return out
}

// throughputBatches is how many equal batches of consecutive operations
// a loop's throughput is taken over: one batch per coh_pagerank round,
// two or three windows or jobs, 12 500 hits.
const throughputBatches = 16

// throughput is successful operations per second of wall time, as the
// median over the loop's batches: a batch lasts from the end of the one
// before it to the end of its own last operation. Within a batch it is a
// mean, so queueing and collector pauses count; the median across
// batches keeps stalled operations from setting the whole run's number.
// At -seed 21 five of coh_pagerank's sixteen rounds stall or run again
// (a capped attempt is ~13 s beside a 0.9 s round): over eight batches of
// two rounds that was half the batches, and ten seeds' ops_per_s spread
// by 34 %.
func (r opsRun) throughput() (perSecond float64, batches int) {
	n := len(r.ns)
	batches = min(throughputBatches, n)
	rates := make([]float64, 0, batches)
	var from int64
	for k := 0; k < batches; k++ {
		var done, to int64
		for i := k * n / batches; i < (k+1)*n/batches; i++ {
			if r.ns[i] >= 0 {
				done++
			}
			to = max(to, r.end[i])
		}
		rates = append(rates, ratio(float64(done), float64(to-from)/1e9))
		from = to
	}
	return median(rates), batches
}

// timedOps runs op(client, i) for i = 0 … count-1, handed out to
// `clients` goroutines in closed loop (each takes its next index only
// after finishing the previous one). The work is fixed: every run of a
// workload executes the same count however fast it goes, and the sample
// slice is sized before the first operation, so the harness's own memory
// is the same on every run. A failed operation is counted, never sampled.
func timedOps(chk *checker, clients, count int, op func(client, i int) error) opsRun {
	run := opsRun{ns: make([]int64, count), end: make([]int64, count)}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			attempted, failed := 0, 0
			var firstErr error
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					break
				}
				t0 := time.Now()
				err := op(c, i)
				t1 := time.Now()
				run.ns[i], run.end[i] = int64(t1.Sub(t0)), int64(t1.Sub(start))
				attempted++
				if err != nil {
					run.ns[i] = -1
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("operation %d: %w", i, err)
					}
				}
			}
			chk.add(attempted, failed, firstErr)
		}(c)
	}
	wg.Wait()
	return run
}

// digest accumulates the deterministic outputs of a run as text lines
// under SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) addf(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// peakRSSMB is the process's peak resident set so far: VmHWM of
// /proc/self/status. getrusage's ru_maxrss would do on a directly
// started binary, but Linux carries it across exec, so under `go run`
// it reports the go tool's own peak (~25 MB) for every small workload;
// it is only the fallback here.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// hostStats is the runtime.MemStats delta over a timed part.
type hostStats struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapInuse      uint64
}

func readHost() hostStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs, heapInuse: m.HeapInuse}
}

// since returns the change from before to now; heapInuse is the level
// now, not a difference.
func (before hostStats) since() hostStats {
	now := readHost()
	return hostStats{
		mallocs:   now.mallocs - before.mallocs,
		bytes:     now.bytes - before.bytes,
		gcCycles:  now.gcCycles - before.gcCycles,
		gcPauseNs: now.gcPauseNs - before.gcPauseNs,
		heapInuse: now.heapInuse,
	}
}
