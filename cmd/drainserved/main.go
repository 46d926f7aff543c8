// Command drainserved serves the DRAIN simulator over HTTP: POST
// figure or sweep jobs to /v1/jobs and get back the same deterministic
// tables the CLIs print, with identical requests answered from a
// content-addressed cache. See internal/server for the API.
//
// Usage:
//
//	drainserved -addr :8080 -workers 2 -queue 64
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight and waiting jobs
// finish, new submissions get 503, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drain/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("drainserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 64, "jobs that may wait for a run slot (beyond it, 429 + Retry-After)")
	workers := fs.Int("workers", 2, "CPU budget, in run slots: concurrent jobs, and concurrent simulations across all of them")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job execution timeout")
	cacheEntries := fs.Int("cache-entries", 1024, "content-addressed result cache capacity")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "max time to finish jobs after SIGTERM before aborting them")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s := server.New(server.Config{
		QueueDepth:   *queue,
		Workers:      *workers,
		JobTimeout:   *jobTimeout,
		CacheEntries: *cacheEntries,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "drainserved: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	// The "listening on" line is the startup handshake: scripts (and the
	// smoke test) parse it to learn the bound port.
	fmt.Fprintf(stdout, "drainserved listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "drainserved: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "drainserved: draining")
	// Stop accepting connections, then finish waiting + in-flight jobs.
	// If they exceed the drain budget, abort them via ForceStop so the
	// process still exits cleanly.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		s.Close()
		close(drained)
	}()
	select {
	case <-drained:
	case <-shutCtx.Done():
		fmt.Fprintln(stderr, "drainserved: drain timeout, aborting in-flight jobs")
		s.ForceStop()
		<-drained
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "drainserved: shutdown: %v\n", err)
	}
	fmt.Fprintln(stdout, "drainserved: stopped")
	return 0
}
