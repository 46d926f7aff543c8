package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeAndGracefulShutdown builds the real binary, serves one job
// over HTTP, then sends SIGTERM and requires a clean drain to exit 0.
func TestServeAndGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "drainserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

	// First stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := strings.TrimSpace(line[i+len(marker):])

	// Drain the rest of stdout in the background so the child never
	// blocks on a full pipe, and keep it for the shutdown assertions.
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		rest <- b.String()
	}()

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hz.StatusCode)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"fig":"fig6"}`))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status %d: %s", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Wait for stdout EOF (the child exiting closes the pipe) BEFORE
	// calling Wait: Wait closes the read side and would race the
	// scanner goroutine out of the final log lines.
	var tail string
	select {
	case tail = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatal("stdout not closed within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v (want exit 0)", err)
	}
	if !strings.Contains(tail, "drainserved: stopped") {
		t.Fatalf("shutdown log missing 'stopped':\n%s", tail)
	}
}

// TestBadFlags pins the usage exit code.
func TestBadFlags(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-shards", "4"},   // removed with the engine it selected
		{"-parallel", "2"}, // removed: -workers is the one CPU budget
	} {
		if code := run(args, devnull, devnull); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
	}
}
