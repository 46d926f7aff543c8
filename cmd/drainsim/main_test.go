package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drain/internal/sim"
)

// The scheme vocabulary lives in sim.ParseScheme; this pins the CLI's
// view of it (including the dor scheme and the escape alias).
func TestParseScheme(t *testing.T) {
	cases := map[string]bool{
		"none": true, "ideal": true, "escape": true, "escape-vc": true,
		"spin": true, "drain": true, "updown": true, "dor": true,
		"": false, "DRAIN": false, "turnmodel": false,
	}
	for in, ok := range cases {
		_, err := sim.ParseScheme(in)
		if ok && err != nil {
			t.Errorf("ParseScheme(%q): %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("ParseScheme(%q) accepted", in)
		}
	}
	// escape and escape-vc must agree.
	a, _ := sim.ParseScheme("escape")
	b, _ := sim.ParseScheme("escape-vc")
	if a != b {
		t.Error("escape aliases disagree")
	}
	// Every scheme's String form must round-trip through ParseScheme.
	for _, sch := range []sim.Scheme{
		sim.SchemeNone, sim.SchemeIdeal, sim.SchemeEscapeVC, sim.SchemeSPIN,
		sim.SchemeDRAIN, sim.SchemeUpDown, sim.SchemeDoR,
	} {
		got, err := sim.ParseScheme(sch.String())
		if err != nil || got != sch {
			t.Errorf("round-trip %v: got %v, err %v", sch, got, err)
		}
	}
}

// Every flag a stranger can get wrong is answered with one line on
// stderr and a non-zero exit, never a panic. Flags that cannot be
// combined, and values out of range, exit 2, as an unknown flag does,
// before anything is built or printed.
func TestBadFlagsExitWithAReason(t *testing.T) {
	small := []string{"-mesh", "3x3", "-warmup", "10", "-measure", "10", "-ops", "5"}
	try := func(bad []string) (code int, stdout string) {
		var out, stderr bytes.Buffer
		code = run(append(small, bad...), &out, &stderr)
		reason := strings.TrimSuffix(stderr.String(), "\n")
		if bad[0] == "-no-such-flag" { // the flag package adds its usage text
			reason, _, _ = strings.Cut(reason, "\n")
		}
		if code == 0 || reason == "" || strings.Contains(reason, "\n") {
			t.Errorf("drainsim %v: exit %d, stderr %q; want non-zero and one line", bad, code, stderr.String())
		}
		return code, out.String()
	}
	for _, bad := range [][]string{
		{"-mesh", "8"},
		{"-mesh", "1x1"},
		{"-sweep", "0.1,fast"},
		{"-fault-schedule", "10:explode:0-1"},
		{"-fault-schedule", "10:fail:0-8"},    // parses, names no link of the mesh
		{"-fault-schedule", "10:recover:0-8"}, // restores a link the mesh never had
		{"-scheme", "turnmodel"},
		{"-pattern", "zigzag"},
		{"-workload", "doom"},
		{"-no-such-flag"},
	} {
		if _, stdout := try(bad); bad[0] == "-fault-schedule" && stdout != "" {
			t.Errorf("drainsim %v printed %q: a bad schedule is refused before the run starts", bad, stdout)
		}
	}
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, bad := range [][]string{
		{"-sweep", "0.02,0.05", "-trace", trace},   // the sweep's runs would leave the trace empty
		{"-workload", "canneal", "-sweep", "0.02"}, // the workload would run and the sweep not
		// Out-of-range values, one per rule: each would otherwise run
		// something other than what was asked, or print before failing.
		{"-mesh", "0x3"},                             // mesh sides >= 1
		{"-mesh", "-2x3"},                            // mesh sides >= 1
		{"-mesh", "4x4x4"},                           // nothing after WxH
		{"-rate", "2"},                               // rates in (0, 1]
		{"-sweep", "0.1,abc"},                        // sweep entries are numbers
		{"-sweep", "0.1,1.5"},                        // sweep rates in (0, 1]
		{"-warmup", "-1"},                            // warm-up >= 0
		{"-measure", "0"},                            // measured cycles >= 1
		{"-faults", "-1"},                            // faults >= 0
		{"-epoch", "-3"},                             // epoch >= 1
		{"-workload", "canneal", "-ops", "0"},        // ops >= 1 under -workload
		{"-workload", "canneal", "-max-cycles", "0"}, // max-cycles >= 1 under -workload
	} {
		if code, stdout := try(bad); code != 2 || stdout != "" {
			t.Errorf("drainsim %v: exit %d, printed %q; want exit 2 and nothing run", bad, code, stdout)
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("-sweep -trace created the trace file")
	}
}

// One tiny run, pinned line for line: the output of an undisturbed run
// is part of the CLI's contract.
func TestTinyRunPinned(t *testing.T) {
	const want = `topology: 3x3 mesh, 0 faults, 9 routers, 24 links, diameter 4
scheme: drain (VNets=1, VCs/VNet=2)
traffic: uniform_random at 0.100 packets/node/cycle
accepted: 0.0989 packets/node/cycle
latency: avg=6.5 p99=19 cycles
hops: avg=2.02, misroutes/1k packets: 9.0
drains: 2 (0 full), 0 packet-hops forced, 0 drain-ejections
`
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("-mesh 3x3 -rate 0.1 -warmup 100 -measure 500 -epoch 256"), &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 || stdout.String() != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr.String(), stdout.String(), want)
	}
}

// -trace writes the run's events as JSON lines, every line one object
// with a kind, drain windows among them, and watching changes nothing
// the run prints.
func TestTraceWritesJSONLines(t *testing.T) {
	args := strings.Fields("-mesh 3x3 -rate 0.1 -warmup 100 -measure 500 -epoch 256")
	var plain, traced, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if code := run(append(args, "-trace", path), &traced, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if traced.String() != plain.String() {
		t.Errorf("traced run printed\n%s\nuntraced\n%s", traced.String(), plain.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Kind == "" {
			t.Fatalf("line %q: kind %q, %v", sc.Text(), e.Kind, err)
		}
		kinds[e.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["drain_start"] == 0 || kinds["drain_end"] == 0 || kinds["eject"] == 0 || kinds["run_end"] != 1 {
		t.Errorf("event counts %v: want ejections, drain windows and one run end", kinds)
	}
}

// An incomplete workload run prints its stall, each node waiting on the
// next: here the 4x4 endpoint stall sim.TestVN1EndpointStall pins, whose
// node 0 Request head (class 0) waits on Response (class 2) injection
// capacity.
func TestIncompleteWorkloadPrintsWaits(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("-mesh 4x4 -workload canneal -ops 2000 -seed 10 -epoch 8192 -max-cycles 300000"), &stdout, &stderr)
	out := stdout.String()
	if code != 0 || !strings.Contains(out, "completed=false") ||
		!strings.Contains(out, "\nstall at cycle 300000: local-port capacity cycle; each node waits on the next, the last on #0\n"+
			"  #0 ejection queue of class 0 at router 0 (4 queued), head: ") ||
		!strings.Contains(out, "\n  #1 injection queue of class 2 at router 0 (16 queued), head: ") {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant an incomplete run naming node 0's Request head wait", code, stderr.String(), out)
	}
}
