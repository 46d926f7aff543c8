package main

import (
	"sync"
	"time"
)

// span is one recorded interval. The spans of one operation (window,
// round, job, request batch) share Op; Parent is the ID of the span
// that caused this one, -1 for an operation's root. A layer called once
// per simulated cycle is not one span per call: the loop aggregates its
// calls into one span per (operation, layer) whose Busy is the time
// spent inside the layer and Calls the number of calls, with Start and
// End taken from the enclosing operation. A span's self time is its
// Busy minus its children's Busy.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

// tracer keeps spans in memory; main writes them out at exit when
// -trace-out is given. The lock is for the serve workloads, whose two
// clients record a span per job or per batch of hits; the cycle loops
// aggregate and add a handful of spans per window.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now reads the monotonic clock only (time.Since on a monotonic epoch),
// which costs about half a time.Now; the cycle loops call it five times
// per simulated cycle.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its ID.
func (t *tracer) add(name string, op, parent int, start, end, busy, calls int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Busy: busy, Calls: calls})
	return id
}

// call records one call as a span: busy for its whole duration.
func (t *tracer) call(name string, op, parent int, start, end int64) int {
	return t.add(name, op, parent, start, end, end-start, 1)
}

// layerTime aggregates one layer's calls inside one operation.
type layerTime struct {
	busy  int64
	calls int64
}

func (l *layerTime) add(from, to int64) {
	l.busy += to - from
	l.calls++
}

func (l *layerTime) merge(o layerTime) {
	l.busy += o.busy
	l.calls += o.calls
}

// flush records the aggregate as a child span of the operation's root.
func (l layerTime) flush(t *tracer, name string, op, parent int, start, end int64) {
	if l.calls > 0 {
		t.add(name, op, parent, start, end, l.busy, l.calls)
	}
}
