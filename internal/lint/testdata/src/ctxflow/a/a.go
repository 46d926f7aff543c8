// Package a exercises the ctxflow analyzer: ctx-first entry points,
// no stored contexts, and simulation loops that consult their ctx.
package a

import "context"

type machine struct{ cycle int }

func (m *machine) Step() { m.cycle++ }

// RunLoop steps with a cancellation check: the right shape.
func RunLoop(ctx context.Context, m *machine, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.Step()
	}
	return nil
}

// RunBad takes a ctx but its stepping loop never consults it.
func RunBad(ctx context.Context, m *machine, n int) {
	for i := 0; i < n; i++ { // want `\[ctxflow\] RunBad takes a context but this simulation loop never consults it`
		m.Step()
	}
}

// RunFine is the compatibility-wrapper pattern: allowed because the
// ctx-first sibling exists.
func RunFine(m *machine, n int) { _ = RunFineContext(context.Background(), m, n) }

// RunFineContext is the cancellable variant.
func RunFineContext(ctx context.Context, m *machine, n int) error {
	return RunLoop(ctx, m, n)
}

// RunOrphan has neither a ctx parameter nor a *Context sibling.
func RunOrphan(m *machine) { // want `\[ctxflow\] exported entry point RunOrphan is not cancellable`
	m.Step()
}

// ForEachItem fans work out with no way to stop it.
func ForEachItem(n int, f func(int)) { // want `\[ctxflow\] exported entry point ForEachItem is not cancellable`
	for i := 0; i < n; i++ {
		f(i)
	}
}

// badCarrier stores a context with no annotation.
type badCarrier struct {
	ctx context.Context // want `\[ctxflow\] struct badCarrier stores a context.Context`
	v   int
}

// okCarrier is the annotated queue-element shape.
type okCarrier struct {
	//drain:ctxcarrier fixture: queue element carrying the submitter's ctx across the worker channel
	ctx context.Context
	v   int
}

// A directive without a reason is itself a finding.
//
//drain:coldpath
// want:-1 `\[directive\] //drain:coldpath requires a reason`
func sumAll(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func use(b badCarrier, o okCarrier) (context.Context, context.Context) { return b.ctx, o.ctx }
