package sim

import (
	"context"
	"sync/atomic"

	"drain/internal/noc"
)

// Totals sums the runs made under a context that carries it: every
// RunSyntheticContext and RunAppContext adds itself exactly once, as it
// returns (a cancelled or failed run too, with the cycles it got
// through), so the counts are exact and belong to whoever attached
// them — a server, a test — not to the process. Nothing on the cycle
// path touches it. Cycles is clock advance; Reconfigs and Rerouted the
// live reconfigurations applied and the buffered packets they evacuated
// off failed links.
type Totals struct {
	Runs, Cycles, Reconfigs, Rerouted atomic.Int64
}

type totalsKey struct{}

// WithTotals returns a context under which every run reports to t.
func WithTotals(ctx context.Context, t *Totals) context.Context {
	return context.WithValue(ctx, totalsKey{}, t)
}

// credit adds the run that began at clock cycle0 with counters c0 to
// ctx's Totals, if it has one — by difference, so a reused Runner's
// earlier runs are not counted again.
func (r *Runner) credit(ctx context.Context, cycle0 int64, c0 noc.Counters) {
	t, _ := ctx.Value(totalsKey{}).(*Totals)
	if t == nil {
		return
	}
	t.Runs.Add(1)
	t.Cycles.Add(r.Net.Cycle() - cycle0)
	t.Reconfigs.Add(r.Net.Counters.Reconfigs - c0.Reconfigs)
	t.Rerouted.Add(r.Net.Counters.FaultReroutes - c0.FaultReroutes)
}
