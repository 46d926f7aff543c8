// Package workload provides synthetic per-application reference-stream
// profiles that stand in for the paper's full-system runs of PARSEC,
// SPLASH-2 and Ligra on gem5 (see DESIGN.md: protocol-deadlock behaviour
// depends on the message-class dependency structure and load intensity,
// not on instruction semantics). Each profile parameterizes a core's
// memory access stream: issue intensity, locality, sharing degree and
// read/write mix. Intensities are calibrated so the relative ordering
// the paper reports holds (e.g. canneal is the most network-intensive
// PARSEC workload, Fig. 3).
package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Profile describes one application's synthetic memory behaviour and
// implements coherence.AccessGen.
type Profile struct {
	// Name identifies the workload (e.g. "canneal").
	Name string
	// Suite is "parsec", "splash2" or "ligra".
	Suite string
	// Issue is the per-cycle probability a core issues a memory access.
	Issue float64
	// PrivateLines / SharedLines size the two address regions (in cache
	// lines); small regions raise hit rates and sharing contention.
	PrivateLines int64
	SharedLines  int64
	// SharedFrac is the probability an access targets the shared region.
	SharedFrac float64
	// WriteFrac is the probability an access is a store.
	WriteFrac float64
}

// sharedBase places the shared region above all private regions.
const sharedBase = int64(1) << 40

// Next implements coherence.AccessGen.
func (p Profile) Next(core int, rng *rand.Rand) (int64, bool) {
	write := rng.Float64() < p.WriteFrac
	if rng.Float64() < p.SharedFrac {
		return sharedBase + rng.Int64N(p.SharedLines), write
	}
	return int64(core)<<20 + rng.Int64N(p.PrivateLines), write
}

// IssueProb implements coherence.AccessGen.
func (p Profile) IssueProb() float64 { return p.Issue }

// PrewarmRange implements coherence.Prewarmer: each core starts with its
// private region resident (full-system simulators reach the same state
// via checkpoint warm-up before measurement).
func (p Profile) PrewarmRange(core int) (first, n int64) {
	return int64(core) << 20, p.PrivateLines
}

// String implements fmt.Stringer.
func (p Profile) String() string { return p.Suite + "/" + p.Name }

// The profile tables. Issue intensities and sharing degrees are synthetic
// calibrations (documented substitution for gem5 full-system runs); the
// orderings mirror the paper's observations.
// Private regions fit the default 256-line L1 (they hit after warm-up);
// network traffic comes from shared-region contention plus writebacks,
// so per-workload injection intensity ≈ Issue × SharedFrac × churn —
// small for blackscholes, largest for canneal, as the paper reports.
var profiles = map[string]Profile{
	// PARSEC (paper Figs. 3 and 13; canneal has the highest injection).
	"blackscholes": {Name: "blackscholes", Suite: "parsec", Issue: 0.04, PrivateLines: 160, SharedLines: 256, SharedFrac: 0.04, WriteFrac: 0.20},
	"bodytrack":    {Name: "bodytrack", Suite: "parsec", Issue: 0.08, PrivateLines: 160, SharedLines: 384, SharedFrac: 0.12, WriteFrac: 0.25},
	"fluidanimate": {Name: "fluidanimate", Suite: "parsec", Issue: 0.10, PrivateLines: 160, SharedLines: 512, SharedFrac: 0.18, WriteFrac: 0.30},
	"swaptions":    {Name: "swaptions", Suite: "parsec", Issue: 0.06, PrivateLines: 160, SharedLines: 256, SharedFrac: 0.07, WriteFrac: 0.22},
	"canneal":      {Name: "canneal", Suite: "parsec", Issue: 0.14, PrivateLines: 192, SharedLines: 2048, SharedFrac: 0.28, WriteFrac: 0.30},

	// SPLASH-2 (paper Fig. 13 companions).
	"barnes": {Name: "barnes", Suite: "splash2", Issue: 0.09, PrivateLines: 160, SharedLines: 768, SharedFrac: 0.22, WriteFrac: 0.28},
	"fft":    {Name: "fft", Suite: "splash2", Issue: 0.12, PrivateLines: 160, SharedLines: 512, SharedFrac: 0.16, WriteFrac: 0.35},
	"lu":     {Name: "lu", Suite: "splash2", Issue: 0.10, PrivateLines: 160, SharedLines: 512, SharedFrac: 0.14, WriteFrac: 0.30},
	"radix":  {Name: "radix", Suite: "splash2", Issue: 0.14, PrivateLines: 160, SharedLines: 768, SharedFrac: 0.20, WriteFrac: 0.40},

	// Ligra graph workloads (paper Fig. 12; 64-core runs). Graph codes
	// have low locality and high read sharing.
	"bfs":        {Name: "bfs", Suite: "ligra", Issue: 0.12, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.35, WriteFrac: 0.15},
	"pagerank":   {Name: "pagerank", Suite: "ligra", Issue: 0.16, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.40, WriteFrac: 0.25},
	"components": {Name: "components", Suite: "ligra", Issue: 0.13, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.35, WriteFrac: 0.30},
	"radii":      {Name: "radii", Suite: "ligra", Issue: 0.14, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.38, WriteFrac: 0.20},
	"triangle":   {Name: "triangle", Suite: "ligra", Issue: 0.11, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.30, WriteFrac: 0.10},
	"bc":         {Name: "bc", Suite: "ligra", Issue: 0.15, PrivateLines: 128, SharedLines: 4096, SharedFrac: 0.40, WriteFrac: 0.25},
}

// Get returns the named profile.
func Get(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
	}
	return p, nil
}

// MustGet is Get but panics on unknown names (for tables in tests/benches).
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Suite returns all profiles of one suite, sorted by name.
func Suite(suite string) []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.Suite == suite {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every profile name, sorted.
func Names() []string {
	var out []string
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Parsec5 returns the five PARSEC workloads used in the paper's Fig. 3.
func Parsec5() []Profile {
	var out []Profile
	for _, n := range []string{"blackscholes", "bodytrack", "canneal", "fluidanimate", "swaptions"} {
		out = append(out, MustGet(n))
	}
	return out
}
