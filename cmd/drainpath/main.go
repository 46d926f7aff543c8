// Command drainpath runs DRAIN's offline algorithm on a topology and
// prints the drain path and per-router turn tables (paper §III-B and
// Fig. 6).
//
//	drainpath -mesh 4x4
//	drainpath -mesh 8x8 -faults 8 -fault-seed 3 -alg search
//	drainpath -chiplets 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"drain/internal/drainpath"
	"drain/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with its edges injected, so tests can drive
// flag parsing and golden-compare the output. Exit codes: 0 success,
// 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drainpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mesh := fs.String("mesh", "4x4", "mesh dimensions WxH")
	faults := fs.Int("faults", 0, "random link failures")
	faultSeed := fs.Uint64("fault-seed", 1, "fault pattern seed")
	alg := fs.String("alg", "euler", "path algorithm: euler (Hierholzer) or search (Hawick-James style)")
	chiplets := fs.Int("chiplets", 0, "build a chiplet system of this many 2x2 chiplets instead of a mesh")
	turns := fs.Bool("turns", false, "print per-router turn tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "drainpath:", err)
		return 1
	}

	var (
		g   *topology.Graph
		err error
	)
	if *chiplets > 0 {
		g, err = topology.NewChiplet(*chiplets, 2, 2)
	} else {
		var w, h int
		if _, serr := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); serr != nil {
			return fail(fmt.Errorf("bad -mesh %q: %v", *mesh, serr))
		}
		var m *topology.Mesh
		if m, err = topology.NewMesh(w, h); err == nil {
			g = m.Graph
		}
	}
	if err == nil {
		g, err = topology.FaultPattern(g, *faults, *faultSeed)
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "topology: %d routers, %d bidirectional edges, %d unidirectional links, diameter %d\n",
		g.N(), len(g.Edges()), g.NumLinks(), g.Diameter())

	start := time.Now()
	var p *drainpath.Path
	switch *alg {
	case "euler":
		p, err = drainpath.FindEulerian(g)
	case "search":
		p, err = drainpath.FindCoveringCycle(g, 0)
	default:
		err = fmt.Errorf("unknown -alg %q", *alg)
	}
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	if err := drainpath.Validate(g, p); err != nil {
		return fail(fmt.Errorf("internal error: produced path is invalid: %w", err))
	}
	fmt.Fprintf(stdout, "drain path found in %v: %d links, covers all links, single cycle\n", elapsed, p.Len())
	fmt.Fprintf(stdout, "path: %s\n", p)
	if *turns {
		fmt.Fprintln(stdout, "\nturn tables (input link -> output link per router):")
		tt := p.TurnTable(g)
		for r, tab := range tt {
			ins, outs := tab[0], tab[1]
			if len(ins) == 0 {
				continue
			}
			var b strings.Builder
			for i := range ins {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%v→%v", g.Link(ins[i]), g.Link(outs[i]))
			}
			fmt.Fprintf(stdout, "  router %2d: %s\n", r, b.String())
		}
	}
	return 0
}
