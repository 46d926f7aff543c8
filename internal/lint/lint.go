// Package lint implements drainvet, the simulator's custom static
// analysis. Four analyzers enforce, at build time, the invariants the
// evaluation depends on at run time:
//
//   - maprange: no order-dependent iteration over maps in the
//     deterministic packages (Go randomizes map order per run; anything
//     feeding output or state mutation from it diverges across runs).
//   - nondet: no ambient nondeterminism (wall clock, environment,
//     process-seeded global rand) in the deterministic packages; all
//     randomness flows through an explicitly seeded *rand.Rand.
//   - hotalloc: no allocation-introducing constructs in functions
//     reachable from the per-cycle hot path (noc.Network.Step); the
//     compile-time complement of the TestStepAllocs runtime guard.
//   - ctxflow: long-running entry points are cancellable — Run*/ForEach*
//     take a context.Context first (or have a *Context sibling), no
//     context is stored in a struct field, and simulation loops inside
//     ctx-taking functions actually consult their ctx.
//
// The package is deliberately built on the standard library only
// (go/ast, go/parser, go/types, `go list` for discovery): the module
// has no external dependencies and must stay that way.
//
// # Directives
//
// A small set of comment directives refines the analysis. Every
// suppression requires a written reason; bare directives are themselves
// reported as violations.
//
//	//drain:hotpath <reason>        on a function: extra hot-path root
//	//drain:coldpath <reason>       on a function: excluded from the
//	                                hot-path walk (amortized or failure
//	                                paths that cannot run in steady
//	                                state)
//	//drain:ctxcarrier <reason>     on a context.Context struct field:
//	                                the struct is a queue/message
//	                                carrier moving a request-scoped ctx
//	                                between goroutines
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the canonical "file:line: [analyzer] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check. Run receives every loaded package (the
// hot-path analyzer follows calls across packages) and reports findings
// only in target packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(c *Config, pkgs []*Package) []Finding
}

// Analyzers returns all four analyzers in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "maprange",
			Doc:  "order-dependent map iteration in deterministic packages",
			Run:  runMapRange,
		},
		{
			Name: "nondet",
			Doc:  "ambient nondeterminism (clock, env, global rand) in deterministic packages",
			Run:  runNondet,
		},
		{
			Name: "hotalloc",
			Doc:  "allocation-introducing constructs reachable from the per-cycle hot path",
			Run:  runHotAlloc,
		},
		{
			Name: "ctxflow",
			Doc:  "cancellation hygiene: ctx-first entry points, no stored ctx, loops consult ctx",
			Run:  runCtxFlow,
		},
	}
}

// Config scopes the analyzers.
type Config struct {
	// DeterministicPkgs lists import-path suffixes of the packages whose
	// event ordering must be bit-reproducible; maprange and nondet apply
	// only inside them.
	DeterministicPkgs []string
	// HotRoots names the hot-path roots as "pkgsuffix.Type.Method" or
	// "pkgsuffix.Func"; //drain:hotpath directives add more.
	HotRoots []string
	// PooledTypes names struct types ("pkgsuffix.Type") owned by a
	// deterministic free-list pool. hotalloc flags any direct heap
	// construction of one (&T{...} or new(T)) in hot-reachable code with
	// a pool-specific diagnostic: the pool's constructor is the only
	// sanctioned acquisition path, and its miss path is the only
	// sanctioned allocation site (marked //drain:coldpath).
	PooledTypes []string
}

// DefaultConfig returns the repository's production scope.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"internal/noc",
			"internal/sim",
			"internal/coherence",
			"internal/experiments",
			"internal/routing",
			"internal/spinrec",
		},
		HotRoots: []string{
			"internal/noc.Network.Step",
			"internal/noc.Network.StepContext",
			// The dirty-list ejection sink the synthetic driver hits
			// between Steps.
			"internal/noc.Network.DiscardEjected",
			// Live reconfiguration runs mid-simulation between Steps; the
			// overlay swap, flight drops and buffer evacuations must not
			// allocate (the routing-table rebuild happens outside, in sim).
			"internal/noc.Network.Reconfigure",
			// Drain windows and SPIN recoveries also run between Steps, a
			// full drain rotating up to path-length times: the rotations
			// move packets through Network-owned scratch.
			"internal/noc.Network.DrainRotate",
			"internal/noc.Network.RotateBlockedCycle",
			// The packet pool's acquire/release pair: every packet a run
			// creates flows through these, so they must stay alloc-free
			// except for the pool's own coldpath miss (allocPacket) and
			// the free-list's amortized append growth.
			"internal/noc.Network.NewPacket",
			"internal/noc.Network.ReleasePacket",
		},
		// Packets are pool-owned (internal/noc/pool.go): acquisition goes
		// through Network.NewPacket, and the only heap allocation is the
		// pool's coldpath miss. A bare &Packet{...} or new(Packet) in hot
		// code reintroduces exactly the per-packet churn the pool removes.
		PooledTypes: []string{
			"internal/noc.Packet",
		},
	}
}

// isDeterministic reports whether the import path is in scope for
// maprange and nondet.
func (c *Config) isDeterministic(importPath string) bool {
	for _, s := range c.DeterministicPkgs {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// Analyze runs every analyzer and returns the findings sorted by
// position.
func Analyze(c *Config, pkgs []*Package) []Finding {
	var out []Finding
	for _, a := range Analyzers() {
		out = append(out, a.Run(c, pkgs)...)
	}
	SortFindings(out)
	// Several analyzers parse directives per file; malformed-directive
	// findings would repeat. Keep one of each.
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || f != out[i-1] {
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// SortFindings orders findings by file, line, column, analyzer, message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// finding builds a Finding at the given node.
func (p *Package) finding(analyzer string, node ast.Node, format string, args ...any) Finding {
	pos := p.Fset.Position(node.Pos())
	return Finding{
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// typeOf is Info.TypeOf with a nil guard.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// objectOf resolves an identifier to its object (Uses or Defs).
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// pkgFuncOf resolves a call expression's static callee, or nil for
// dynamic calls (func values, interface methods resolve to the interface
// method object which has no body here).
func (p *Package) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.objectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.objectOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
