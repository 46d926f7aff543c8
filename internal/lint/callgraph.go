package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is hotalloc's reachability substrate: a module-wide index
// from function objects to their declarations, root matching against
// "pkgsuffix.Type.Method" specs and //drain: directives, and a BFS over
// static call edges. Dynamic calls (func values, interface methods) are
// not followed anywhere — the repo's convention is that hot dispatch
// stays static, with the engine seam's dynamic edges re-rooted
// explicitly via directives.

// declInfo ties a function object to its declaration, package and the
// declaring file's directives.
type declInfo struct {
	decl *ast.FuncDecl
	pkg  *Package
	dirs fileDirectives
}

// funcIndex maps every module function object to its declaration.
type funcIndex map[*types.Func]declInfo

// buildFuncIndex indexes every function declared in the loaded packages.
func buildFuncIndex(pkgs []*Package) funcIndex {
	idx := funcIndex{}
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			dirs, _ := p.parseDirectives(f) // bad directives reported by maprange/ctxflow
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = declInfo{decl: fd, pkg: p, dirs: dirs}
				}
			}
		}
	}
	return idx
}

// origin unwraps generic instantiations to the declared function.
func origin(fn *types.Func) *types.Func { return fn.Origin() }

// matchesRoot reports whether fn matches a root spec of the form
// "pkgsuffix.Type.Method" or "pkgsuffix.Func".
func matchesRoot(fn *types.Func, spec string) bool {
	full := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		full += named.Obj().Name() + "."
	}
	full += fn.Name()
	return full == spec || strings.HasSuffix(full, "/"+spec)
}

// rootsOf collects the functions matching any of the specs, plus every
// function marked //drain:hotpath.
func (idx funcIndex) rootsOf(specs []string) []*types.Func {
	var roots []*types.Func
	for fn, d := range idx {
		matched := false
		for _, spec := range specs {
			if matchesRoot(fn, spec) {
				matched = true
				break
			}
		}
		if !matched && d.pkg.funcHas(d.dirs, d.decl, dirHotpath) {
			matched = true
		}
		if matched {
			roots = append(roots, fn)
		}
	}
	return roots
}

// reachable runs a BFS from the seed functions over static call edges
// and returns every visited function with a known body, ordered by
// declaration position (deterministic regardless of map iteration).
// Functions marked //drain:coldpath are excluded entirely: their bodies
// are not scanned and their callees not followed.
func (idx funcIndex) reachable(seeds []*types.Func) []*types.Func {
	seen := map[*types.Func]bool{}
	var work []*types.Func
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			work = append(work, fn)
		}
	}
	for _, fn := range seeds {
		add(fn)
	}
	var visited []*types.Func
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		d, ok := idx[fn]
		if !ok || d.decl.Body == nil {
			continue
		}
		if d.pkg.funcHas(d.dirs, d.decl, dirColdpath) {
			continue
		}
		visited = append(visited, fn)
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := d.pkg.calleeOf(call); callee != nil {
				add(origin(callee))
			}
			return true
		})
	}
	sort.Slice(visited, func(i, j int) bool {
		return idx[visited[i]].decl.Pos() < idx[visited[j]].decl.Pos()
	})
	return visited
}
