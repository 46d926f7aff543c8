package lint

import (
	"go/ast"
	"go/types"
)

// runMapRange flags `for range` over a map in the deterministic packages.
// Go randomizes map iteration order per run, so any map-order loop that
// feeds output, state mutation, or RNG consumption diverges between runs
// with the same seed.
//
// One shape is allowed, collect-then-sort: the loop body's only effect
// is appending the key and/or value to a local slice (optionally behind
// a call-free guard), and that slice is later passed to a sort function
// in the same function body before any other use. Sorting erases the
// iteration order, so the result is deterministic. There is no
// suppression directive: an order-insensitive reduction is rewritten
// over sorted keys like everything else.
func runMapRange(c *Config, pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if !p.Target || !c.isDeterministic(p.ImportPath) {
			continue
		}
		for _, f := range p.Files {
			_, bad := p.parseDirectives(f)
			out = append(out, bad...)
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.typeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if p.isCollectThenSort(f, rng) {
					return true
				}
				out = append(out, p.finding("maprange", rng,
					"iteration over map %s has randomized order; collect and sort the keys first", p.typeStr(t)))
				return true
			})
		}
	}
	return out
}

// typeStr renders a type relative to the package under analysis, so
// same-package names print without a qualifier.
func (p *Package) typeStr(t types.Type) string {
	return types.TypeString(t, types.RelativeTo(p.Types))
}

// isCollectThenSort recognizes the canonical deterministic idiom:
//
//	for k, v := range m {
//	    if <call-free guard> {        // optional
//	        s = append(s, k)          // or v; s is a local slice
//	    }
//	}
//	sort.X(s...) / slices.Sort(s)     // later in the same function
func (p *Package) isCollectThenSort(file *ast.File, rng *ast.RangeStmt) bool {
	stmt := singleStmt(rng.Body.List)
	if ifs, ok := stmt.(*ast.IfStmt); ok {
		if ifs.Else != nil || ifs.Init != nil || hasCallOrAssign(ifs.Cond) {
			return false
		}
		stmt = singleStmt(ifs.Body.List)
	}
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	slice := p.objectOf(lhs)
	if slice == nil {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if obj := p.objectOf(fn); obj != nil {
		if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return false // shadowed append
		}
	}
	if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || p.objectOf(base) != slice {
		return false
	}
	// The appended element must be the range key or value variable.
	elem, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	elemObj := p.objectOf(elem)
	if elemObj == nil || (elemObj != p.rangeVar(rng.Key) && elemObj != p.rangeVar(rng.Value)) {
		return false
	}
	// A sort of the collected slice must follow the loop.
	return p.sortedAfter(file, rng, slice)
}

// rangeVar resolves a range clause variable to its object.
func (p *Package) rangeVar(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return p.objectOf(id)
}

// singleStmt returns the sole statement of a block, or nil.
func singleStmt(list []ast.Stmt) ast.Stmt {
	if len(list) != 1 {
		return nil
	}
	return list[0]
}

// hasCallOrAssign reports whether the expression contains a call or a
// function literal (either could be order-dependently side-effecting).
func hasCallOrAssign(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			found = true
		}
		return !found
	})
	return found
}

// sortFuncs are the recognized sorters (package selector → functions).
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether slice is passed, after the range loop, to a
// recognized sort function within the same enclosing function body.
func (p *Package) sortedAfter(file *ast.File, rng *ast.RangeStmt, slice types.Object) bool {
	var enclosing ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= rng.Pos() && rng.End() <= n.End() {
				enclosing = n // innermost wins: keep descending
			}
		}
		return true
	})
	if enclosing == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := p.objectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		fns, ok := sortFuncs[pkgName.Imported().Path()]
		if !ok || !fns[sel.Sel.Name] {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && p.objectOf(arg) == slice {
			found = true
		}
		return !found
	})
	return found
}
