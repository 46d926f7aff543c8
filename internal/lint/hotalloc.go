package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runHotAlloc turns the TestStepAllocs runtime guard (0 allocs/cycle in
// steady state) into a compile-time diagnostic that names the exact
// line. It computes the set of functions statically reachable from the
// hot-path roots (noc.Network.Step/StepContext plus any function marked
// //drain:hotpath) by walking the go/types call graph across the whole
// module, then flags allocation-introducing constructs inside them:
//
//   - calls into package fmt, and string concatenation
//   - make/new, slice/map composite literals, map inserts
//   - &T{...} (escaping composite literal) and concrete→interface
//     conversions at call sites or assignments (boxing)
//   - append whose destination is not a scratch slice (a parameter, a
//     struct field, or a local derived from one via s[:0]/append)
//   - escaping function literals and method values (closure allocation)
//   - go statements
//   - direct construction of a pool-owned type (Config.PooledTypes):
//     &T{...} or new(T) bypasses the type's free-list, so it gets a
//     pool-specific diagnostic pointing at the sanctioned constructor
//
// Functions marked //drain:coldpath <reason> are pruned from the walk:
// the escape hatch for amortized-growth and failure paths that cannot
// run in steady state. Dynamic calls (func values, interface methods)
// are not followed — keep hot-path dispatch static.
func runHotAlloc(c *Config, pkgs []*Package) []Finding {
	idx := buildFuncIndex(pkgs)
	hot := idx.reachable(idx.rootsOf(c.HotRoots))
	var out []Finding
	for _, fn := range hot {
		d := idx[fn]
		if !d.pkg.Target {
			continue
		}
		out = append(out, checkHotFunc(c, d.pkg, fn, d.decl)...)
	}
	return out
}

// checkHotFunc scans one hot function body for allocation sources.
func checkHotFunc(c *Config, p *Package, fn *types.Func, decl *ast.FuncDecl) []Finding {
	var out []Finding
	scratch := scratchVars(p, decl)
	parents := parentMap(decl)
	name := fn.Name()

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			out = append(out, checkHotCall(c, p, name, node, scratch)...)
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(p.typeOf(node)) {
				out = append(out, p.finding("hotalloc", node,
					"%s is hot-path reachable: string concatenation allocates", name))
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && len(node.Lhs) == 1 && isStringType(p.typeOf(node.Lhs[0])) {
				out = append(out, p.finding("hotalloc", node,
					"%s is hot-path reachable: string concatenation allocates", name))
			}
			out = append(out, checkBoxingAssign(p, name, node)...)
			out = append(out, checkMapInsert(p, name, node)...)
		case *ast.CompositeLit:
			t := p.typeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				out = append(out, p.finding("hotalloc", node,
					"%s is hot-path reachable: slice literal allocates", name))
			case *types.Map:
				out = append(out, p.finding("hotalloc", node,
					"%s is hot-path reachable: map literal allocates", name))
			default:
				if u, ok := parents[node].(*ast.UnaryExpr); ok && u.Op == token.AND {
					if isPooledType(c, t) {
						out = append(out, p.finding("hotalloc", node,
							"%s is hot-path reachable: &%s{...} bypasses the %s free-list pool (acquire through its pool constructor; the pool's coldpath miss is the only sanctioned allocation site)", name, p.typeStr(t), p.typeStr(t)))
					} else {
						out = append(out, p.finding("hotalloc", node,
							"%s is hot-path reachable: &%s{...} escapes to the heap", name, p.typeStr(t)))
					}
				}
			}
		case *ast.FuncLit:
			if funcLitEscapes(node, parents) {
				out = append(out, p.finding("hotalloc", node,
					"%s is hot-path reachable: escaping func literal allocates its closure", name))
			}
		case *ast.GoStmt:
			out = append(out, p.finding("hotalloc", node,
				"%s is hot-path reachable: go statement allocates a goroutine", name))
		case *ast.SelectorExpr:
			// Method value (bound method not immediately called).
			if mfn, ok := p.objectOf(node.Sel).(*types.Func); ok && mfn.Type().(*types.Signature).Recv() != nil {
				if call, ok := parents[node].(*ast.CallExpr); !ok || call.Fun != ast.Node(node) {
					out = append(out, p.finding("hotalloc", node,
						"%s is hot-path reachable: method value %s allocates its bound closure", name, node.Sel.Name))
				}
			}
		}
		return true
	})
	return out
}

// checkHotCall handles builtins (make/new/append), fmt, and boxing at
// call sites.
func checkHotCall(c *Config, p *Package, name string, call *ast.CallExpr, scratch map[types.Object]bool) []Finding {
	var out []Finding
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := p.objectOf(fun).(*types.Builtin); isBuiltin || p.objectOf(fun) == nil {
			switch fun.Name {
			case "make":
				out = append(out, p.finding("hotalloc", call,
					"%s is hot-path reachable: make allocates (pre-size in the constructor or reuse scratch; mark amortized growth //drain:coldpath)", name))
			case "new":
				if len(call.Args) == 1 && isPooledType(c, p.typeOf(call.Args[0])) {
					out = append(out, p.finding("hotalloc", call,
						"%s is hot-path reachable: new(%s) bypasses the %s free-list pool (acquire through its pool constructor; the pool's coldpath miss is the only sanctioned allocation site)", name, p.typeStr(p.typeOf(call.Args[0])), p.typeStr(p.typeOf(call.Args[0]))))
				} else {
					out = append(out, p.finding("hotalloc", call,
						"%s is hot-path reachable: new allocates", name))
				}
			case "append":
				if len(call.Args) > 0 && !isScratchExpr(p, call.Args[0], scratch) {
					out = append(out, p.finding("hotalloc", call,
						"%s is hot-path reachable: append to non-scratch slice may allocate (grow a reused field/parameter buffer instead)", name))
				}
			case "panic":
				// Terminal; the simulation is over anyway.
			}
			return out
		}
	}
	callee := p.calleeOf(call)
	if callee == nil || callee.Pkg() == nil {
		return out
	}
	if callee.Pkg().Path() == "fmt" {
		out = append(out, p.finding("hotalloc", call,
			"%s is hot-path reachable: fmt.%s allocates (format off the hot path)", name, callee.Name()))
		return out
	}
	// Concrete→interface conversion at the call site boxes the argument.
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return out
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(p, pt, arg) {
			out = append(out, p.finding("hotalloc", arg,
				"%s is hot-path reachable: passing %s as interface %s boxes the value", name, p.typeStr(p.typeOf(arg)), p.typeStr(pt)))
		}
	}
	return out
}

// checkBoxingAssign flags concrete→interface assignments.
func checkBoxingAssign(p *Package, name string, assign *ast.AssignStmt) []Finding {
	var out []Finding
	if len(assign.Lhs) != len(assign.Rhs) || assign.Tok == token.DEFINE {
		return out
	}
	for i, lhs := range assign.Lhs {
		lt := p.typeOf(lhs)
		if lt == nil {
			continue
		}
		if boxes(p, lt, assign.Rhs[i]) {
			out = append(out, p.finding("hotalloc", assign.Rhs[i],
				"%s is hot-path reachable: assigning %s into interface %s boxes the value", name, p.typeStr(p.typeOf(assign.Rhs[i])), p.typeStr(lt)))
		}
	}
	return out
}

// checkMapInsert flags assignments through a map index (may allocate or
// grow the map).
func checkMapInsert(p *Package, name string, assign *ast.AssignStmt) []Finding {
	var out []Finding
	for _, lhs := range assign.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := p.typeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, p.finding("hotalloc", lhs,
					"%s is hot-path reachable: map insert may allocate", name))
			}
		}
	}
	return out
}

// boxes reports whether assigning/passing expr into target type performs
// an interface conversion of a concrete value.
func boxes(p *Package, target types.Type, expr ast.Expr) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	at := p.typeOf(expr)
	if at == nil || types.IsInterface(at) {
		return false
	}
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// scratchVars computes the function's scratch slice set: slice-typed
// parameters (caller-provided buffers), plus locals derived from a
// scratch expression via slicing or append. Struct-field selectors are
// scratch by definition (fields persist across cycles). Runs to a small
// fixpoint to handle later-derived locals.
func scratchVars(p *Package, decl *ast.FuncDecl) map[types.Object]bool {
	scratch := map[types.Object]bool{}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, id := range field.Names {
				obj := p.objectOf(id)
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					scratch[obj] = true
				}
			}
		}
	}
	for i := 0; i < 5; i++ {
		changed := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for j, lhs := range assign.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.objectOf(id)
				if obj == nil || scratch[obj] {
					continue
				}
				if isScratchExpr(p, assign.Rhs[j], scratch) {
					scratch[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return scratch
}

// isScratchExpr reports whether e denotes a reused buffer: a struct
// field selector, a known scratch variable, a slice of one, or an append
// to one.
func isScratchExpr(p *Package, e ast.Expr, scratch map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return scratch[p.objectOf(e)]
	case *ast.SelectorExpr:
		// A field selector: the backing array lives beyond this call.
		if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		return false
	case *ast.SliceExpr:
		return isScratchExpr(p, e.X, scratch)
	case *ast.IndexExpr:
		// Element of a persistent container (e.g. n.injQ[r][class]).
		return isScratchExpr(p, e.X, scratch)
	case *ast.CallExpr:
		if fn, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && fn.Name == "append" && len(e.Args) > 0 {
			if obj := p.objectOf(fn); obj == nil || isBuiltinObj(obj) {
				return isScratchExpr(p, e.Args[0], scratch)
			}
		}
		return false
	}
	return false
}

func isBuiltinObj(o types.Object) bool {
	_, ok := o.(*types.Builtin)
	return ok
}

// isPooledType reports whether t names a type listed in
// Config.PooledTypes ("pkgsuffix.Type" spec syntax, same matching rule
// as HotRoots' package suffixes).
func isPooledType(c *Config, t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	for _, spec := range c.PooledTypes {
		i := strings.LastIndex(spec, ".")
		if i < 0 || spec[i+1:] != obj.Name() {
			continue
		}
		if pkg := spec[:i]; path == pkg || strings.HasSuffix(path, "/"+pkg) {
			return true
		}
	}
	return false
}

// parentMap records each node's parent within the declaration.
func parentMap(decl *ast.FuncDecl) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// funcLitEscapes reports whether a function literal leaves the enclosing
// frame: anything but (a) being assigned to a local variable or (b)
// being called immediately (including via defer). Non-escaping literals
// are stack-allocated by the compiler, so only escaping ones are flagged.
func funcLitEscapes(lit *ast.FuncLit, parents map[ast.Node]ast.Node) bool {
	var node ast.Node = lit
	parent := parents[node]
	for {
		paren, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		node = paren
		parent = parents[node]
	}
	switch parent := parent.(type) {
	case *ast.AssignStmt:
		for _, rhs := range parent.Rhs {
			if ast.Unparen(rhs) == ast.Expr(lit) {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		return ast.Unparen(parent.Fun) != ast.Expr(lit) // escapes when passed as an argument
	}
	return true
}
