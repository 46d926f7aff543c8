package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runCtxFlow enforces the cancellation conventions PR 2 established
// (ctx-first APIs, StepContext polling every CancelCheckEvery cycles):
//
//  1. An exported Run*/ForEach* entry point must take context.Context as
//     its first parameter, or have a sibling <name>Context in the same
//     package that does (the compatibility-wrapper pattern:
//     RunSynthetic → RunSyntheticContext).
//  2. No struct may store a context.Context in a field. Contexts are
//     call-scoped; a stored ctx outlives its request and silently stops
//     cancelling. The one legitimate shape — a queue/message carrier
//     moving a request ctx between goroutines — must be annotated
//     //drain:ctxcarrier <reason>.
//  3. Inside a function that takes a ctx, a loop that advances the
//     simulation (calls something named Step/StepContext/Tick) must
//     mention that ctx somewhere in its body: a cycle-bounded loop that
//     never consults ctx.Done()/StepContext runs to completion no matter
//     how long ago the caller cancelled.
func runCtxFlow(c *Config, pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if !p.Target {
			continue
		}
		// Sibling lookup is package-wide: a *Context variant may live in
		// a different file than its wrapper.
		decls := map[string]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[declKey(fd)] = fd
				}
			}
		}
		for _, f := range p.Files {
			dirs, bad := p.parseDirectives(f)
			out = append(out, bad...) // malformed directives, reported module-wide
			for _, d := range f.Decls {
				switch node := d.(type) {
				case *ast.FuncDecl:
					out = append(out, p.checkEntryPoint(node, decls)...)
					out = append(out, p.checkSimLoops(node)...)
				case *ast.GenDecl:
					out = append(out, p.checkCtxFields(node, dirs)...)
				}
			}
		}
	}
	return out
}

// declKey is "RecvType.Name" or "Name", for sibling lookup within a file.
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// firstParamIsCtx reports whether the declaration's first parameter is a
// context.Context.
func (p *Package) firstParamIsCtx(fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	t := p.typeOf(fd.Type.Params.List[0].Type)
	return t != nil && isContextType(t)
}

// checkEntryPoint enforces rule 1 on exported Run*/ForEach* functions.
func (p *Package) checkEntryPoint(fd *ast.FuncDecl, decls map[string]*ast.FuncDecl) []Finding {
	name := fd.Name.Name
	if !ast.IsExported(name) || fd.Body == nil {
		return nil
	}
	if !strings.HasPrefix(name, "Run") && !strings.HasPrefix(name, "ForEach") {
		return nil
	}
	if p.firstParamIsCtx(fd) {
		return nil
	}
	if strings.HasSuffix(name, "Context") {
		return []Finding{p.finding("ctxflow", fd.Name,
			"%s must take context.Context as its first parameter", name)}
	}
	key := declKey(fd) + "Context"
	if sibling, ok := decls[key]; ok && p.firstParamIsCtx(sibling) {
		return nil // compatibility wrapper over the ctx-first variant
	}
	return []Finding{p.finding("ctxflow", fd.Name,
		"exported entry point %s is not cancellable: take context.Context as the first parameter, or provide a %sContext sibling and delegate to it", name, name)}
}

// checkCtxFields enforces rule 2 on struct type declarations.
func (p *Package) checkCtxFields(decl *ast.GenDecl, dirs fileDirectives) []Finding {
	var out []Finding
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			t := p.typeOf(field.Type)
			if t == nil || !isContextType(t) {
				continue
			}
			// The directive sits on the field's own line or in the doc
			// comment directly above it (up to three lines).
			if line := p.Fset.Position(field.Pos()).Line; dirs.hasInRange(dirCtxcarrier, line-3, line) {
				continue
			}
			out = append(out, p.finding("ctxflow", field,
				"struct %s stores a context.Context; contexts are call-scoped — pass ctx as a parameter (queue/message carriers may annotate //drain:ctxcarrier <reason>)", ts.Name.Name))
		}
	}
	return out
}

// simAdvanceNames are the calls that advance simulated time.
var simAdvanceNames = map[string]bool{"Step": true, "StepContext": true, "Tick": true}

// checkSimLoops enforces rule 3: simulation-advancing loops inside a
// ctx-taking function must consult that ctx.
func (p *Package) checkSimLoops(fd *ast.FuncDecl) []Finding {
	ctxObjs := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if t := p.typeOf(field.Type); t != nil && isContextType(t) {
				for _, id := range field.Names {
					if obj := p.objectOf(id); obj != nil {
						ctxObjs[obj] = true
					}
				}
			}
		}
	}
	if len(ctxObjs) == 0 || fd.Body == nil {
		return nil
	}
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		advances, consultsCtx := false, false
		ast.Inspect(body, func(m ast.Node) bool {
			switch node := m.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok && simAdvanceNames[sel.Sel.Name] {
					advances = true
				}
				if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && simAdvanceNames[id.Name] {
					advances = true
				}
			case *ast.Ident:
				if ctxObjs[p.objectOf(node)] {
					consultsCtx = true
				}
			}
			return true
		})
		if advances && !consultsCtx {
			out = append(out, p.finding("ctxflow", n,
				"%s takes a context but this simulation loop never consults it; call StepContext(ctx) or check ctx.Done() (poll interval: noc.CancelCheckEvery)", fd.Name.Name))
			return false // don't double-report nested loops
		}
		return true
	})
	return out
}
