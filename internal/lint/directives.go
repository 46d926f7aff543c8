package lint

import (
	"go/ast"
	"strings"
)

// Directive kinds.
const (
	dirHotpath    = "hotpath"
	dirColdpath   = "coldpath"
	dirCtxcarrier = "ctxcarrier"
)

// DirectiveKinds lists every directive the analyzers accept, in the
// order they are documented. The parse switch, the DESIGN.md directive
// census (TestDirectiveCensus) and the docs all derive from this one
// list, so a new directive cannot be added without showing up in each.
var DirectiveKinds = []string{dirHotpath, dirColdpath, dirCtxcarrier}

const dirPrefix = "//drain:"

// directive is one parsed //drain: comment.
type directive struct {
	kind   string
	reason string
	line   int // line the comment sits on
}

// fileDirectives indexes a file's //drain: comments by line.
type fileDirectives struct {
	byLine map[int][]directive
}

// parseDirectives scans every comment in the file. Malformed directives
// (unknown kind, missing reason) are reported as findings against the
// given analyzer name ("drainvet" when run from the driver) so a typoed
// or bare suppression never silently disables a check.
func (p *Package) parseDirectives(f *ast.File) (fileDirectives, []Finding) {
	d := fileDirectives{byLine: map[int][]directive{}}
	var bad []Finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, dirPrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, dirPrefix)
			kind, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			line := p.Fset.Position(c.Pos()).Line
			if !knownDirective(kind) {
				bad = append(bad, p.finding("directive", c,
					"unknown directive %q (known: %s)", dirPrefix+kind, strings.Join(DirectiveKinds, ", ")))
				continue
			}
			if reason == "" {
				bad = append(bad, p.finding("directive", c,
					"//drain:%s requires a reason: //drain:%s <why this is sound>", kind, kind))
				continue
			}
			d.byLine[line] = append(d.byLine[line], directive{kind: kind, reason: reason, line: line})
		}
	}
	return d, bad
}

// knownDirective reports whether kind is in the directive vocabulary.
func knownDirective(kind string) bool {
	for _, k := range DirectiveKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// hasInRange reports whether a directive of the given kind sits on any
// line in [start, end].
func (d fileDirectives) hasInRange(kind string, start, end int) bool {
	for l := start; l <= end; l++ {
		for _, dir := range d.byLine[l] {
			if dir.kind == kind {
				return true
			}
		}
	}
	return false
}

// funcHas reports whether fn carries the directive (with a reason)
// anywhere in its doc comment block or on its declaration line.
func (p *Package) funcHas(d fileDirectives, fn *ast.FuncDecl, kind string) bool {
	start := p.Fset.Position(fn.Pos()).Line
	if fn.Doc != nil {
		start = p.Fset.Position(fn.Doc.Pos()).Line
	}
	return d.hasInRange(kind, start, p.Fset.Position(fn.Name.Pos()).Line)
}
