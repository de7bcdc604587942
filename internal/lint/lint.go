// Package lint implements wcojlint, the project-specific static
// analysis suite. Each analyzer mechanically enforces one invariant
// that the engine's concurrency and snapshot-isolation design relies
// on but the compiler cannot check:
//
//   - snapshotonce: prepared-query state is read through its
//     atomic.Pointer exactly once per call, and DB fields marked
//     guardedby are only touched with their mutex held;
//   - valueident: tuples handed to emit callbacks are never mutated
//     or retained by alias.
//
// Plus two general-purpose passes (nilness, unusedwrite) so one binary
// runs everything.
//
// Analyzers are configured in source via machine-readable directive
// comments, accepted with either prefix `//lint:` or `//wcojlint:`
// (the latter is what the codebase uses, since staticcheck reserves
// the bare `//lint:` namespace for its own directives):
//
//	//wcojlint:locked <reason>     function runs with the lock held by its caller
//	//wcojlint:guardedby <mutex>   struct field is guarded by the named mutex field
//	//wcojlint:retains <reason>    function takes ownership of its tuple argument
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"wcoj/internal/lint/analysis"
)

// Suite returns every analyzer wcojlint runs, custom passes first.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		SnapshotOnce,
		ValueIdent,
		Nilness,
		UnusedWrite,
	}
}

// directive is one parsed machine-readable comment.
type directive struct {
	kind string // locked | guardedby | retains
	arg  string // reason or mutex field name
	pos  token.Pos
	col  int // start column: distinguishes own-line from trailing comments
}

// directiveIndex maps file -> line -> directives ending on that line.
type directiveIndex map[string]map[int][]directive

// parseDirectives scans every comment in the pass for lint directives.
func parseDirectives(pass *analysis.Pass) directiveIndex {
	idx := make(directiveIndex)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				var rest string
				switch {
				case strings.HasPrefix(text, "//wcojlint:"):
					rest = text[len("//wcojlint:"):]
				case strings.HasPrefix(text, "//lint:"):
					rest = text[len("//lint:"):]
				default:
					continue
				}
				kind, arg, _ := strings.Cut(rest, " ")
				switch kind {
				case "locked", "guardedby", "retains":
				default:
					continue // staticcheck's own //lint: directives etc.
				}
				pos := pass.Fset.Position(c.End())
				m := idx[pos.Filename]
				if m == nil {
					m = make(map[int][]directive)
					idx[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], directive{
					kind: kind, arg: strings.TrimSpace(arg), pos: c.Pos(),
					col: pass.Fset.Position(c.Pos()).Column,
				})
			}
		}
	}
	return idx
}

// at returns the directive attached to the node starting at pos:
// trailing on the same line, or on the line directly above when the
// comment stands on its own at the node's indentation (a trailing
// comment on the previous line belongs to that line's code, not to
// this node).
func (idx directiveIndex) at(fset *token.FileSet, pos token.Pos, kind string) (directive, bool) {
	p := fset.Position(pos)
	m := idx[p.Filename]
	if m == nil {
		return directive{}, false
	}
	for _, d := range m[p.Line] {
		if d.kind == kind {
			return d, true
		}
	}
	for _, d := range m[p.Line-1] {
		if d.kind == kind && d.col == p.Column {
			return d, true
		}
	}
	return directive{}, false
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedIn reports whether t (after deref) is the named type
// pkgPath.name; generic instantiations match their origin name.
func namedIn(t types.Type, pkgPath string, names ...string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// selectionOf returns the type of the selector's operand (X), using
// type info; nil when unknown.
func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walkSameFunc walks the subtree of n but does not descend into
// nested function literals: their bodies execute on their own
// schedule, not as part of the enclosing statement.
func walkSameFunc(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return visit(m)
	})
}

// structFieldOwner resolves a selector to its field object when the
// selection is a field access; nil otherwise.
func fieldObject(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok {
		return v
	}
	return nil
}
