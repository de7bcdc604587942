// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface that wcojlint's analyzers
// are written against. The repository vendors no third-party modules
// (the engine itself is stdlib-only), so rather than importing x/tools
// for its driver we mirror the small part of its API the analyzers
// need: an Analyzer with a Run function, a Pass carrying one
// type-checked package, and positioned Diagnostics. Analyzers written
// against this package are source-compatible with the upstream API
// shape, so they could be lifted onto the real multichecker if the
// module ever grows the dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name (used in diagnostics and
// the -only flag), documentation, and the Run function applied to each
// package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is one (analyzer, package) unit of work. All fields are
// read-only for the Run function except Report, which records
// findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: message form used by vet and staticcheck.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Unit is one loaded, type-checked package ready to be analyzed.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Run applies each analyzer to each unit and returns all diagnostics
// sorted by file position. A nil error from every Run means the
// analysis itself succeeded; the diagnostics carry the findings.
func Run(analyzers []*Analyzer, units []*Unit) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
