package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"wcoj/internal/lint/analysis"
)

// Deprecated flags internal call sites of symbols documented with a
// `// Deprecated:` paragraph (the convention godoc and staticcheck
// recognize). Export data carries no doc comments, so
// the symbol table is computed over all loaded units in Prepare and
// shared by key; uses inside the declaration of a deprecated symbol
// are exempt (a deprecated wrapper may delegate to another), and test
// files never reach the analyzer (the loader skips them), so tests may
// keep exercising the compatibility surface.
var Deprecated = &analysis.Analyzer{
	Name:    "deprecated",
	Doc:     "internal code must not call symbols documented as Deprecated",
	Run:     runDeprecated,
	Prepare: prepareDeprecated,
}

// deprecatedFacts maps symbol key (pkgPath.[Recv.]Name) to the first
// line of its deprecation note.
type deprecatedFacts struct {
	notes map[string]string
}

// deprecationNote extracts the note from a doc comment, or "".
func deprecationNote(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, " ")
		if strings.HasPrefix(text, "Deprecated:") {
			return strings.TrimSpace(strings.TrimPrefix(text, "Deprecated:"))
		}
	}
	return ""
}

// objectKey renders the cross-unit key of any deprecatable object.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return funcKey(fn)
	}
	key := obj.Name()
	if obj.Pkg() != nil {
		key = obj.Pkg().Path() + "." + key
	}
	return key
}

func prepareDeprecated(units []*analysis.Unit) (any, error) {
	notes := make(map[string]string)
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if note := deprecationNote(decl.Doc); note != "" {
						if obj := u.Info.Defs[decl.Name]; obj != nil {
							notes[objectKey(obj)] = note
						}
					}
				case *ast.GenDecl:
					declNote := deprecationNote(decl.Doc)
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							note := deprecationNote(spec.Doc)
							if note == "" {
								note = declNote
							}
							if note == "" {
								continue
							}
							if obj := u.Info.Defs[spec.Name]; obj != nil {
								notes[objectKey(obj)] = note
							}
						case *ast.ValueSpec:
							note := deprecationNote(spec.Doc)
							if note == "" {
								note = declNote
							}
							if note == "" {
								continue
							}
							for _, name := range spec.Names {
								if obj := u.Info.Defs[name]; obj != nil {
									notes[objectKey(obj)] = note
								}
							}
						}
					}
				}
			}
		}
	}
	return &deprecatedFacts{notes: notes}, nil
}

func runDeprecated(pass *analysis.Pass) error {
	facts, _ := pass.Facts.(*deprecatedFacts)
	if facts == nil || len(facts.notes) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			// Uses inside the declaration of a deprecated symbol are
			// exempt: the compatibility shims delegate to each other.
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					if _, dep := facts.notes[objectKey(obj)]; dep {
						continue
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil {
					return true
				}
				if note, dep := facts.notes[objectKey(obj)]; dep {
					pass.Reportf(id.Pos(), "%s is deprecated: %s", id.Name, note)
				}
				return true
			})
		}
	}
	return nil
}
