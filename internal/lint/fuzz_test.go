package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"wcoj/internal/lint/analysis"
)

// validKinds is the directive vocabulary the parser may emit —
// anything else in a parsed directive is a fuzz failure.
var validKinds = map[string]bool{
	"locked": true, "guardedby": true, "retains": true,
}

// FuzzDirectiveParse hardens the //wcojlint: directive parser (the
// prefix and column-alignment binding rules of DESIGN.md §9) against
// arbitrary source: it must never panic, must emit only the known
// vocabulary with valid positions, must be idempotent, and every
// directive it indexes must be findable again through at() on its own
// line.
func FuzzDirectiveParse(f *testing.F) {
	seeds := []string{
		"package p\n\n//wcojlint:locked callers hold mu\nfunc f() {}\n",
		"package p\n\ntype s struct {\n\tmu int\n\tn  int //wcojlint:guardedby mu\n}\n",
		"package p\n\n//lint:locked caller holds mu\nfunc g() {}\n",
		"package p\n\n//wcojlint:retains spans consumed in call\nfunc h() {}\n",
		"package p\n\nfunc i() {\n\tx := 1 //wcojlint:retains trailing on a statement\n\t_ = x\n}\n",
		"package p\n\nfunc j() {\n\t//wcojlint:nosync retired kinds are dropped\n\tx := 1\n\t_ = x\n}\n",
		"package p\n\n//wcojlint:guardedby\ntype t struct{ a, b int }\n",
		"package p\n\n//wcojlint:bogus unknown kinds are dropped\nfunc k() {}\n",
		"package p\n\n//wcojlint:\nfunc l() {}\n",
		"package p\n\n/* wcojlint:locked block comments never bind */\nfunc m() {}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip()
		}
		pass := &analysis.Pass{Fset: fset, Files: []*ast.File{file}}
		idx := parseDirectives(pass)

		count := 0
		for fname, lines := range idx {
			for line, ds := range lines {
				for _, d := range ds {
					count++
					if !validKinds[d.kind] {
						t.Fatalf("parsed directive with unknown kind %q", d.kind)
					}
					if !d.pos.IsValid() {
						t.Fatalf("directive %s on %s:%d has invalid position", d.kind, fname, line)
					}
					if d.col < 1 {
						t.Fatalf("directive %s on %s:%d has column %d", d.kind, fname, line, d.col)
					}
					// Same-line binding: a node starting where the
					// comment ends must see the directive.
					if _, ok := idx.at(fset, d.pos, d.kind); !ok {
						t.Fatalf("directive %s on %s:%d not found by at() on its own line", d.kind, fname, line)
					}
				}
			}
		}

		// Idempotence: re-parsing the same pass yields the same index.
		idx2 := parseDirectives(pass)
		count2 := 0
		for _, lines := range idx2 {
			for _, ds := range lines {
				count2 += len(ds)
			}
		}
		if count2 != count {
			t.Fatalf("parseDirectives not idempotent: %d directives, then %d", count, count2)
		}
	})
}
