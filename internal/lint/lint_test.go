package lint_test

import (
	"path/filepath"
	"testing"

	"wcoj/internal/lint"
	"wcoj/internal/lint/analysis"
	"wcoj/internal/lint/analysistest"
)

// TestAnalyzers runs every analyzer in the suite against its fixture
// package. Each fixture mixes positive (want) and negative (clean)
// cases, so this both proves the analyzer fires on violations and
// that it stays quiet on the sanctioned patterns.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name string
		a    *analysis.Analyzer
	}{
		{"snapshotonce", lint.SnapshotOnce},
		{"valueident", lint.ValueIdent},
		{"nilness", lint.Nilness},
		{"unusedwrite", lint.UnusedWrite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join("testdata", "src", tc.name)
			analysistest.Run(t, dir, tc.name, tc.a)
		})
	}
}

// TestSuite pins the suite composition: the project analyzers first,
// then the general correctness passes. CI runs Suite(), so an analyzer dropped from it
// would silently stop gating.
func TestSuite(t *testing.T) {
	want := []string{
		"snapshotonce", "valueident",
		"nilness", "unusedwrite",
	}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}
