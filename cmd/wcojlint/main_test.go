package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCleanTree is the self-hosting check: the suite must exit 0 over
// the whole repository. A regression that introduces a violation (or
// an analyzer change that starts flagging sanctioned code) fails here
// before it fails in CI.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("wcojlint ./... = exit %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no diagnostics, got:\n%s", stdout.String())
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("wcojlint -list = exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{
		"snapshotonce", "valueident",
		"nilness", "unusedwrite",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout.String())
		}
	}
}

func TestOnlyUnknown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "nosuchanalyzer", "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr.String())
	}
}

func TestOnlySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "-only", "snapshotonce", "./internal/core"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-only snapshotonce ./internal/core = exit %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

func TestDisableUnknown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-disable", "nosuchanalyzer", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -disable analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}
