package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wcoj"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// writeTri writes the AGM-tight triangle instance on n tuples per
// relation as R.tsv, S.tsv and T.tsv.
func writeTri(t *testing.T, n int) (string, relFlags) {
	t.Helper()
	dir := t.TempDir()
	tri := dataset.TriangleAGMTight(n)
	var flags relFlags
	for _, r := range []*relation.Relation{tri.R, tri.S, tri.T} {
		p := filepath.Join(dir, r.Name()+".tsv")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := relation.WriteTSV(f, r); err != nil {
			t.Fatal(err)
		}
		f.Close()
		flags = append(flags, r.Name()+"="+p)
	}
	return dir, flags
}

const triQuery = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"

func TestRunCountAndMaterialize(t *testing.T) {
	dir, flags := writeTri(t, 100)
	for _, algo := range []string{"generic-join", "leapfrog-triejoin", "backtracking"} {
		if err := run(io.Discard, config{query: triQuery, algo: algo, planner: "auto", count: true, parallel: 2, rels: flags}); err != nil {
			t.Fatalf("count/%s: %v", algo, err)
		}
	}
	// The binary-join baselines are references, not served algorithms.
	for _, algo := range []string{"binary-join", "binary-join-project"} {
		if err := run(io.Discard, config{query: triQuery, algo: algo, planner: "auto", count: true, rels: flags}); err == nil {
			t.Fatalf("-algo %s must fail", algo)
		}
	}
	out := filepath.Join(dir, "out.tsv")
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", order: "A,B,C", planner: "auto", outPath: out, rels: flags}); err != nil {
		t.Fatal(err)
	}
	r, err := wcoj.NewDB().LoadFile(out, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1000 { // 10^3 on the AGM-tight instance
		t.Fatalf("saved output = %d rows, want 1000", r.Len())
	}
	// Print path (no -out) also works.
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", planner: "cost-based", parallel: 1, rels: flags}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAggregates(t *testing.T) {
	dir, flags := writeTri(t, 100)
	// -exists on every algorithm.
	for _, algo := range []string{"generic-join", "leapfrog-triejoin", "backtracking"} {
		if err := run(io.Discard, config{query: triQuery, algo: algo, planner: "auto", exists: true, rels: flags}); err != nil {
			t.Fatalf("exists/%s: %v", algo, err)
		}
	}
	// -project materializes the distinct projected tuples.
	out := filepath.Join(dir, "proj.tsv")
	if err := run(io.Discard, config{query: triQuery, algo: "leapfrog-triejoin", planner: "auto", project: "A,C", outPath: out, rels: flags}); err != nil {
		t.Fatal(err)
	}
	r, err := wcoj.NewDB().LoadFile(out, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 100 { // 10x10 distinct (A,C) pairs
		t.Fatalf("projected output = %d rows, want 100", r.Len())
	}
	// -count with -project counts distinct projected tuples.
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", planner: "auto", count: true, project: "A", rels: flags}); err != nil {
		t.Fatal(err)
	}
	// -count and -exists conflict.
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", planner: "auto", count: true, exists: true, rels: flags}); err == nil {
		t.Fatal("-count with -exists must fail")
	}
	// Bad projection fails.
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", planner: "auto", project: "X", rels: flags}); err == nil {
		t.Fatal("unknown projected variable must fail")
	}
}

func TestRunErrors(t *testing.T) {
	_, flags := writeTri(t, 100)
	if err := run(io.Discard, config{algo: "generic-join", planner: "auto", count: true, rels: flags}); err == nil {
		t.Fatal("missing query must fail")
	}
	if err := run(io.Discard, config{query: "Q(A) :- R(A)", algo: "nope", planner: "auto", count: true, rels: flags}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if err := run(io.Discard, config{query: "Q(A) :- R(A)", algo: "generic-join", planner: "auto", count: true, rels: relFlags{"bad"}}); err == nil {
		t.Fatal("bad -rel must fail")
	}
	if err := run(io.Discard, config{query: "Q(A) :- R(A)", algo: "generic-join", planner: "auto", count: true, rels: relFlags{"R=/nonexistent"}}); err == nil {
		t.Fatal("missing file must fail")
	}
	if err := run(io.Discard, config{query: triQuery, algo: "generic-join", planner: "auto", count: true}); err == nil {
		t.Fatal("unbound relations must fail")
	}
}

func TestRunExplainAndPlanner(t *testing.T) {
	_, flags := writeTri(t, 100)
	q := triQuery
	// -explain prints the plan and skips execution for every policy.
	for _, planner := range []string{"auto", "cost-based"} {
		if err := run(io.Discard, config{query: q, algo: "generic-join", planner: planner, explain: true, parallel: 1, rels: flags}); err != nil {
			t.Fatalf("explain/%s: %v", planner, err)
		}
	}
	if err := run(io.Discard, config{query: q, algo: "leapfrog-triejoin", order: "B,A,C", planner: "auto", explain: true, parallel: 1, rels: flags}); err != nil {
		t.Fatal(err)
	}
	// -explain -count prints the aggregate classification; with
	// -project it explains the projected enumeration.
	if err := run(io.Discard, config{query: q, algo: "generic-join", planner: "cost-based", explain: true, count: true, rels: flags}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, config{query: q, algo: "generic-join", planner: "auto", explain: true, project: "A,B", rels: flags}); err != nil {
		t.Fatal(err)
	}
	// The cost-based planner also runs end-to-end.
	if err := run(io.Discard, config{query: q, algo: "leapfrog-triejoin", planner: "cost-based", count: true, parallel: 2, rels: flags}); err != nil {
		t.Fatal(err)
	}
	// Bad settings fail: an unknown or retired planner, cost-based with
	// an explicit order, and an order naming a variable the query lacks.
	if err := run(io.Discard, config{query: q, algo: "generic-join", planner: "nope", count: true, rels: flags}); err == nil {
		t.Fatal("unknown planner must fail")
	}
	for _, planner := range []string{"heuristic", "explicit"} {
		if err := run(io.Discard, config{query: q, algo: "generic-join", order: "A,B,C", planner: planner, count: true, rels: flags}); err == nil {
			t.Fatalf("retired planner %s must fail", planner)
		}
	}
	if err := run(io.Discard, config{query: q, algo: "generic-join", order: "A,B,C", planner: "cost-based", count: true, rels: flags}); err == nil {
		t.Fatal("cost-based with explicit -order must fail")
	}
	if err := run(io.Discard, config{query: q, algo: "generic-join", order: "A,B,D", planner: "auto", count: true, rels: flags}); err == nil {
		t.Fatal("order with unknown variable must fail")
	}
}

// boundsGolden is what -explain prints after the plan for the
// triangle over the AGM-tight instance on 64 tuples per relation: the
// AGM bound is met exactly, and the measured degree constraints
// (cyclic, so the modular bound does not apply) do not tighten it.
const boundsGolden = `AGM bound:         512.0 tuples (2^9.000), rho* = 1.500
  cover delta[R] = 0.500
  cover delta[S] = 0.500
  cover delta[T] = 0.500
constraints:       15 measured degree constraints
polymatroid bound: 512.0 tuples (2^9.000)
modular bound:     skipped (constraints are cyclic; Prop 4.4 does not apply)
`

func TestRunExplainBounds(t *testing.T) {
	_, flags := writeTri(t, 64)
	for _, count := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, config{query: triQuery, algo: "generic-join", planner: "auto", explain: true, count: count, rels: flags}); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(out.String(), boundsGolden) {
			t.Fatalf("-explain (count=%v) printed\n%s\nwant it to end with\n%s", count, out.String(), boundsGolden)
		}
	}
	// -count reports the size the bounds cap: the instance is AGM-tight.
	var out bytes.Buffer
	if err := run(&out, config{query: triQuery, algo: "generic-join", planner: "auto", count: true, rels: flags}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "count=512 ") {
		t.Fatalf("-count printed %q, want count=512", out.String())
	}
}
