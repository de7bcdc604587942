package stats

import (
	"math"
	"testing"

	"wcoj/internal/baseline"
	"wcoj/internal/bounds"
	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

func triQuery(t testing.TB, tri dataset.Triangle) *core.Query {
	t.Helper()
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCardinalities(t *testing.T) {
	q := triQuery(t, dataset.TriangleAGMTight(100))
	dc := Cardinalities(q)
	if len(dc) != 3 {
		t.Fatalf("got %d constraints", len(dc))
	}
	for _, c := range dc {
		if !c.IsCardinality() || c.N != 100 {
			t.Fatalf("constraint %v", c)
		}
	}
	if err := VerifySatisfies(q, dc); err != nil {
		t.Fatal(err)
	}
}

// TestForPlannerCardinalityOnce: every atom's cardinality reaches the
// planner exactly once — as Degrees' X = ∅, Y = vars(F) row when the
// atom's arity is within maxY, as a cardinality constraint beside its
// degrees when it exceeds maxY.
func TestForPlannerCardinalityOnce(t *testing.T) {
	b := relation.NewBuilder("W", "x", "y", "z")
	for i := 0; i < 40; i++ {
		if err := b.Add(relation.Value(i%5), relation.Value(i%7), relation.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	tri := dataset.TriangleAGMTight(100)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "W", Vars: []string{"A", "B", "C"}, Rel: b.Build()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxY := range []int{0, 2, 3} {
		dc, err := ForPlanner(q, maxY)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, c := range dc {
			if len(c.X) == 0 && len(c.Y) == len(q.Atoms[atomIndex(q, c.Guard)].Vars) {
				seen[c.Guard]++
			}
		}
		if seen["R"] != 1 || seen["W"] != 1 {
			t.Errorf("maxY %d: cardinality rows per atom %v, want one each", maxY, seen)
		}
	}
}

func atomIndex(q *core.Query, name string) int {
	for i, a := range q.Atoms {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func TestDegrees(t *testing.T) {
	tri := dataset.TriangleAGMTight(100)
	q := triQuery(t, tri)
	dc, err := Degrees(q.Atoms[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	// For R = [10]×[10]: constraints include (∅,{A},10), (∅,{A,B},100),
	// ({A},{A,B},10), etc.
	found := 0
	for _, c := range dc {
		switch {
		case len(c.Y) == 2 && len(c.X) == 1 && c.N == 10:
			found++
		case len(c.Y) == 2 && len(c.X) == 0 && c.N == 100:
			found++
		case len(c.Y) == 1 && len(c.X) == 0 && c.N == 10:
			found++
		}
	}
	if found < 5 {
		t.Fatalf("expected the bipartite degree profile, got %v", dc)
	}
	if err := VerifySatisfies(q, dc); err != nil {
		t.Fatal(err)
	}
}

func TestAllDegreesAndBoundSandwich(t *testing.T) {
	// Table 1 experiment in miniature: measured log|Q| ≤ polymatroid
	// bound from extracted constraints, with equality on the AGM-tight
	// instance.
	tri := dataset.TriangleAGMTight(100)
	q := triQuery(t, tri)
	dc, err := AllDegrees(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bounds.Polymatroid(q.Vars, dc)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := baseline.JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	logOut := math.Log2(float64(out.Len()))
	if logOut > b.LogBound+1e-6 {
		t.Fatalf("measured %v exceeds polymatroid bound %v", logOut, b.LogBound)
	}
	// AGM-tight: equality.
	if math.Abs(logOut-b.LogBound) > 1e-6 {
		t.Fatalf("AGM-tight instance should meet the bound: %v vs %v", logOut, b.LogBound)
	}
	// The output's empirical entropy is a feasible point of the
	// entropic-bound program: H[full] = log|Q|, H respects constraints.
	h, err := OutputEntropy(out, q.Vars)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Get(h.Full())-logOut) > 1e-9 {
		t.Fatal("H[full] must equal log|Q|")
	}
	if !h.IsPolymatroid(1e-9) {
		t.Fatal("output entropy must be a polymatroid")
	}
}

func TestOutputEntropyErrors(t *testing.T) {
	r := relation.New("R", []string{"A", "B"}, []relation.Tuple{{1, 2}})
	if _, err := OutputEntropy(r, []string{"A"}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := OutputEntropy(r, []string{"B", "A"}); err == nil {
		t.Fatal("column order mismatch must fail")
	}
}

func TestVerifySatisfiesViolation(t *testing.T) {
	tri := dataset.TriangleAGMTight(100)
	q := triQuery(t, tri)
	dc := Cardinalities(q)
	dc[0].N = 5 // lie about |R|
	if err := VerifySatisfies(q, dc); err == nil {
		t.Fatal("violated constraint must be reported")
	}
	dc = Cardinalities(q)
	dc[0].Guard = "nope"
	if err := VerifySatisfies(q, dc); err == nil {
		t.Fatal("missing guard must be reported")
	}
}

// BenchmarkForPlanner measures the statistics the cost-based planner
// asks for on a 4-path over one random graph at the benchmark's G scale
// (600 vertices, 12,000 edges), with |Y| ≤ 3. cold binds the atoms to a
// fresh view of the graph's columns on every iteration, so every degree
// is measured; memoized binds one relation throughout, so after the
// first iteration every degree is a memo hit.
func BenchmarkForPlanner(b *testing.B) {
	g := dataset.RandomGraph(600, 12000, 3)
	path := func(b *testing.B, rel *relation.Relation) *core.Query {
		q, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
			{Name: "G", Vars: []string{"A", "B"}, Rel: rel},
			{Name: "G", Vars: []string{"B", "C"}, Rel: rel},
			{Name: "G", Vars: []string{"C", "D"}, Rel: rel},
		})
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, err := g.Rename(g.Name(), g.Attrs()...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ForPlanner(path(b, fresh), 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		q := path(b, g)
		for i := 0; i < b.N; i++ {
			if _, err := ForPlanner(q, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
