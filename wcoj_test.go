package wcoj

import (
	"math"
	"testing"

	"wcoj/internal/dataset"
)

func triangleQuery(t testing.TB, tri dataset.Triangle) *Query {
	t.Helper()
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// algoAxis names the subtests of the suites that once ran Generic-Join
// and Leapfrog Triejoin side by side. "leapfrog-triejoin" now names
// AlgoLeapfrog, the alias of AlgoGenericJoin that clients may still
// send, so those subtests hold requests by that name to the same
// answers.
var algoAxis = []algoCase{{"generic-join", AlgoGenericJoin}, {"leapfrog-triejoin", AlgoLeapfrog}}

// algoCase is one algorithm name and what it resolves to.
type algoCase struct {
	name string
	algo Algorithm
}

// withBacktracking is algoAxis and AlgoBacktracking.
func withBacktracking() []algoCase {
	return append(algoAxis[:len(algoAxis):len(algoAxis)], algoCase{"backtracking", AlgoBacktracking})
}

func TestExecuteAllAlgorithmsAgree(t *testing.T) {
	tri := dataset.TriangleAGMTight(144)
	q := triangleQuery(t, tri)
	var want *Relation
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		got, stats, err := Execute(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if stats.Output != got.Len() {
			t.Fatalf("%v: stats mismatch", algo)
		}
		if want == nil {
			want = got
			// AGM tight: 12^3 / ... k=12 → 12^2 per relation, out 12^3.
			if got.Len() != 12*12*12 {
				t.Fatalf("output = %d, want 1728", got.Len())
			}
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("%v disagrees: %d vs %d rows", algo, got.Len(), want.Len())
		}
	}
}

func TestCountMatchesExecute(t *testing.T) {
	tri := dataset.TriangleSkew(200)
	q := triangleQuery(t, tri)
	want, _, err := Execute(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		n, _, err := Count(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if n != want.Len() {
			t.Fatalf("%v count = %d, want %d", algo, n, want.Len())
		}
	}
}

func TestParseAndBindEndToEnd(t *testing.T) {
	db := NewDatabase()
	e := dataset.RandomGraph(40, 300, 1)
	db.Put(e)
	p, err := Parse("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)")
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	n1, _, err := Count(q, Options{Algorithm: AlgoGenericJoin})
	if err != nil {
		t.Fatal(err)
	}
	n2, _, err := Count(q, Options{Algorithm: AlgoLeapfrog})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("algorithms disagree: %d vs %d", n1, n2)
	}
	if MustParse("Q(A) :- R(A)") == nil {
		t.Fatal("MustParse")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad input")
		}
	}()
	MustParse("not a query")
}

func TestBounds(t *testing.T) {
	tri := dataset.TriangleAGMTight(100)
	q := triangleQuery(t, tri)
	agm, err := AGMBound(q)
	if err != nil {
		t.Fatal(err)
	}
	// AGM bound = (100)^{3/2} = 1000 = actual output (tight).
	if math.Abs(agm.Bound-1000) > 1 {
		t.Fatalf("AGM bound = %v", agm.Bound)
	}
	dc := ConstraintSet{
		Cardinality("R", []string{"A", "B"}, 100),
		Cardinality("S", []string{"B", "C"}, 100),
		Cardinality("T", []string{"A", "C"}, 100),
	}
	poly, err := PolymatroidBound(q, dc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poly.LogBound-agm.LogBound) > 1e-6 {
		t.Fatal("polymatroid must equal AGM under cardinality constraints")
	}
	mod, err := ModularBound(q, dc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mod.LogBound-agm.LogBound) > 1e-6 {
		t.Fatal("modular must equal AGM here")
	}
}

func TestBacktrackingWithExplicitConstraints(t *testing.T) {
	c := dataset.NewChain63(10, 3, 3, 3, 2)
	q, err := NewQuery([]string{"A", "B", "C", "D"}, []Atom{
		{Name: "R", Vars: []string{"A"}, Rel: c.R},
		{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
		{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
		{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc := ConstraintSet{
		Cardinality("R", []string{"A"}, float64(c.NA)),
		Degree("S", []string{"A"}, []string{"A", "B"}, float64(c.NBgA)),
		Degree("T", []string{"B"}, []string{"B", "C"}, float64(c.NCgB)),
		Degree("W", []string{"C"}, []string{"C", "A", "D"}, float64(c.NADgC)),
	}
	// Cyclic: Execute must repair internally.
	got, _, err := Execute(q, Options{Algorithm: AlgoBacktracking, Constraints: dc})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Execute(q, Options{Algorithm: AlgoGenericJoin})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("backtracking %d rows vs generic join %d", got.Len(), want.Len())
	}
	// MakeAcyclic is exposed.
	rep, err := MakeAcyclic(dc, q.Vars)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsAcyclic() {
		t.Fatal("MakeAcyclic result must be acyclic")
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, a := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		parsed, err := ParseAlgorithm(a.String())
		if err != nil || parsed != a {
			t.Fatalf("round trip failed for %v", a)
		}
	}
	// AlgoLeapfrog is an alias that keeps its old name.
	if a, err := ParseAlgorithm("leapfrog-triejoin"); err != nil || a != AlgoGenericJoin || AlgoLeapfrog != AlgoGenericJoin {
		t.Fatalf(`ParseAlgorithm("leapfrog-triejoin") = %v, %v; want the AlgoGenericJoin alias`, a, err)
	}
	// The binary-join baselines are references, not served algorithms.
	for _, name := range []string{"nope", "binary-join", "binary-join-project"} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Fatalf("unknown algorithm %q must fail", name)
		}
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm String")
	}
	if _, _, err := Execute(&Query{}, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("Execute with unknown algorithm must fail")
	}
}
