package wcoj

// Cross-module integration tests: generator → TSV round trip → parser
// → every join algorithm → bounds → entropy sandwich → PANDA, all on
// the same workloads.

import (
	"bytes"
	"math"
	"testing"

	"wcoj/internal/baseline"
	"wcoj/internal/bounds"
	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/panda"
	"wcoj/internal/relation"
	"wcoj/internal/stats"
)

// TestIntegrationPipeline drives the full user-facing flow on a skewed
// triangle workload.
func TestIntegrationPipeline(t *testing.T) {
	tri := dataset.TriangleSkew(400)

	// TSV round trip (what cmd/wcojgen writes and cmd/wcoj loads).
	db := NewDatabase()
	for _, r := range []*Relation{tri.R, tri.S, tri.T} {
		var buf bytes.Buffer
		if err := relation.WriteTSV(&buf, r); err != nil {
			t.Fatal(err)
		}
		back, err := NewDB().LoadFile(writeFile(t, r.Name()+".tsv", buf.String()), r.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(r) {
			t.Fatalf("TSV round trip changed %s", r.Name())
		}
		db.Put(back)
	}

	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}

	// All three algorithms agree.
	var want *Relation
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		got, _, err := Execute(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if want == nil {
			want = got
		} else if !got.Equal(want) {
			t.Fatalf("%v disagrees", algo)
		}
	}

	// Bound sandwich: log|Q| ≤ polymatroid = AGM (cardinality only).
	agm, err := AGMBound(q)
	if err != nil {
		t.Fatal(err)
	}
	dc := stats.Cardinalities(q)
	poly, err := PolymatroidBound(q, dc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poly.LogBound-agm.LogBound) > 1e-6 {
		t.Fatalf("polymatroid %v vs AGM %v", poly.LogBound, agm.LogBound)
	}
	logOut := math.Log2(float64(want.Len()))
	if logOut > poly.LogBound+1e-9 {
		t.Fatalf("output %v exceeds bound %v", logOut, poly.LogBound)
	}

	// Entropy witness: H[full] = log|Q|, H is a polymatroid, and every
	// cardinality constraint holds as H[Y] ≤ log N.
	h, err := stats.OutputEntropy(want, q.Vars)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Get(h.Full())-logOut) > 1e-9 {
		t.Fatal("H[full] != log|Q|")
	}
	if !h.IsPolymatroid(1e-9) {
		t.Fatal("output entropy is not a polymatroid")
	}
}

// TestIntegrationExample1AllEngines runs the paper's Example 1 query
// through Generic-Join, LFTJ, binary joins and the PANDA executor and
// checks they produce the identical result.
func TestIntegrationExample1AllEngines(t *testing.T) {
	d := dataset.NewExample1(800, 3, 3, 0.3, 5)
	q, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: d.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: d.S},
		{Name: "T", Vars: []string{"C", "D"}, Rel: d.T},
		{Name: "W", Vars: []string{"A", "C", "D"}, Rel: d.W},
		{Name: "V", Vars: []string{"A", "B", "D"}, Rel: d.V},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Execute(q, Options{Algorithm: AlgoGenericJoin})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Execute(q, Options{Algorithm: AlgoLeapfrog})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("leapfrog disagrees with generic join")
	}
	for name, join := range map[string]func(*Query, []string, []int) (*Relation, *Stats, error){
		"binary-join": baseline.JoinOnly, "binary-join-project": baseline.JoinProject,
	} {
		got, _, err := join(q, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s disagrees with generic join", name)
		}
	}

	// PANDA on the Table 2 sequence.
	st := panda.Example1Stats{
		NAB: float64(d.R.Len()), NBC: float64(d.S.Len()), NCD: float64(d.T.Len()),
		NACDgAC: 3, NABDgBD: 3,
	}
	ps := panda.Example1Sequence(st)
	affil := panda.Affiliation{
		{S: 0b0011}:            d.R,
		{S: 0b0110}:            d.S,
		{S: 0b1100}:            d.T,
		{S: 0b1101, G: 0b0101}: d.W,
		{S: 0b1011, G: 0b1010}: d.V,
	}
	got, est, err := panda.Execute(ps, panda.Example1Vars, affil,
		[]*relation.Relation{d.R, d.S, d.T, d.W, d.V})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("PANDA %d rows vs generic join %d", got.Len(), want.Len())
	}
	if float64(est.Intermediate) > st.RuntimeBound()+1 {
		t.Fatalf("PANDA intermediate %d exceeds the (75) bound %v", est.Intermediate, st.RuntimeBound())
	}
	// The polymatroid bound with the Example 1 degree constraints must
	// dominate the measured output.
	dc := ConstraintSet{
		Cardinality("R", []string{"A", "B"}, st.NAB),
		Cardinality("S", []string{"B", "C"}, st.NBC),
		Cardinality("T", []string{"C", "D"}, st.NCD),
		Degree("W", []string{"A", "C"}, []string{"A", "C", "D"}, st.NACDgAC),
		Degree("V", []string{"B", "D"}, []string{"A", "B", "D"}, st.NABDgBD),
	}
	if err := stats.VerifySatisfies(q, dc); err != nil {
		t.Fatal(err)
	}
	poly, err := bounds.Polymatroid(q.Vars, dc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() > 0 && math.Log2(float64(want.Len())) > poly.LogBound+1e-9 {
		t.Fatalf("output exceeds the polymatroid bound")
	}
	// The Shannon-flow inequality of the Table 2 sequence evaluates the
	// bound (75)'s exponent: ½Σ log N ≥ polymatroid optimum.
	halfSum := 0.5 * (math.Log2(st.NAB) + math.Log2(st.NBC) + math.Log2(st.NCD) +
		math.Log2(st.NACDgAC) + math.Log2(st.NABDgBD))
	if poly.LogBound > halfSum+1e-6 {
		t.Fatalf("polymatroid %v exceeds the Shannon-flow value %v", poly.LogBound, halfSum)
	}
}

// TestIntegrationChain63Backtracking ties Prop 5.2, the modular LP and
// Algorithm 3 together on query (63): the dual δ prices the search and
// the search result matches Generic-Join.
func TestIntegrationChain63Backtracking(t *testing.T) {
	c := dataset.NewChain63(30, 3, 3, 3, 9)
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
	if err := stats.VerifySatisfies(q, dc); err != nil {
		t.Fatal(err)
	}
	repaired, err := MakeAcyclic(dc, q.Vars)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ModularBound(q, repaired)
	if err != nil {
		t.Fatal(err)
	}
	// Strong duality (73): Σ δ log N = bound.
	du := 0.0
	for i, cc := range repaired {
		du += mod.Delta[i] * cc.LogN()
	}
	if math.Abs(du-mod.LogBound) > 1e-6 {
		t.Fatalf("duality gap %v vs %v", du, mod.LogBound)
	}
	got, st, err := Execute(q, Options{Algorithm: AlgoBacktracking, Constraints: repaired})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Execute(q, Options{Algorithm: AlgoGenericJoin})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("Algorithm 3 disagrees with Generic-Join")
	}
	if float64(got.Len()) > mod.Bound+1e-6 {
		t.Fatalf("output %d exceeds the bound %v", got.Len(), mod.Bound)
	}
	if st.Output != got.Len() {
		t.Fatal("stats mismatch")
	}
}
