package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wcoj/internal/agg"
	"wcoj/internal/bounds"
	"wcoj/internal/constraints"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

func rel(t testing.TB, name string, attrs []string, rows ...[]relation.Value) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(name, attrs...)
	for _, r := range rows {
		if err := b.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// naiveJoin computes the query result by folding binary hash joins and
// projecting onto the query variables — the reference implementation.
func naiveJoin(t testing.TB, q *Query) *relation.Relation {
	t.Helper()
	var cur *relation.Relation
	for _, a := range q.Atoms {
		r, err := a.Rel.Rename(a.Name, a.Vars...)
		if err != nil {
			t.Fatal(err)
		}
		if cur == nil {
			cur = r
			continue
		}
		cur, err = relation.Join(cur, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := cur.Project(q.Vars...)
	if err != nil {
		t.Fatal(err)
	}
	out, err = out.Rename("Q", q.Vars...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// orderOf is the policy of a test's explicit order; nil selects the
// heuristic.
func orderOf(order []string) OrderPolicy {
	if order == nil {
		return nil
	}
	return ExplicitOrder(order)
}

// gj is the tests' way into the plan-level search: it plans q over src
// under order and materializes the serial search's result.
// Tests that are not about the memo pass a fresh one.
func gj(src TrieSource, q *Query, order []string) (*relation.Relation, *Stats, error) {
	p, err := BuildPlanSrc(src, q, orderOf(order))
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	out := relation.NewBuilder(q.OutputName(), q.Vars...)
	_, err = GenericJoinPlanVisit(context.Background(), p, nil, 1, stats, func(t relation.Tuple) error {
		return out.Add(t...)
	})
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	return rel, stats, nil
}

func triangleQuery(t testing.TB, r, s, tt *relation.Relation) *Query {
	t.Helper()
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: r},
		{Name: "S", Vars: []string{"B", "C"}, Rel: s},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueryValidate(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	if _, err := NewQuery([]string{"A", "A"}, nil); err == nil {
		t.Fatal("duplicate head variable must fail")
	}
	if _, err := NewQuery([]string{"A", "B"}, []Atom{{Name: "R", Vars: []string{"A"}, Rel: r}}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := NewQuery([]string{"A", "B"}, []Atom{{Name: "R", Vars: []string{"A", "Z"}, Rel: r}}); err == nil {
		t.Fatal("non-head variable must fail (full CQ)")
	}
	if _, err := NewQuery([]string{"A", "B", "C"}, []Atom{{Name: "R", Vars: []string{"A", "B"}, Rel: r}}); err == nil {
		t.Fatal("uncovered variable must fail")
	}
	if _, err := NewQuery([]string{"A", "B"}, []Atom{{Name: "R", Vars: []string{"A", "A"}, Rel: r}}); err == nil {
		t.Fatal("repeated variable in atom must fail")
	}
	if _, err := NewQuery([]string{"A"}, []Atom{{Name: "R", Vars: []string{"A"}}}); err == nil {
		t.Fatal("nil relation must fail")
	}
}

func TestGenericJoinTriangleSmall(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 1}, []relation.Value{1, 2}, []relation.Value{2, 1})
	s := rel(t, "S", []string{"B", "C"},
		[]relation.Value{1, 5}, []relation.Value{2, 5}, []relation.Value{1, 6})
	tt := rel(t, "T", []string{"A", "C"},
		[]relation.Value{1, 5}, []relation.Value{2, 6})
	q := triangleQuery(t, r, s, tt)
	want := naiveJoin(t, q)
	got, stats, err := gj(new(TrieMemo), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("GenericJoin = %v, want %v", got.Tuples(), want.Tuples())
	}
	if stats.Output != got.Len() {
		t.Fatalf("stats.Output = %d", stats.Output)
	}
	// Count-only agrees.
	p, err := BuildPlanSrc(new(TrieMemo), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := GenericJoinPlanVisit(context.Background(), p, nil, 1, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != want.Len() {
		t.Fatalf("count = %d, want %d", n, want.Len())
	}
}

func TestGenericJoinExplicitOrder(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	s := rel(t, "S", []string{"B", "C"}, []relation.Value{2, 3})
	tt := rel(t, "T", []string{"A", "C"}, []relation.Value{1, 3})
	q := triangleQuery(t, r, s, tt)
	for _, order := range [][]string{
		{"A", "B", "C"}, {"C", "B", "A"}, {"B", "A", "C"},
	} {
		got, _, err := gj(new(TrieMemo), q, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got.Len() != 1 {
			t.Fatalf("order %v: len = %d, want 1", order, got.Len())
		}
	}
	if _, _, err := gj(new(TrieMemo), q, []string{"A", "B"}); err == nil {
		t.Fatalf("short order must fail")
	}
	if _, _, err := gj(new(TrieMemo), q, []string{"A", "A", "B"}); err == nil {
		t.Fatalf("repeating order must fail")
	}
}

func TestGenericJoinEmptyRelation(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	s := relation.Empty("S", "B", "C")
	tt := rel(t, "T", []string{"A", "C"}, []relation.Value{1, 3})
	q := triangleQuery(t, r, s, tt)
	got, _, err := gj(new(TrieMemo), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty input must give empty output, got %d", got.Len())
	}
}

func TestGenericJoinSingleAtom(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 2}, []relation.Value{3, 4})
	q, err := NewQuery([]string{"A", "B"}, []Atom{{Name: "R", Vars: []string{"A", "B"}, Rel: r}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := gj(new(TrieMemo), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("single atom join = %d rows", got.Len())
	}
}

func TestGenericJoinRenamedColumns(t *testing.T) {
	// Relation columns named differently from query variables; the
	// atom binding does the renaming. Also exercises self-joins: the
	// same edge relation bound three times (triangle counting).
	e := rel(t, "E", []string{"src", "dst"},
		[]relation.Value{1, 2}, []relation.Value{2, 3}, []relation.Value{1, 3},
		[]relation.Value{3, 4})
	q, err := NewQuery([]string{"X", "Y", "Z"}, []Atom{
		{Name: "E1", Vars: []string{"X", "Y"}, Rel: e},
		{Name: "E2", Vars: []string{"Y", "Z"}, Rel: e},
		{Name: "E3", Vars: []string{"X", "Z"}, Rel: e},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := gj(new(TrieMemo), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Directed triangles: (1,2,3) only.
	if got.Len() != 1 {
		t.Fatalf("triangles = %v", got.Tuples())
	}
	tu := got.Tuple(0, nil)
	if tu[0] != 1 || tu[1] != 2 || tu[2] != 3 {
		t.Fatalf("triangle = %v, want (1,2,3)", tu)
	}
}

func TestTriangleHeavyLightMatchesGenericJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b1 := relation.NewBuilder("R", "A", "B")
	b2 := relation.NewBuilder("S", "B", "C")
	b3 := relation.NewBuilder("T", "A", "C")
	for i := 0; i < 300; i++ {
		b1.Add(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(20)))
		b2.Add(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(20)))
		b3.Add(relation.Value(rng.Intn(20)), relation.Value(rng.Intn(20)))
	}
	r, s, tt := b1.Build(), b2.Build(), b3.Build()
	hl, hlStats, err := TriangleHeavyLight(r, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := gj(new(TrieMemo), triangleQuery(t, r, s, tt), []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if !hl.Equal(want) {
		t.Fatalf("heavy/light %d rows vs generic join %d rows", hl.Len(), want.Len())
	}
	if hlStats.Output != hl.Len() {
		t.Fatal("stats mismatch")
	}
}

func TestTriangleHeavyLightEdgeCases(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	s := rel(t, "S", []string{"B", "C"}, []relation.Value{2, 3})
	empty := relation.Empty("T", "A", "C")
	got, _, err := TriangleHeavyLight(r, s, empty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty T must give empty result")
	}
	// Non-triangle patterns are rejected.
	bad := rel(t, "W", []string{"X", "Y"}, []relation.Value{1, 2})
	if _, _, err := TriangleHeavyLight(r, s, bad); err == nil {
		t.Fatal("non-triangle pattern must fail")
	}
	tern := rel(t, "U", []string{"A", "B", "C"}, []relation.Value{1, 2, 3})
	if _, _, err := TriangleHeavyLight(tern, s, empty); err == nil {
		t.Fatal("non-binary relation must fail")
	}
}

// Property: Generic-Join equals the naive binary-join reference on
// random triangle instances under random variable orders.
func TestPropertyGenericJoinTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name, a1, a2 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2)
			for i := 0; i < rng.Intn(60); i++ {
				b.Add(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
			}
			return b.Build()
		}
		r, s, tt := mk("R", "A", "B"), mk("S", "B", "C"), mk("T", "A", "C")
		q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: r},
			{Name: "S", Vars: []string{"B", "C"}, Rel: s},
			{Name: "T", Vars: []string{"A", "C"}, Rel: tt},
		})
		if err != nil {
			return false
		}
		orders := [][]string{
			{"A", "B", "C"}, {"B", "C", "A"}, {"C", "A", "B"}, nil,
		}
		want := naiveJoin(t, q)
		for _, ord := range orders {
			got, _, err := gj(new(TrieMemo), q, ord)
			if err != nil {
				return false
			}
			if !got.Equal(want) {
				return false
			}
		}
		// Heavy/light agrees too.
		hl, _, err := TriangleHeavyLight(r, s, tt)
		if err != nil {
			return false
		}
		return hl.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Generic-Join equals the reference on random 4-variable,
// 4-atom queries (a 4-cycle plus a spanning ternary atom).
func TestPropertyGenericJoinFourVars(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk2 := func(name, a1, a2 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2)
			for i := 0; i < rng.Intn(40); i++ {
				b.Add(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
			}
			return b.Build()
		}
		mk3 := func(name, a1, a2, a3 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2, a3)
			for i := 0; i < rng.Intn(60); i++ {
				b.Add(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
			}
			return b.Build()
		}
		q, err := NewQuery([]string{"A", "B", "C", "D"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: mk2("R", "A", "B")},
			{Name: "S", Vars: []string{"B", "C"}, Rel: mk2("S", "B", "C")},
			{Name: "T", Vars: []string{"C", "D"}, Rel: mk2("T", "C", "D")},
			{Name: "W", Vars: []string{"A", "C", "D"}, Rel: mk3("W", "A", "C", "D")},
		})
		if err != nil {
			return false
		}
		got, _, err := gj(new(TrieMemo), q, nil)
		if err != nil {
			return false
		}
		return got.Equal(naiveJoin(t, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the search equals the reference on random 4-cycles
// under multiple variable orders.
func TestPropertyFourCycleOrders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk2 := func(name, a1, a2 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2)
			for i := 0; i < rng.Intn(50); i++ {
				b.Add(relation.Value(rng.Intn(7)), relation.Value(rng.Intn(7)))
			}
			return b.Build()
		}
		q, err := NewQuery([]string{"A", "B", "C", "D"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: mk2("R", "A", "B")},
			{Name: "S", Vars: []string{"B", "C"}, Rel: mk2("S", "B", "C")},
			{Name: "T", Vars: []string{"C", "D"}, Rel: mk2("T", "C", "D")},
			{Name: "U", Vars: []string{"D", "A"}, Rel: mk2("U", "D", "A")},
		})
		if err != nil {
			return false
		}
		want := naiveJoin(t, q)
		for _, ord := range [][]string{
			nil,
			{"A", "B", "C", "D"},
			{"D", "C", "B", "A"},
			{"B", "D", "A", "C"},
		} {
			// The builder uses q.Vars whatever the order, so schemas
			// match.
			got, _, err := gj(new(TrieMemo), q, ord)
			if err != nil || !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// backtrack runs Algorithm 3 the way the engine does: the plan-level
// search under dc's compatible order.
func backtrack(q *Query, dc constraints.Set) (*relation.Relation, *Stats, error) {
	order, err := BacktrackOrder(q, dc)
	if err != nil {
		return nil, nil, err
	}
	return gj(new(TrieMemo), q, order)
}

func TestBacktrackingSearchTriangle(t *testing.T) {
	// Triangle with cardinality-only constraints (acyclic DC): the
	// search must produce exactly the triangle join.
	rng := rand.New(rand.NewSource(7))
	b1 := relation.NewBuilder("R", "A", "B")
	b2 := relation.NewBuilder("S", "B", "C")
	b3 := relation.NewBuilder("T", "A", "C")
	for i := 0; i < 150; i++ {
		b1.Add(relation.Value(rng.Intn(15)), relation.Value(rng.Intn(15)))
		b2.Add(relation.Value(rng.Intn(15)), relation.Value(rng.Intn(15)))
		b3.Add(relation.Value(rng.Intn(15)), relation.Value(rng.Intn(15)))
	}
	r, s, tt := b1.Build(), b2.Build(), b3.Build()
	q := triangleQuery(t, r, s, tt)
	dc := constraints.Set{
		constraints.Cardinality("R", []string{"A", "B"}, float64(r.Len())),
		constraints.Cardinality("S", []string{"B", "C"}, float64(s.Len())),
		constraints.Cardinality("T", []string{"A", "C"}, float64(tt.Len())),
	}
	want := naiveJoin(t, q)
	got, stats, err := backtrack(q, dc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("backtracking = %d rows, want %d", got.Len(), want.Len())
	}
	if stats.Output != got.Len() {
		t.Fatalf("stats.Output mismatch")
	}
}

func TestBacktrackingSearchQuery63(t *testing.T) {
	// Query (63): Q(A,B,C,D) ← R(A), S(A,B), T(B,C), W(C,A,D) with the
	// paper's degree constraints N_A, N_B|A, N_C|B, N_AD|C.
	rng := rand.New(rand.NewSource(11))
	br := relation.NewBuilder("R", "A")
	bs := relation.NewBuilder("S", "A", "B")
	bt := relation.NewBuilder("T", "B", "C")
	bw := relation.NewBuilder("W", "C", "A", "D")
	for i := 0; i < 30; i++ {
		br.Add(relation.Value(rng.Intn(10)))
	}
	for i := 0; i < 80; i++ {
		bs.Add(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)))
		bt.Add(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)))
		bw.Add(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)))
	}
	r, s, tt, w := br.Build(), bs.Build(), bt.Build(), bw.Build()
	q, err := NewQuery([]string{"A", "B", "C", "D"}, []Atom{
		{Name: "R", Vars: []string{"A"}, Rel: r},
		{Name: "S", Vars: []string{"A", "B"}, Rel: s},
		{Name: "T", Vars: []string{"B", "C"}, Rel: tt},
		{Name: "W", Vars: []string{"C", "A", "D"}, Rel: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's constraint set is cyclic (A→B→C→A); repair first.
	dc := constraints.Set{
		constraints.Cardinality("R", []string{"A"}, float64(r.Len())),
		constraints.Degree("S", []string{"A"}, []string{"A", "B"}, 10),
		constraints.Degree("T", []string{"B"}, []string{"B", "C"}, 10),
		constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, 10),
	}
	acyclic, err := dc.MakeAcyclic(q.Vars)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 5.1: the search visits at most n nodes per tuple of the
	// modular bound ∏ N_{Y|X}^{δ}, plus the root.
	mod, err := bounds.Modular(q.Vars, acyclic)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(len(q.Vars))*mod.Bound + 1
	want := naiveJoin(t, q)
	got, stats, err := backtrack(q, acyclic)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("backtracking on (63) = %d rows, want %d", got.Len(), want.Len())
	}
	if float64(stats.Recursions) > limit {
		t.Fatalf("%d recursions exceed n·2^modular + 1 = %.0f", stats.Recursions, limit)
	}
}

func TestBacktrackingErrors(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	q, err := NewQuery([]string{"A", "B"}, []Atom{{Name: "R", Vars: []string{"A", "B"}, Rel: r}})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown guard.
	dc := constraints.Set{constraints.Cardinality("Z", []string{"A", "B"}, 5)}
	if _, err := BacktrackOrder(q, dc); err == nil {
		t.Fatal("unknown guard must fail")
	}
	// Guard lacking Y variable.
	dc = constraints.Set{constraints.Cardinality("R", []string{"A", "Z"}, 5)}
	if _, err := BacktrackOrder(q, dc); err == nil {
		t.Fatal("guard lacking Y variable must fail")
	}
	// Variable with no intersector (B is in no Y−X): infinite bound.
	dc = constraints.Set{constraints.Cardinality("R", []string{"A"}, 5)}
	if _, err := BacktrackOrder(q, dc); err == nil {
		t.Fatal("unbounded variable must fail")
	}
	// Cyclic constraints have no compatible order.
	dc = constraints.Set{
		constraints.Cardinality("R", []string{"A", "B"}, 5),
		constraints.FD("R", []string{"A"}, []string{"B"}),
		constraints.FD("R", []string{"B"}, []string{"A"}),
	}
	if _, err := BacktrackOrder(q, dc); err == nil {
		t.Fatal("cyclic DC without order must fail")
	}
}

// Property: backtracking search with per-atom cardinality constraints
// equals the reference join on random triangle instances.
func TestPropertyBacktrackingTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name, a1, a2 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2)
			for i := 0; i < 1+rng.Intn(50); i++ {
				b.Add(relation.Value(rng.Intn(7)), relation.Value(rng.Intn(7)))
			}
			return b.Build()
		}
		r, s, tt := mk("R", "A", "B"), mk("S", "B", "C"), mk("T", "A", "C")
		q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: r},
			{Name: "S", Vars: []string{"B", "C"}, Rel: s},
			{Name: "T", Vars: []string{"A", "C"}, Rel: tt},
		})
		if err != nil {
			return false
		}
		dc := constraints.Set{
			constraints.Cardinality("R", []string{"A", "B"}, float64(r.Len()+1)),
			constraints.Cardinality("S", []string{"B", "C"}, float64(s.Len()+1)),
			constraints.Cardinality("T", []string{"A", "C"}, float64(tt.Len()+1)),
		}
		want := naiveJoin(t, q)
		got, _, err := backtrack(q, dc)
		if err != nil || !got.Equal(want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// capWorkloads are the workloads of the root package's
// strategy_test.go, built from the same generators: its aggregate and
// parallel suites' queries, the power-law triangle and path, random
// chorded 4-cycles, and the 10^25 cross product whose count overflows.
func capWorkloads(t *testing.T) map[string]*Query {
	t.Helper()
	atom := func(name, vars string, r *relation.Relation) Atom {
		return Atom{Name: name, Vars: strings.Split(vars, ""), Rel: r}
	}
	qs := make(map[string]*Query)
	add := func(name, vars string, atoms ...Atom) {
		q, err := NewQuery(strings.Split(vars, ""), atoms)
		if err != nil {
			t.Fatal(err)
		}
		qs[name] = q
	}
	tri := func(name string, d dataset.Triangle) {
		add(name, "ABC", atom("R", "AB", d.R), atom("S", "BC", d.S), atom("T", "AC", d.T))
	}
	tri("triangle-agm", dataset.TriangleAGMTight(900))
	tri("triangle-skew", dataset.TriangleSkew(400))
	g := dataset.RandomGraph(300, 2400, 13)
	add("clique4", "ABCD", atom("E", "AB", g), atom("E", "AC", g), atom("E", "AD", g),
		atom("E", "BC", g), atom("E", "BD", g), atom("E", "CD", g))
	add("path4", "ABCD", atom("E", "AB", g), atom("E", "BC", g), atom("E", "CD", g))
	star := dataset.SkewedStar(2000, 8, 300)
	add("skewed-star", "ABC", atom("R", "AB", star.R), atom("S", "BC", star.S))
	ex := dataset.NewExample1(800, 3, 3, 0.3, 5)
	add("example1", "ABCD", atom("R", "AB", ex.R), atom("S", "BC", ex.S), atom("T", "CD", ex.T),
		atom("W", "ACD", ex.W), atom("V", "ABD", ex.V))
	ch := dataset.NewChain63(30, 3, 3, 3, 9)
	add("chain63", "ABCD", atom("R", "A", ch.R), atom("S", "AB", ch.S), atom("T", "BC", ch.T), atom("W", "CAD", ch.W))
	c4 := dataset.RandomGraph(500, 2000, 11)
	add("4cycle", "ABCD", atom("E", "AB", c4), atom("E", "BC", c4), atom("E", "CD", c4), atom("E", "DA", c4))
	pl := dataset.PowerLawGraph(300, 3000, 1.6, 21)
	add("powerlaw/triangle", "ABC", atom("E", "AB", pl), atom("E", "BC", pl), atom("E", "AC", pl))
	add("powerlaw/path3", "ABC", atom("E", "AB", pl), atom("E", "BC", pl))
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name, vars string) Atom {
			b := relation.NewBuilder(name, "x", "y")
			for i := 0; i < 20+rng.Intn(60); i++ {
				b.Add(relation.Value(rng.Intn(9)), relation.Value(rng.Intn(9)))
			}
			return atom(name, vars, b.Build())
		}
		add(fmt.Sprintf("random/seed=%d", seed), "ABCD",
			mk("R", "AB"), mk("S", "BC"), mk("T", "CD"), mk("U", "DA"), mk("V", "AC"))
	}
	var product []Atom
	for i, v := range []string{"A", "B", "C", "D", "E"} {
		b := relation.NewBuilder(fmt.Sprintf("R%d", i+1), "x")
		for x := 0; x < 100000; x++ {
			b.Add(relation.Value(x))
		}
		product = append(product, atom(fmt.Sprintf("R%d", i+1), v, b.Build()))
	}
	add("overflow", "ABCDE", product...)
	return qs
}

// TestCappedCount: the count capped at k is min(Count, k) — the
// truncated semiring every aggregate runs in, EXISTS being k = 1 — whose
// capped levels stream, serial and sharded. A count that overflows int64
// exceeds every cap.
func TestCappedCount(t *testing.T) {
	ctx := context.Background()
	for name, q := range capWorkloads(t) {
		p, cls, err := AggPlanSrc(new(TrieMemo), q, nil, agg.Spec{Mode: agg.ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		count, _, err := GenericJoinAggPlan(ctx, p, cls, 1)
		if errors.Is(err, agg.ErrCountOverflow) {
			count = uncapped
		} else if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, k := range []int64{1, 2, 7} {
				r := newRun(ctx, p, cls, workers, &Stats{})
				r.cap, r.agg = k, true
				if got, err := r.search(nil); err != nil || got != min(count, k) {
					t.Errorf("%s/p=%d: capped at %d = %d, %v; want %d", name, workers, k, got, err, min(count, k))
				}
			}
		}
	}
}

// TestStatsMergeFoldsEveryField sets every field of two Stats to
// distinct non-zero values and checks that Merge folds each one: the
// high-water mark Intermediate by maximum, every other counter by sum.
// A counter added to Stats and forgotten in Merge fails here.
func TestStatsMergeFoldsEveryField(t *testing.T) {
	var s, o Stats
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem()
	for i := range sv.NumField() {
		sv.Field(i).SetInt(int64(10*i + 3))
		ov.Field(i).SetInt(int64(100*i + 7))
	}
	s.Merge(&o)
	for i := range sv.NumField() {
		a, b := int64(10*i+3), int64(100*i+7)
		want := a + b
		if name := sv.Type().Field(i).Name; name == "Intermediate" {
			want = max(a, b)
		}
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("Merge: %s = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
