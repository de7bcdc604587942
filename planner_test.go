package wcoj

// Planner acceptance and equivalence suite. The cost-based planner
// must (a) pick an order that beats the worst enumerated order by a
// wide margin on the skewed star fixture, and (b) produce
// byte-identical output to the heuristic engine on every fixture,
// serial and parallel. Run with -race: planning shares memoized tries
// across goroutines.

import (
	"fmt"
	"strings"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
)

// starQuery builds Q(A,B,C) :- R(A,B), S(B,C) over a Star instance.
func starQuery(t testing.TB, s dataset.Star) *Query {
	t.Helper()
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: s.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: s.S},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// plannerFixtures are the equivalence workloads: triangle, 4-clique,
// path and the skewed star.
func plannerFixtures(t testing.TB) map[string]*Query {
	t.Helper()
	qs := make(map[string]*Query)

	tri := dataset.TriangleSkew(400)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["triangle"] = q

	db := NewDatabase()
	db.Put(dataset.RandomGraph(120, 2000, 7))
	q, err = MustParse("Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["4clique"] = q

	db = NewDatabase()
	db.Put(dataset.RandomGraph(300, 1500, 3))
	q, err = MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["path"] = q

	qs["skewed-star"] = starQuery(t, dataset.SkewedStar(2000, 8, 300))
	return qs
}

// TestPlannerMatchesHeuristic asserts the cost-based order produces
// byte-identical output to the heuristic order on every fixture, for
// both WCOJ engines, serial and parallel.
func TestPlannerMatchesHeuristic(t *testing.T) {
	for name, q := range plannerFixtures(t) {
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			want, _, err := Execute(q, Options{Algorithm: algo, Planner: PlannerHeuristic, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%v heuristic: %v", name, algo, err)
			}
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/p=%d", name, algo, p), func(t *testing.T) {
					opts := Options{Algorithm: algo, Planner: PlannerCostBased, Parallelism: p}
					got, _, err := Execute(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("cost-based output disagrees: %d rows vs %d", got.Len(), want.Len())
					}
					n, _, err := Count(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if n != want.Len() {
						t.Fatalf("cost-based Count %d, want %d", n, want.Len())
					}
				})
			}
		}
	}
}

// work is the deterministic execution-effort measure the acceptance
// check compares: search-tree nodes plus intersection output.
func work(s *Stats) int { return s.Recursions + s.IntersectValues }

// TestPlannerSkewedStar is the acceptance check: on a star with a
// 10k-spoke hub the cost-based planner must bind the hub variable
// first and beat the worst enumerated order by at least 5x in search
// work (the deterministic proxy for end-to-end time; BenchmarkPlanner
// reports the wall-clock version).
func TestPlannerSkewedStar(t *testing.T) {
	q := starQuery(t, dataset.SkewedStar(10000, 10, 500))
	exp, err := Explain(q, Options{Planner: PlannerCostBased})
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Exhaustive || exp.Considered != 6 {
		t.Fatalf("expected exhaustive enumeration of 3! orders, got exhaustive=%v considered=%d",
			exp.Exhaustive, exp.Considered)
	}
	if exp.Order[0] != "B" {
		t.Fatalf("planner bound %q first, want the hub variable B (order %v)", exp.Order[0], exp.Order)
	}
	if exp.Worst == nil || exp.Worst.Order[len(exp.Worst.Order)-1] != "B" {
		t.Fatalf("worst order should bind B last, got %+v", exp.Worst)
	}

	chosenOut, chosenStats, err := Execute(q, Options{Order: exp.Order})
	if err != nil {
		t.Fatal(err)
	}
	worstOut, worstStats, err := Execute(q, Options{Order: exp.Worst.Order})
	if err != nil {
		t.Fatal(err)
	}
	if !chosenOut.Equal(worstOut) {
		t.Fatalf("orders disagree on output: %d vs %d rows", chosenOut.Len(), worstOut.Len())
	}
	if chosenOut.Len() != 10000*10 {
		t.Fatalf("star output %d rows, want %d", chosenOut.Len(), 10000*10)
	}
	cw, ww := work(chosenStats), work(worstStats)
	if ww < 5*cw {
		t.Fatalf("worst order work %d is under 5x the chosen order's %d", ww, cw)
	}
	t.Logf("chosen %v work=%d; worst %v work=%d (%.1fx)", exp.Order, cw, exp.Worst.Order, ww, float64(ww)/float64(cw))
}

// TestExplainPolicies pins the policy-resolution matrix of Explain
// and the planner-option validation of Execute.
func TestExplainPolicies(t *testing.T) {
	q := starQuery(t, dataset.SkewedStar(50, 4, 10))

	e, err := Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Policy.String() != "heuristic" || len(e.Candidates) != 1 || len(e.LogBounds) != len(q.Vars) {
		t.Fatalf("auto without order should explain the heuristic plan, got %+v", e)
	}

	e, err = Explain(q, Options{Order: []string{"C", "B", "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Policy.String() != "explicit" || strings.Join(e.Order, ",") != "C,B,A" {
		t.Fatalf("auto with order should explain the explicit plan, got %+v", e)
	}

	e, err = Explain(q, Options{Planner: PlannerCostBased})
	if err != nil {
		t.Fatal(err)
	}
	if e.Policy.String() != "cost-based" || e.Worst == nil || !e.Exhaustive || e.Constraints == 0 {
		t.Fatalf("cost-based explanation incomplete: %+v", e)
	}
	if s := e.String(); !strings.Contains(s, "cost-based") || !strings.Contains(s, "worst:") {
		t.Fatalf("explanation rendering missing sections:\n%s", s)
	}

	// Conflicting and incomplete planner settings are rejected with
	// descriptive errors, in Explain and in the execution entry points.
	if _, err := Explain(q, Options{Planner: PlannerCostBased, Order: []string{"A", "B", "C"}}); err == nil {
		t.Fatal("cost-based + explicit order must fail")
	}
	if _, err := Explain(q, Options{Planner: PlannerExplicit}); err == nil {
		t.Fatal("explicit without order must fail")
	}
	if _, _, err := Execute(q, Options{Planner: PlannerExplicit}); err == nil {
		t.Fatal("Execute explicit without order must fail")
	}
	if _, _, err := Execute(q, Options{Algorithm: AlgoBacktracking, Planner: PlannerCostBased}); err == nil {
		t.Fatal("cost-based planner on backtracking must fail")
	}
	if _, _, err := Count(q, Options{Planner: PlannerHeuristic, Order: []string{"A", "B", "C"}}); err == nil {
		t.Fatal("heuristic + explicit order must fail")
	}

	// Explicit orders that are not permutations name the variable.
	_, _, err = Execute(q, Options{Order: []string{"A", "B"}})
	if err == nil || !strings.Contains(err.Error(), `"C"`) {
		t.Fatalf("missing variable error should name C, got %v", err)
	}
	_, _, err = Execute(q, Options{Order: []string{"A", "B", "B"}})
	if err == nil || !strings.Contains(err.Error(), `"B"`) {
		t.Fatalf("duplicate variable error should name B, got %v", err)
	}
}
