package wcoj

// Strategy equivalence, stated once. Generic-Join and Leapfrog
// Triejoin run one search and differ only in how a level's
// intersection reaches the recursion (materialized or streamed), so
// for every query, order, projection and parallelism they must emit the
// same tuples in the same sequence, return the same counts and errors,
// and account the same work. The other suites check each algorithm
// against an oracle; this table is where they are checked against each
// other.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wcoj/internal/dataset"
)

// strategyCase is one query of the equivalence table.
type strategyCase struct {
	name string
	q    *Query
	// orders are the explicit variable orders run besides the planner's
	// own; projects the projections run besides the full output.
	orders   [][]string
	projects [][]string
}

func strategyCases(t testing.TB) []strategyCase {
	t.Helper()
	var cases []strategyCase
	for _, wl := range aggWorkloads(t) {
		cases = append(cases, strategyCase{name: "agg/" + wl.name, q: wl.q})
	}
	for name, q := range parallelQueries(t) {
		cases = append(cases, strategyCase{name: "parallel/" + name, q: q})
	}
	bind := func(src string, rels ...*Relation) *Query {
		db := NewDatabase()
		for _, r := range rels {
			db.Put(r)
		}
		q, err := MustParse(src).Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// A power-law graph: one hub source dominates the first level of
	// every atom, so a handful of level intersections carry most of the
	// values — the shape where a streamed and a materialized level
	// differ most in the work they do per value.
	pl := dataset.PowerLawGraph(300, 3000, 1.6, 21)
	cases = append(cases,
		strategyCase{name: "powerlaw/triangle", q: bind("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", pl),
			orders: [][]string{{"C", "B", "A"}, {"B", "A", "C"}}},
		strategyCase{name: "powerlaw/path3", q: bind("Q(A,B,C) :- E(A,B), E(B,C)", pl),
			// B is projected away under a B-first order: sunk, not rejected.
			orders: [][]string{{"B", "A", "C"}}, projects: [][]string{{"A", "C"}}},
	)
	// Random 4-cycles with a chord, the shape of the engines' own
	// property tests, under orders that put every variable first.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name string) *Relation {
			b := NewRelationBuilder(name, "x", "y")
			for i := 0; i < 20+rng.Intn(60); i++ {
				if err := b.Add(Value(rng.Intn(9)), Value(rng.Intn(9))); err != nil {
					t.Fatal(err)
				}
			}
			return b.Build()
		}
		cases = append(cases, strategyCase{
			name:   fmt.Sprintf("random/seed=%d", seed),
			q:      bind("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A), V(A,C)", mk("R"), mk("S"), mk("T"), mk("U"), mk("V")),
			orders: [][]string{{"A", "B", "C", "D"}, {"D", "C", "B", "A"}, {"B", "D", "A", "C"}},
		})
	}
	// A count beyond int64: both strategies must fail the same way.
	db := NewDatabase()
	var atoms string
	for i, name := range []string{"R1", "R2", "R3", "R4", "R5"} {
		b := NewRelationBuilder(name, "x")
		for v := 0; v < 100000; v++ {
			if err := b.Add(Value(v)); err != nil {
				t.Fatal(err)
			}
		}
		db.Put(b.Build())
		if i > 0 {
			atoms += ", "
		}
		atoms += fmt.Sprintf("%s(%c)", name, 'A'+i)
	}
	overflow, err := MustParse("Q(A,B,C,D,E) :- " + atoms).Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, strategyCase{name: "overflow", q: overflow})
	return cases
}

// strategyRun is what one algorithm produced for one (case, options).
type strategyRun struct {
	tuples []Value // the ExecuteFunc emit sequence, flattened
	n      int
	found  bool
	stats  [4]*Stats // enumerate (or project), count, enumerating count, exists
	errs   [4]error
}

func runStrategy(q *Query, o Options, enumerate bool) strategyRun {
	var r strategyRun
	if enumerate {
		r.stats[0], r.errs[0] = ExecuteFunc(q, o, func(tu Tuple) error {
			r.tuples = append(r.tuples, tu...)
			return nil
		})
	}
	r.n, r.stats[1], r.errs[1] = Count(q, o)
	if enumerate {
		slow := o
		slow.DisablePushdown = true
		var n int
		n, r.stats[2], r.errs[2] = Count(q, slow)
		if r.errs[2] == nil && r.errs[1] == nil && n != r.n {
			r.errs[2] = fmt.Errorf("enumerating Count %d vs pushdown Count %d", n, r.n)
		}
	}
	r.found, r.stats[3], r.errs[3] = Exists(q, o)
	return r
}

func TestStrategyEquivalence(t *testing.T) {
	modes := [4]string{"enumerate", "count", "count-enumerating", "exists"}
	for _, c := range strategyCases(t) {
		// The overflow product has 10^25 results: count and exists only.
		enumerate := c.name != "overflow"
		for _, order := range append([][]string{nil}, c.orders...) {
			projects := [][]string{nil}
			if enumerate {
				// Every case also runs projected onto its first and onto its
				// last variable: a projected prefix and a sunk one.
				projects = append(projects, c.q.Vars[:1], c.q.Vars[len(c.q.Vars)-1:])
			}
			for _, project := range append(projects, c.projects...) {
				for _, p := range append([]int{4}, parallelisms...) {
					o := Options{Order: order, Project: project, Parallelism: p}
					t.Run(fmt.Sprintf("%s/order=%v/project=%v/p=%d", c.name, order, project, p), func(t *testing.T) {
						o.Algorithm = AlgoGenericJoin
						gj := runStrategy(c.q, o, enumerate)
						o.Algorithm = AlgoLeapfrog
						lf := runStrategy(c.q, o, enumerate)
						for m, mode := range modes {
							if (gj.errs[m] == nil) != (lf.errs[m] == nil) || (gj.errs[m] != nil && !errors.Is(lf.errs[m], gj.errs[m])) {
								t.Fatalf("%s: generic-join err %v vs leapfrog err %v", mode, gj.errs[m], lf.errs[m])
							}
						}
						if gj.n != lf.n || gj.found != lf.found {
							t.Fatalf("count %d/%d, exists %v/%v", gj.n, lf.n, gj.found, lf.found)
						}
						if len(gj.tuples) != len(lf.tuples) {
							t.Fatalf("emitted %d values vs %d", len(gj.tuples), len(lf.tuples))
						}
						for i := range gj.tuples {
							if gj.tuples[i] != lf.tuples[i] {
								t.Fatalf("emit sequences diverge at flat index %d", i)
							}
						}
						for m, mode := range modes {
							g, l := gj.stats[m], lf.stats[m]
							if g == nil || l == nil {
								continue // mode not run, or failed identically
							}
							if mode == "exists" && p != 1 {
								continue // shards race the stop flag: counters are not deterministic
							}
							// A level that stops at its first witness leaves the
							// rest of a streamed level unintersected, where the
							// materialized level already paid for all of it:
							// wherever the search existence-checks (exists, and
							// below a projection boundary) the leapfrog strategy
							// may produce fewer values. Nothing else may differ.
							if checks := mode == "exists" || project != nil; checks && l.IntersectValues <= g.IntersectValues {
								l.IntersectValues = g.IntersectValues
							}
							if *g != *l {
								t.Errorf("%s stats diverge: generic-join %+v vs leapfrog %+v", mode, *g, *l)
							}
						}
					})
				}
			}
		}
	}
}
