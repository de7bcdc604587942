package wcoj

// Strategy equivalence, stated once. The search materializes the
// levels that visit every value (enumeration, COUNT) and streams the
// ones that may stop early (EXISTS, and the existence checks below a
// projection boundary), so the modes of one query run different
// kernels. For every query, order, projection and parallelism they must
// agree with each other — Count is the number of tuples ExecuteFunc
// emits, Exists is Count > 0 — and with the serial run, tuple for
// tuple in the same sequence; and AlgoBacktracking, the same search
// under its constraints' order, must return the same answers. The other
// suites check each mode against an oracle; this table is where they
// are checked against each other.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	// A count beyond int64: every mode must fail the same way.
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

// strategyRun is what one run of every mode produced for one (case,
// options).
type strategyRun struct {
	tuples []Value // the ExecuteFunc emit sequence, flattened
	n      int
	found  bool
	errs   [4]error // enumerate (or project), count, enumerating count, exists
}

func runStrategy(q *Query, o Options, enumerate bool) strategyRun {
	var r strategyRun
	if enumerate {
		_, r.errs[0] = ExecuteFunc(q, o, func(tu Tuple) error {
			r.tuples = append(r.tuples, tu...)
			return nil
		})
	}
	r.n, _, r.errs[1] = Count(q, o)
	if enumerate {
		slow := o
		slow.DisablePushdown = true
		var n int
		n, _, r.errs[2] = Count(q, slow)
		if r.errs[2] == nil && r.errs[1] == nil && n != r.n {
			r.errs[2] = fmt.Errorf("enumerating Count %d vs pushdown Count %d", n, r.n)
		}
	}
	r.found, _, r.errs[3] = Exists(q, o)
	return r
}

// sortedTuples returns the flattened tuples of the given arity in
// lexicographic order, for comparing runs whose orders differ.
func sortedTuples(flat []Value, arity int) []Value {
	ts := make([][]Value, 0, len(flat)/arity)
	for i := 0; i < len(flat); i += arity {
		ts = append(ts, flat[i:i+arity])
	}
	slices.SortFunc(ts, slices.Compare)
	return slices.Concat(ts...)
}

func TestStrategyEquivalence(t *testing.T) {
	modes := [4]string{"enumerate", "count", "count-enumerating", "exists"}
	sameErrs := func(t *testing.T, what string, a, b strategyRun) {
		t.Helper()
		for m, mode := range modes {
			if (a.errs[m] == nil) != (b.errs[m] == nil) || (a.errs[m] != nil && !errors.Is(b.errs[m], a.errs[m])) {
				t.Fatalf("%s: %s err %v vs %v", mode, what, a.errs[m], b.errs[m])
			}
		}
	}
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
				arity := len(c.q.Vars)
				if project != nil {
					arity = len(project)
				}
				serial := runStrategy(c.q, Options{Order: order, Project: project, Parallelism: 1}, enumerate)
				for _, p := range append([]int{4}, parallelisms...) {
					o := Options{Order: order, Project: project, Parallelism: p}
					t.Run(fmt.Sprintf("%s/order=%v/project=%v/p=%d", c.name, order, project, p), func(t *testing.T) {
						gj := runStrategy(c.q, o, enumerate)
						sameErrs(t, "serial", serial, gj)
						if gj.n != serial.n || gj.found != serial.found || !slices.Equal(gj.tuples, serial.tuples) {
							t.Fatalf("count %d, exists %v, %d values emitted; serial %d, %v, %d, or the emit sequences diverge",
								gj.n, gj.found, len(gj.tuples), serial.n, serial.found, len(serial.tuples))
						}
						if gj.errs[1] == nil && gj.errs[3] == nil && gj.found != (gj.n > 0) {
							t.Fatalf("Exists %v, Count %d", gj.found, gj.n)
						}
						if enumerate && gj.errs[0] == nil && gj.errs[1] == nil && len(gj.tuples) != gj.n*arity {
							t.Fatalf("ExecuteFunc emitted %d tuples, Count %d", len(gj.tuples)/arity, gj.n)
						}
						o.Algorithm = AlgoBacktracking
						bt := runStrategy(c.q, o, enumerate)
						sameErrs(t, "generic-join vs backtracking", gj, bt)
						if gj.n != bt.n || gj.found != bt.found || !slices.Equal(sortedTuples(gj.tuples, arity), sortedTuples(bt.tuples, arity)) {
							t.Fatalf("backtracking: count %d, exists %v, %d values; generic-join %d, %v, %d, or the answers differ",
								bt.n, bt.found, len(bt.tuples), gj.n, gj.found, len(gj.tuples))
						}
					})
				}
			}
		}
	}
}
