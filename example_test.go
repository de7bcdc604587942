package wcoj_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"wcoj"
)

// ExampleExecute evaluates the triangle query on a six-edge graph with
// Generic-Join.
func ExampleExecute() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("E", "src", "dst")
	for _, e := range [][2]wcoj.Value{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 1}, {2, 4}} {
		if err := b.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	db.Put(b.Build())

	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := wcoj.Execute(q, wcoj.Options{Algorithm: wcoj.AlgoGenericJoin})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < out.Len(); i++ {
		fmt.Println(out.Tuple(i, nil))
	}
	// Output:
	// (1, 2, 3)
	// (2, 3, 4)
}

// ExampleAGMBound prices the worst case of a query before running it.
func ExampleAGMBound() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("E", "src", "dst")
	for i := wcoj.Value(0); i < 10; i++ {
		for j := wcoj.Value(0); j < 10; j++ {
			if err := b.Add(i, j); err != nil {
				log.Fatal(err)
			}
		}
	}
	db.Put(b.Build())
	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	agm, err := wcoj.AGMBound(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rho* = %.1f, bound = %.0f\n", agm.Rho, agm.Bound)
	// Output:
	// rho* = 1.5, bound = 1000
}

// ExampleModularBound shows the degree-constraint bound of
// Proposition 4.4 with its dual exponents.
func ExampleModularBound() {
	db := wcoj.NewDatabase()
	r := wcoj.NewRelationBuilder("R", "A")
	s := wcoj.NewRelationBuilder("S", "A", "B")
	for a := wcoj.Value(0); a < 4; a++ {
		if err := r.Add(a); err != nil {
			log.Fatal(err)
		}
		for j := wcoj.Value(0); j < 2; j++ {
			if err := s.Add(a, 2*a+j); err != nil {
				log.Fatal(err)
			}
		}
	}
	db.Put(r.Build())
	db.Put(s.Build())
	q, err := wcoj.MustParse("Q(A,B) :- R(A), S(A,B)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	dc := wcoj.ConstraintSet{
		wcoj.Cardinality("R", []string{"A"}, 4),
		wcoj.Degree("S", []string{"A"}, []string{"A", "B"}, 2),
	}
	bound, err := wcoj.ModularBound(q, dc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bound = %.0f tuples (delta = %.0f, %.0f)\n", bound.Bound, bound.Delta[0], bound.Delta[1])
	// Output:
	// bound = 8 tuples (delta = 1, 1)
}

// ExampleExplain shows the cost-based planner reading the data's
// degree statistics: every R edge points at a single hub value of B,
// so binding B first prices its prefix at one tuple, while the worst
// order pays the A×C cross product before any join constraint
// applies.
func ExampleExplain() {
	db := wcoj.NewDatabase()
	r := wcoj.NewRelationBuilder("R", "a", "b")
	for i := wcoj.Value(1); i <= 100; i++ {
		if err := r.Add(i, 0); err != nil { // a star: every edge hits hub 0
			log.Fatal(err)
		}
	}
	s := wcoj.NewRelationBuilder("S", "b", "c")
	for j := wcoj.Value(0); j < 5; j++ {
		if err := s.Add(0, 200+j); err != nil {
			log.Fatal(err)
		}
	}
	for k := wcoj.Value(0); k < 40; k++ {
		if err := s.Add(300+2*k, 301+2*k); err != nil { // distractors: sources absent from R
			log.Fatal(err)
		}
	}
	db.Put(r.Build())
	db.Put(s.Build())
	q, err := wcoj.MustParse("Q(A,B,C) :- R(A,B), S(B,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	e, err := wcoj.Explain(q, wcoj.Options{Planner: wcoj.PlannerCostBased})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy:", e.Policy)
	fmt.Println("chosen:", e.Order)
	fmt.Println("worst: ", e.Worst.Order)
	fmt.Printf("scored %d orders (exhaustive=%v)\n", e.Considered, e.Exhaustive)
	// Output:
	// policy: cost-based
	// chosen: [B C A]
	// worst:  [A C B]
	// scored 6 orders (exhaustive=true)
}

// ExampleExecute_costBasedPlanner runs the triangle query with
// Options.Planner set to the cost-based optimizer: the variable order
// is chosen from measured degree statistics, and the materialized
// output is identical to every other order.
func ExampleExecute_costBasedPlanner() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("E", "src", "dst")
	for _, e := range [][2]wcoj.Value{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 1}, {2, 4}} {
		if err := b.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	db.Put(b.Build())

	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := wcoj.Execute(q, wcoj.Options{Planner: wcoj.PlannerCostBased})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < out.Len(); i++ {
		fmt.Println(out.Tuple(i, nil))
	}
	// Output:
	// (1, 2, 3)
	// (2, 3, 4)
}

// ExampleCount counts without enumerating: Count runs the aggregate
// pushdown plan by default, and Explain reports that plan in its Count
// field — single-atom variables are sunk past CountFrom and multiplied
// through instead of searched.
func ExampleCount() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("E", "src", "dst")
	for _, e := range [][2]wcoj.Value{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 1}, {2, 4}} {
		if err := b.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	db.Put(b.Build())

	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	n, _, err := wcoj.Count(q, wcoj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	e, err := wcoj.Explain(q, wcoj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-paths: %d\n", n)
	fmt.Printf("order: %v counted from level %d\n", e.Count.Order, e.Count.CountFrom)
	// Output:
	// 2-paths: 8
	// order: [B A C] counted from level 1
}

// ExampleOptions_context cancels a one-shot query through
// Options.Context — the same per-256-nodes polling the DB/PreparedQuery
// entry points drive through their explicit ctx parameter, so a free
// function and a prepared query abort identically.
func ExampleOptions_context() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("K", "x", "y")
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if err := b.Add(wcoj.Value(i), wcoj.Value(j)); err != nil {
				log.Fatal(err)
			}
		}
	}
	db.Put(b.Build())
	q, err := wcoj.MustParse("Q(A,B,C,D) :- K(A,B), K(B,C), K(C,D)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}

	// The complete bipartite product has ~10^8 results; cancel instead
	// of enumerating them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = wcoj.Execute(q, wcoj.Options{Context: ctx})
	fmt.Println("one-shot:", err)

	// Equivalent cancellation of the prepared form.
	sdb := wcoj.NewDB()
	if err := sdb.Register(wcoj.NewRelation("K", []string{"x", "y"}, []wcoj.Tuple{{1, 1}})); err != nil {
		log.Fatal(err)
	}
	pq, err := sdb.Prepare("Q(A,B,C,D) :- K(A,B), K(B,C), K(C,D)", wcoj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	_, _, err = pq.Execute(ctx)
	fmt.Println("prepared:", err)
	// Output:
	// one-shot: context canceled
	// prepared: context canceled
}

// ExampleExecute_project enumerates the distinct endpoints of 2-paths:
// the middle variable B is projected away and existence-checked, never
// enumerated.
func ExampleExecute_project() {
	db := wcoj.NewDatabase()
	b := wcoj.NewRelationBuilder("E", "src", "dst")
	for _, e := range [][2]wcoj.Value{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 1}, {2, 4}} {
		if err := b.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	db.Put(b.Build())

	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := wcoj.Execute(q, wcoj.Options{Project: []string{"A", "C"}})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < out.Len(); i++ {
		fmt.Println(out.Tuple(i, nil))
	}
	// Output:
	// (1, 3)
	// (1, 4)
	// (2, 1)
	// (2, 4)
	// (3, 1)
	// (4, 2)
	// (4, 3)
}

// ExampleDB demonstrates the long-lived engine: relations are
// registered once (here from CSV text), queries are prepared once, and
// the prepared plan is re-executed with context cancellation and
// per-call stats.
func ExampleDB() {
	db := wcoj.NewDB()
	csv := "person,follows\nalice,bob\nbob,carol\nalice,carol\n"
	if _, err := db.LoadCSV(strings.NewReader(csv), "F", wcoj.CSVOptions{Dict: db.Dict()}); err != nil {
		log.Fatal(err)
	}

	pq, err := db.Prepare("Q(A,B,C) :- F(A,B), F(B,C), F(A,C)", wcoj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := pq.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	dict := db.Dict()
	var row wcoj.Tuple
	for i := 0; i < out.Len(); i++ {
		row = out.Tuple(i, row)
		fmt.Printf("%s -> %s -> %s\n", dict.String(row[0]), dict.String(row[1]), dict.String(row[2]))
	}
	fmt.Println("calls:", pq.Stats().Calls)
	// Output:
	// alice -> bob -> carol
	// calls: 1
}

// ExampleDB_Insert updates a live relation in place: the prepared
// query keeps its plan across the batch — only the touched relation's
// tries are re-versioned by merging the delta — and duplicate inserts
// or absent deletes are exact no-ops.
func ExampleDB_Insert() {
	db := wcoj.NewDB()
	if err := db.Register(wcoj.NewRelation("E", []string{"src", "dst"}, []wcoj.Tuple{
		{1, 2}, {2, 3}, {1, 3},
	})); err != nil {
		log.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", wcoj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	n, _, _ := pq.Count(ctx)
	fmt.Println("triangles before:", n)

	// One atomic batch: close a second triangle, retract an edge of the
	// first, and try a duplicate insert (a counted no-op).
	stats, err := db.Apply(wcoj.NewBatch().
		Insert("E", wcoj.Tuple{3, 4}, wcoj.Tuple{2, 4}, wcoj.Tuple{2, 3}).
		Delete("E", wcoj.Tuple{1, 3}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d (noops %d), deleted %d\n", stats.Inserted, stats.InsertNoops, stats.Deleted)

	// The held prepared query sees the new snapshot without replanning.
	n, _, _ = pq.Count(ctx)
	fmt.Println("triangles after:", n)
	// Output:
	// triangles before: 1
	// inserted 2 (noops 1), deleted 1
	// triangles after: 1
}

// ExampleDB_Materialize keeps a standing triangle count over an edge
// stream. Materialize computes the answer once; every subsequent batch
// folds its signed delta into the registered result differentially, so
// reading the count is one atomic load — no join runs at read time,
// and the value is always exactly the epoch the last Apply published.
func ExampleDB_Materialize() {
	db := wcoj.NewDB()
	if err := db.Register(wcoj.NewRelation("E", []string{"src", "dst"}, []wcoj.Tuple{
		{1, 2}, {2, 3},
	})); err != nil {
		log.Fatal(err)
	}
	mq, err := db.Materialize("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", wcoj.MaterializeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangles:", mq.Count())

	// Stream edges in one at a time; the view tracks every batch.
	for _, e := range []wcoj.Tuple{{1, 3}, {3, 4}, {2, 4}} {
		if _, err := db.Insert("E", e); err != nil {
			log.Fatal(err)
		}
		fmt.Println("triangles:", mq.Count())
	}
	// Retraction subtracts the triangles the edge carried.
	if _, err := db.Delete("E", wcoj.Tuple{1, 3}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangles:", mq.Count())
	// Output:
	// triangles: 0
	// triangles: 1
	// triangles: 1
	// triangles: 2
	// triangles: 1
}
