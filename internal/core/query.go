// Package core implements the paper's worst-case optimal join
// algorithms:
//
//   - Generic-Join (Section 2, Algorithm 1 generalized to arbitrary
//     full conjunctive queries), runtime Õ(N^{ρ*}) by Theorem 4.1;
//   - the heavy/light triangle algorithm (Algorithm 2), derived from
//     the entropy proof of the triangle bound;
//   - backtracking search for acyclic degree constraints (Algorithm 3,
//     Theorem 5.1), runtime Õ(|D| + ∏ N_{Y|X}^{δ_{Y|X}}): Generic-Join
//     under the constraints' compatible order (BacktrackOrder).
//
// Queries are full conjunctive queries: every variable appears in the
// head. Relations bind to atoms positionally.
//
// Execution plans are built by BuildPlanWith under a pluggable
// OrderPolicy — explicit orders, the degree-order heuristic, or the
// cost-based optimizer of package planner, which scores candidate
// orders with the bound LPs of package bounds. Per-atom tries are
// served from a process-wide cache keyed by (relation, binding,
// order), so repeated queries and planner probes skip the re-sort.
package core

import (
	"fmt"

	"wcoj/internal/hypergraph"
	"wcoj/internal/relation"
)

// Atom is one body atom R_F(A_F): a named relation with the query
// variables bound to its attribute positions.
type Atom struct {
	Name string
	Vars []string
	Rel  *relation.Relation
}

// Query is a full conjunctive query Q(A_[n]) ← ∧_F R_F(A_F).
type Query struct {
	// Vars is the query's variable set in output order. For a full CQ
	// this is all variables appearing in the body.
	Vars  []string
	Atoms []Atom
}

// NewQuery builds and validates a query. Every atom's variable count
// must match its relation's arity, variables may not repeat within an
// atom, and every query variable must occur in some atom.
func NewQuery(vars []string, atoms []Atom) (*Query, error) {
	q := &Query{Vars: append([]string(nil), vars...), Atoms: atoms}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Validate checks the structural invariants of the query.
func (q *Query) Validate() error {
	seen := make(map[string]bool)
	for _, v := range q.Vars {
		if seen[v] {
			return fmt.Errorf("core: duplicate query variable %q", v)
		}
		seen[v] = true
	}
	covered := make(map[string]bool)
	for _, a := range q.Atoms {
		if a.Rel == nil {
			return fmt.Errorf("core: atom %s has no relation", a.Name)
		}
		if len(a.Vars) != a.Rel.Arity() {
			return fmt.Errorf("core: atom %s has %d variables but relation arity %d",
				a.Name, len(a.Vars), a.Rel.Arity())
		}
		av := make(map[string]bool)
		for _, v := range a.Vars {
			if av[v] {
				return fmt.Errorf("core: atom %s repeats variable %q", a.Name, v)
			}
			av[v] = true
			if !seen[v] {
				return fmt.Errorf("core: atom %s uses variable %q not in the head (query must be full)", a.Name, v)
			}
			covered[v] = true
		}
	}
	for _, v := range q.Vars {
		if !covered[v] {
			return fmt.Errorf("core: variable %q occurs in no atom", v)
		}
	}
	return nil
}

// Hypergraph returns the query's multi-hypergraph.
func (q *Query) Hypergraph() (*hypergraph.Hypergraph, error) {
	edges := make([]hypergraph.Edge, len(q.Atoms))
	for i, a := range q.Atoms {
		edges[i] = hypergraph.Edge{Name: a.Name, Vertices: a.Vars}
	}
	return hypergraph.New(q.Vars, edges)
}

// Sizes returns |R_F| per atom, as floats for the bound LPs.
func (q *Query) Sizes() []float64 {
	out := make([]float64, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = float64(a.Rel.Len())
	}
	return out
}

// MaxRelationSize returns N = max_F |R_F|.
func (q *Query) MaxRelationSize() int {
	best := 0
	for _, a := range q.Atoms {
		if a.Rel.Len() > best {
			best = a.Rel.Len()
		}
	}
	return best
}

// OutputName returns a display name for the query result.
func (q *Query) OutputName() string { return "Q" }

// Stats records execution counters for a join run; they back the
// empirical runtime-shape checks in the benchmark harness.
type Stats struct {
	// Output is the number of result tuples.
	Output int
	// IntersectValues counts values produced by all level
	// intersections (Generic-Join / Algorithm 3) — the paper's unit of
	// work in the analysis (19).
	IntersectValues int
	// Recursions counts search-tree nodes explored.
	Recursions int
	// Intermediate is the maximum intermediate relation size (binary
	// join plans; zero for one-shot WCOJ algorithms).
	Intermediate int
	// AggMultiplies counts the free-counted shortcuts taken by the
	// aggregate-aware engines: suffix levels whose subtree
	// cardinalities were multiplied (or tail intersections counted)
	// instead of recursed into.
	AggMultiplies int
	// AggMemoHits counts subtree results served from the aggregate
	// memo. Memo tables are per-worker, so this total may differ
	// between serial and parallel runs of the same query (the counted
	// result never does).
	AggMemoHits int
}

// Merge folds the counters of o into s. Additive counters sum;
// Intermediate, a high-water mark, takes the maximum. The parallel
// engine runs each shard against a private Stats and merges them in
// deterministic chunk order, so a parallel run reports the same
// counter totals as the equivalent serial run.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	s.Output += o.Output
	s.IntersectValues += o.IntersectValues
	s.Recursions += o.Recursions
	if o.Intermediate > s.Intermediate {
		s.Intermediate = o.Intermediate
	}
	s.AggMultiplies += o.AggMultiplies
	s.AggMemoHits += o.AggMemoHits
}
