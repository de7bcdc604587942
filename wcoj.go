// Package wcoj is a library of worst-case optimal join (WCOJ)
// algorithms and output-size bounds, implementing Hung Q. Ngo's PODS
// 2018 survey "Worst-Case Optimal Join Algorithms: Techniques, Results,
// and Open Problems".
//
// The package evaluates full conjunctive queries with runtime matching
// the worst-case output size: Generic-Join and Leapfrog Triejoin meet
// the AGM bound N^{ρ*}, the heavy/light triangle algorithm realizes
// the entropy-proof bound, backtracking search is worst-case optimal
// under acyclic degree constraints (Theorem 5.1), and the PANDA
// executor interprets Shannon-flow proof sequences as relational
// programs. Classical binary join plans are kept as reference
// baselines for the experiments, not as algorithms Execute runs.
//
// Quick start:
//
//	db := wcoj.NewDatabase()
//	b := wcoj.NewRelationBuilder("E", "src", "dst")
//	b.Add(1, 2) ... ; db.Put(b.Build())
//	q, _ := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
//	out, stats, _ := wcoj.Execute(q, wcoj.Options{Algorithm: wcoj.AlgoGenericJoin})
//
// The variable order the WCOJ algorithms run under is resolved by a
// planner (Options.Planner): the degree-order heuristic or an explicit
// Options.Order (PlannerAuto), or the cost-based optimizer, which
// enumerates candidate orders and scores them with the paper's own
// bound LPs over degree statistics measured from the data. Explain
// returns the full planning record without running the join.
//
// For a long-lived serving process, DB owns registered relations
// (builders or CSV/TSV ingestion), their tries, and a plan cache;
// Prepare compiles a query once into a PreparedQuery that any number
// of goroutines re-execute with per-call Stats and context
// cancellation. See the "Serving queries from a long-lived DB"
// walkthrough in README.md.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the full system inventory.
package wcoj

import (
	"context"
	"fmt"

	"wcoj/internal/agg"
	"wcoj/internal/bounds"
	"wcoj/internal/constraints"
	"wcoj/internal/core"
	"wcoj/internal/hypergraph"
	"wcoj/internal/planner"
	"wcoj/internal/query"
	"wcoj/internal/relation"
)

// Re-exported data types. These aliases form the public surface of the
// library; the internal packages carry the implementations.
type (
	// Value is a dictionary-encoded attribute value.
	Value = relation.Value
	// Tuple is a row of values.
	Tuple = relation.Tuple
	// Relation is an immutable sorted set of tuples over a schema.
	Relation = relation.Relation
	// RelationBuilder accumulates tuples into a Relation.
	RelationBuilder = relation.Builder
	// Database is a named collection of relations.
	Database = relation.Database
	// Dict interns strings as Values.
	Dict = relation.Dict

	// Query is a full conjunctive query with bound relations.
	Query = core.Query
	// Atom is one query body atom.
	Atom = core.Atom
	// Stats carries execution counters.
	Stats = core.Stats

	// Constraint is a degree constraint (X, Y, N_{Y|X}).
	Constraint = constraints.Constraint
	// ConstraintSet is a set of degree constraints (the paper's DC).
	ConstraintSet = constraints.Set

	// ParsedQuery is a parsed but unbound conjunctive query.
	ParsedQuery = query.Parsed

	// Hypergraph is a query hypergraph.
	Hypergraph = hypergraph.Hypergraph

	// AGMResult reports an AGM bound computation.
	AGMResult = bounds.AGMResult
	// LPBound reports a polymatroid or modular bound computation.
	LPBound = bounds.LPBound

	// PlanExplanation is the structured EXPLAIN output of Explain: the
	// chosen variable order, its per-level bounds, the candidates the
	// planner considered and the worst order it rejected.
	PlanExplanation = planner.Explanation
	// PlanCandidate is one scored variable order in a PlanExplanation.
	PlanCandidate = planner.Candidate

	// LevelClass classifies one plan level for the aggregate-aware
	// engines (see PlanExplanation.Classes): ClassBound levels are
	// searched but not emitted, ClassFreeOutput levels are enumerated
	// into the output, ClassFreeCounted levels are multiplied through
	// without recursion.
	LevelClass = agg.Class
)

// Level classes reported by Explain's count plan and projection plans.
const (
	ClassBound       = agg.Bound
	ClassFreeOutput  = agg.FreeOutput
	ClassFreeCounted = agg.FreeCounted
)

// Constructors re-exported from the storage layer.
var (
	// NewDatabase returns an empty database.
	NewDatabase = relation.NewDatabase
	// NewRelationBuilder returns a builder for a relation schema.
	NewRelationBuilder = relation.NewBuilder
	// NewRelation builds a relation from tuples (panics on arity
	// mismatch; use a builder for error returns).
	NewRelation = relation.New
	// NewQuery builds and validates a query.
	NewQuery = core.NewQuery

	// Cardinality, FD and Degree build degree constraints.
	Cardinality = constraints.Cardinality
	FD          = constraints.FD
	Degree      = constraints.Degree

	// WithNodeBudget attaches a search-node budget to a query context:
	// every engine entry point taking the context (across all its
	// parallel shards) draws from the one allowance and fails with
	// ErrNodeBudget when it runs out. Admission control for shared
	// deployments — a runaway query is cut off by work done, not just
	// wall clock.
	WithNodeBudget = core.WithNodeBudget

	// ErrNodeBudget reports that a query exceeded the node budget
	// attached to its context; its partial results were discarded.
	ErrNodeBudget = core.ErrNodeBudget
)

// Parse parses a datalog-style conjunctive query such as
// "Q(A,B,C) :- R(A,B), S(B,C), T(A,C).".
func Parse(src string) (*ParsedQuery, error) { return query.Parse(src) }

// MustParse is Parse panicking on error; for tests and examples.
func MustParse(src string) *ParsedQuery {
	p, err := query.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Algorithm selects a join algorithm for Execute.
type Algorithm int

// Available algorithms.
const (
	// AlgoGenericJoin is Generic-Join [52] (default): recursive
	// multiway intersection, Õ(N^{ρ*}). It runs Leapfrog Triejoin [66]
	// too, as the survey treats them: the search streams a level's
	// intersection wherever the level may stop early (EXISTS, and the
	// existence checks below a projection boundary) and materializes it
	// wherever every value is visited (counts and emitted levels).
	AlgoGenericJoin Algorithm = iota
	// AlgoBacktracking is Algorithm 3: worst-case optimal under
	// acyclic degree constraints (supply Options.Constraints). It is
	// the Generic-Join search under the constraints' compatible order
	// (every X-variable of a constraint before its Y−X variables),
	// which Theorem 5.1's bound carries over to.
	AlgoBacktracking
)

// AlgoLeapfrog is an alias of AlgoGenericJoin, kept for callers that
// still name Leapfrog Triejoin: the search picks each level's strategy
// itself (see AlgoGenericJoin). ParseAlgorithm still accepts its old
// name, "leapfrog-triejoin".
const AlgoLeapfrog = AlgoGenericJoin

func (a Algorithm) String() string {
	switch a {
	case AlgoGenericJoin:
		return "generic-join"
	case AlgoBacktracking:
		return "backtracking"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves an algorithm name as printed by String, or
// "leapfrog-triejoin", the name of AlgoLeapfrog.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "leapfrog-triejoin" {
		return AlgoLeapfrog, nil
	}
	for _, a := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("wcoj: unknown algorithm %q", name)
}

// Planner selects how Execute, ExecuteFunc, Count and Explain resolve
// the variable order of AlgoGenericJoin. AlgoBacktracking runs under
// Options.Order when set and under its constraints' compatible order
// otherwise.
type Planner int

// Available planner policies.
const (
	// PlannerAuto (default): Options.Order when set, otherwise the
	// degree-order heuristic.
	PlannerAuto Planner = iota
	// PlannerCostBased runs the cost-based optimizer: candidate orders
	// are enumerated (exhaustively up to 8 variables, beam search
	// beyond) and scored with per-prefix output-size bounds computed
	// from measured degree statistics; Options.Order must be nil.
	PlannerCostBased
)

func (p Planner) String() string {
	switch p {
	case PlannerAuto:
		return "auto"
	case PlannerCostBased:
		return "cost-based"
	}
	return fmt.Sprintf("Planner(%d)", int(p))
}

// ParsePlanner resolves a planner policy name as printed by String.
func ParsePlanner(name string) (Planner, error) {
	for _, p := range []Planner{PlannerAuto, PlannerCostBased} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wcoj: unknown planner %q", name)
}

// Options configure Execute, ExecuteFunc and Count.
type Options struct {
	// Algorithm selects the join algorithm (default AlgoGenericJoin).
	Algorithm Algorithm
	// Order optionally fixes the variable order.
	Order []string
	// Planner selects how the variable order is resolved for
	// AlgoGenericJoin (default PlannerAuto: Order when set, heuristic
	// otherwise). PlannerCostBased scores candidate orders with the
	// bounds subsystem; see Explain for the decision record.
	// AlgoBacktracking rejects PlannerCostBased.
	Planner Planner
	// Constraints supplies the degree constraints of AlgoBacktracking,
	// which runs under their compatible order unless Order is set. Nil
	// means one cardinality constraint per atom; a cyclic set is
	// repaired per Proposition 5.2. Ignored by the other algorithms.
	Constraints ConstraintSet
	// Parallelism is the number of worker goroutines of the search: the
	// depth-0 intersection is computed once, partitioned into
	// contiguous chunks, and each chunk is searched by a worker with
	// private state over the shared immutable tries. Results are
	// concatenated in chunk order, so output (and the emit sequence of
	// ExecuteFunc) is identical to a serial run at every setting. 0 (the
	// default) means the size of the process-wide core budget,
	// min(GOMAXPROCS, NumCPU); 1 forces the serial search.
	//
	// Parallelism is an upper bound. Sharded runs draw workers from that
	// budget, and the calling goroutine always works, so under
	// concurrent load a run uses fewer goroutines — never a different
	// partition: output, emit order and Count's Stats depend on
	// Parallelism alone. The Stats of Exists, and of a run stopped early
	// (an emit error, a cancelled Context), do not: at Parallelism > 1
	// they count what each shard did before it saw the stop, which
	// depends on timing. A DB's writer holds one slot while it applies a
	// batch, and a worker that finds the budget oversubscribed gives its
	// slot back before claiming its next chunk.
	Parallelism int
	// Project, when non-nil, projects the result onto these variables:
	// Execute and ExecuteFunc produce the distinct projected tuples
	// (attributes in Project order) and Count counts them. It must be a
	// non-empty, duplicate-free subset of the query variables.
	//
	// The projection is pushed into the search: projected-away
	// variables are sunk to the end of the resolved variable order
	// (explicit orders included) and their levels are existence-checked
	// per prefix — short-circuiting on the first witness — instead of
	// enumerated, so a prefix with a million extensions costs the same
	// as one with a single extension.
	Project []string
	// Context, when non-nil, cancels an in-flight run: the free
	// functions (Execute, ExecuteFunc, Count, Exists) hand it to the
	// search workers, which poll it every 256 search nodes and unwind
	// promptly with ctx.Err() — the same machinery the DB/PreparedQuery
	// entry points drive through their explicit ctx parameter (see
	// ExampleOptions_context). DB.Prepare ignores this field: per-call
	// cancellation of a prepared query comes from the ctx argument of
	// each execution method.
	Context context.Context
	// DisablePushdown makes Count enumerate every result tuple instead
	// of running the aggregate-aware pushdown plan (sunk single-atom
	// variables, free-counted suffix, per-prefix memo — see the Count
	// documentation). The results are identical; the escape hatch
	// exists for debugging and for A/B measurement of the pushdown
	// itself. It does not affect distinct projected counting (Project
	// set), which is inherently aggregate-aware.
	DisablePushdown bool
}

// workers resolves Options.Parallelism to a concrete worker count.
func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return core.Cores()
	}
	return o.Parallelism
}

// plannerOptions validates the Planner/Order combination and maps it
// to the internal planner's options; it is the single source of truth
// the executor (via orderPolicyFor), Prepare and Explain share.
func (o Options) plannerOptions() (planner.Options, error) {
	switch o.Planner {
	case PlannerAuto:
		if o.Order != nil {
			return planner.Options{Policy: planner.Explicit, Explicit: o.Order}, nil
		}
		return planner.Options{Policy: planner.Heuristic}, nil
	case PlannerCostBased:
		if o.Order != nil {
			return planner.Options{}, fmt.Errorf("wcoj: PlannerCostBased conflicts with an explicit Options.Order; drop one of the two")
		}
		return planner.Options{Policy: planner.CostBased}, nil
	}
	return planner.Options{}, fmt.Errorf("wcoj: unknown planner %v", o.Planner)
}

// orderPolicyFor resolves Options.Planner and Options.Order into the
// core.OrderPolicy the search plans with. Heuristic and explicit
// plans skip the planner package entirely (no statistics to measure).
// A non-nil aggregate spec makes the cost-based planner enumerate only
// orders with the spec's sunk suffix; heuristic and explicit plans need
// no spec here — core.AggPlanSrc sinks any resolved order identically
// (Sink is idempotent, so cost-based orders pass through unchanged).
// AlgoBacktracking ignores Planner: it runs under Order when set and
// under its constraints' compatible order otherwise, and the
// constraints are checked against the query either way.
func (o Options) orderPolicyFor(spec *agg.Spec) (core.OrderPolicy, error) {
	if o.Algorithm == AlgoBacktracking {
		return core.OrderFunc(func(q *Query) ([]string, error) {
			dc, err := backtrackConstraints(q, o.Constraints)
			if err != nil {
				return nil, err
			}
			order, err := core.BacktrackOrder(q, dc)
			if err == nil && o.Order != nil {
				order = o.Order
			}
			return order, err
		}), nil
	}
	popt, err := o.plannerOptions()
	if err != nil {
		return nil, err
	}
	popt.Agg = spec
	switch popt.Policy {
	case planner.Explicit:
		return core.ExplicitOrder(popt.Explicit), nil
	case planner.Heuristic:
		return core.HeuristicOrder(), nil
	default:
		return planner.New(popt), nil
	}
}

// validateProject checks Options.Project against the query: when set
// it must be a non-empty, duplicate-free subset of the query
// variables.
func (o Options) validateProject(q *Query) error {
	if o.Project == nil {
		return nil
	}
	if len(o.Project) == 0 {
		return fmt.Errorf("wcoj: Options.Project must name at least one variable when set")
	}
	qvars := make(map[string]bool, len(q.Vars))
	for _, v := range q.Vars {
		qvars[v] = true
	}
	seen := make(map[string]bool, len(o.Project))
	for _, v := range o.Project {
		if seen[v] {
			return fmt.Errorf("wcoj: Options.Project repeats variable %q", v)
		}
		seen[v] = true
		if !qvars[v] {
			return fmt.Errorf("wcoj: Options.Project names %q, which is not a query variable", v)
		}
	}
	return nil
}

// validate rejects options q cannot run under: an unknown algorithm,
// planner settings the selected algorithm cannot honor (backtracking
// plans under its constraints, not the cost model) and a malformed
// Options.Project.
func (o Options) validate(q *Query) error {
	switch {
	case o.Algorithm < AlgoGenericJoin || o.Algorithm > AlgoBacktracking:
		return fmt.Errorf("wcoj: unknown algorithm %v", o.Algorithm)
	case o.Algorithm == AlgoBacktracking && o.Planner == PlannerCostBased:
		return fmt.Errorf("wcoj: the cost-based planner applies to AlgoGenericJoin only (got %v)", o.Algorithm)
	}
	return o.validateProject(q)
}

// oneShot is the executor behind the free functions: q's atoms are
// bound to plain relations, which the zero snapshot source indexes
// directly — nothing is cached and nothing outlives the call. Callers
// who want planning and index builds amortized use DB.Prepare.
func oneShot(q *Query, opts Options) (*executor, error) {
	if err := opts.validate(q); err != nil {
		return nil, err
	}
	return newExecutor(q, snapshotSource{}, opts, nil), nil
}

// Execute evaluates the query with the selected algorithm. With
// Options.Project set it returns the distinct projected tuples; see
// the Project field for how the WCOJ engines push the projection into
// the search.
func Execute(q *Query, opts Options) (*Relation, *Stats, error) {
	e, err := oneShot(q, opts)
	if err != nil {
		return nil, nil, err
	}
	return e.execute(opts.Context)
}

// ExecuteFunc evaluates the query, streaming each result tuple to emit
// instead of materializing a Relation. Tuples arrive in the canonical
// order Execute would store them in; the Tuple passed to emit is
// reused between calls, so emit must copy it to retain it. A non-nil
// error from emit aborts the run and is returned.
//
// Tuples stream directly from the search (sharded across
// Options.Parallelism workers, with per-chunk replay preserving the
// serial emit sequence).
//
// With Options.Project set the distinct projected tuples are streamed
// in the plan's prefix enumeration order — deterministic for fixed
// Options (and identical at every Parallelism), but not necessarily
// the sorted order the materialized Execute relation stores, since the
// planner may enumerate projected variables in a different relative
// order than Project lists them.
func ExecuteFunc(q *Query, opts Options, emit func(Tuple) error) (*Stats, error) {
	e, err := oneShot(q, opts)
	if err != nil {
		return nil, err
	}
	return e.visit(opts.Context, emit)
}

// Count evaluates the query returning only the output cardinality —
// full multiplicity with a nil Options.Project, distinct projected
// tuples otherwise.
//
// Count runs the aggregate-aware pushdown plan by default: each plan
// level is classified (see PlanExplanation.Count), variables occurring
// in a single atom are sunk to the end of the variable order — where
// the number of extensions is the product of the atoms' current
// row-range sizes (relations are duplicate-free sets) — the deepest
// searched level contributes its intersection size without recursing,
// and a per-(trie,prefix) memo counts a subtree below a separator
// once. Setting Options.DisablePushdown falls back to enumerating
// (never materializing) every result tuple; the two agree at every
// Parallelism setting and under every planner policy.
func Count(q *Query, opts Options) (int, *Stats, error) {
	e, err := oneShot(q, opts)
	if err != nil {
		return 0, nil, err
	}
	n, stats, err := e.count(opts.Context)
	return int(n), stats, err
}

// Exists reports whether the query has any result, short-circuiting on
// the first witness: the aggregate-aware search unwinds (all shards,
// via a shared stop flag) as soon as one tuple is found, and
// free-counted suffix levels are checked by range non-emptiness
// without being searched at all.
//
// Options.Project cannot change the answer (a projection is non-empty
// iff the full join is); it is validated for consistency with the
// other entry points and otherwise ignored.
func Exists(q *Query, opts Options) (bool, *Stats, error) {
	e, err := oneShot(q, opts)
	if err != nil {
		return false, nil, err
	}
	return e.exists(opts.Context)
}

// backtrackConstraints defaults to per-atom cardinalities and repairs
// cyclic sets per Proposition 5.2.
func backtrackConstraints(q *Query, dc ConstraintSet) (ConstraintSet, error) {
	if dc == nil {
		for _, a := range q.Atoms {
			n := float64(a.Rel.Len())
			if n < 1 {
				n = 1
			}
			dc = append(dc, constraints.Cardinality(a.Name, a.Vars, n))
		}
	}
	if !dc.IsAcyclic() {
		repaired, err := dc.MakeAcyclic(q.Vars)
		if err != nil {
			return nil, fmt.Errorf("wcoj: constraints are cyclic and unrepairable: %w", err)
		}
		dc = repaired
	}
	return dc, nil
}

// Explain resolves the variable order Execute would run q under and
// returns the full planning record: the chosen order, the per-level
// output-size bound of every prefix, and — for PlannerCostBased — the
// candidate orders considered and the worst order rejected. For
// AlgoBacktracking it explains the order the constraints resolve (or
// Options.Order). Explain rejects what Execute rejects, and performs no
// join work beyond measuring degree statistics and solving the
// (poly-size) modular bound LPs.
//
// With Options.Project set the plan is the projected enumeration's:
// projected-away variables are sunk and the explanation reports each
// level's bound/free-output/free-counted classification.
//
// The returned explanation also carries the count plan: its Count
// field is the planning record of the aggregate pushdown Count would
// run under the same options — which levels are searched (bound),
// which are enumerated into the output (free-output) and which are
// counted by range multiplication without being searched
// (free-counted). It is nil with Options.DisablePushdown set.
func Explain(q *Query, opts Options) (*PlanExplanation, error) {
	if err := opts.validate(q); err != nil {
		return nil, err
	}
	e, err := opts.explain(q, planEnum.spec(opts.Project))
	if err != nil {
		return nil, err
	}
	if !opts.DisablePushdown {
		if e.Count, err = opts.explain(q, planCount.spec(opts.Project)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// explain is the planning record of the order the executor's plan for
// spec runs q under: the planner's own record of its policy, or for
// AlgoBacktracking the record of the order orderPolicyFor resolves —
// policy "constraints" unless Options.Order fixed it.
func (o Options) explain(q *Query, spec *agg.Spec) (*PlanExplanation, error) {
	popt, err := o.plannerOptions()
	if err != nil {
		return nil, err
	}
	if o.Algorithm == AlgoBacktracking {
		pol, err := o.orderPolicyFor(spec)
		if err != nil {
			return nil, err
		}
		order, err := pol.ResolveOrder(q)
		if err != nil {
			return nil, err
		}
		popt = planner.Options{Policy: planner.Explicit, Explicit: order}
		if o.Order == nil {
			popt.Policy = planner.Constraints
		}
	}
	popt.Agg = spec
	return planner.Choose(q, popt)
}

// AGMBound computes the AGM output-size bound of the query from its
// relation sizes (Corollary 4.2).
func AGMBound(q *Query) (*AGMResult, error) {
	h, err := q.Hypergraph()
	if err != nil {
		return nil, err
	}
	return bounds.AGM(h, q.Sizes())
}

// PolymatroidBound computes the polymatroid bound (44) for the query's
// variables under the given degree constraints.
func PolymatroidBound(q *Query, dc ConstraintSet) (*LPBound, error) {
	return bounds.Polymatroid(q.Vars, dc)
}

// ModularBound computes the modular LP bound (54); under acyclic
// constraints it equals the polymatroid bound (Proposition 4.4) and
// its Delta duals drive the Algorithm 3 runtime statement.
func ModularBound(q *Query, dc ConstraintSet) (*LPBound, error) {
	return bounds.Modular(q.Vars, dc)
}

// MakeAcyclic repairs a cyclic constraint set per Proposition 5.2.
func MakeAcyclic(dc ConstraintSet, vars []string) (ConstraintSet, error) {
	return dc.MakeAcyclic(vars)
}
