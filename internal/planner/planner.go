// Package planner chooses the global variable order worst-case
// optimal joins run under, closing the loop the paper draws between
// the LP bound machinery and execution: the same degree constraints
// that price a query's worst case also prescribe how to run it.
//
// The cost-based policy enumerates candidate orders — exhaustively up
// to Options.MaxExhaustive variables, by greedy beam search beyond —
// and scores each candidate by the sum over its prefixes of the
// modular bound (LP (54)) of the query projected to that prefix,
// computed from measured per-relation degree statistics
// (internal/stats). Prefix bounds depend only on the prefix *set*, so
// they are memoized per subset mask and the n! candidate orders share
// at most 2^n LP solves. The result carries a full Explanation:
// chosen order, per-level bounds, the best candidates considered and
// the worst enumerated order (the one EXPLAIN users most want to see
// they avoided).
//
// The package plugs into the engines through core.OrderPolicy; the
// public surface is wcoj.Options.Planner and wcoj.Explain.
package planner

import (
	"fmt"
	"sort"

	"wcoj/internal/agg"
	"wcoj/internal/core"
)

// Policy selects how an order is chosen.
type Policy int

// Available policies.
const (
	// Heuristic is the hypergraph degree-order heuristic
	// (most-constrained variable first) — zero planning cost.
	Heuristic Policy = iota
	// CostBased enumerates candidate orders and scores them with
	// per-prefix modular bounds over measured degree constraints.
	CostBased
	// Explicit uses Options.Explicit verbatim (after validation).
	Explicit
	// Constraints plans like Explicit, over the order that degree
	// constraints made compatible (Algorithm 3's order), so that the
	// record names where the order came from.
	Constraints
)

func (p Policy) String() string {
	switch p {
	case Heuristic:
		return "heuristic"
	case CostBased:
		return "cost-based"
	case Explicit:
		return "explicit"
	case Constraints:
		return "constraints"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Options configure Choose.
type Options struct {
	// Policy selects the planning policy (default Heuristic).
	Policy Policy
	// Explicit is the order used by PolicyExplicit.
	Explicit []string
	// MaxExhaustive is the largest variable count enumerated
	// exhaustively (default 8 — 8! orders over at most 2^8 memoized
	// prefix bounds); larger queries use beam search.
	MaxExhaustive int
	// BeamWidth is the number of partial orders kept per level by the
	// beam search (default 8).
	BeamWidth int
	// MaxDegreeVars caps |Y| in the degree statistics measured from
	// the data (default 3; extraction is exponential in atom arity).
	MaxDegreeVars int
	// MaxCandidates caps the candidate list kept in the Explanation
	// (default 8). The worst enumerated order is always kept.
	MaxCandidates int
	// Agg, when non-nil, plans for an aggregate-aware run: variables
	// the aggregate engines never enumerate are sunk to the end of the
	// order (the cost-based policies only enumerate orders with that
	// suffix), and the Explanation reports the resulting
	// bound/free-output/free-counted level classification.
	Agg *agg.Spec
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 8
	}
	if o.BeamWidth <= 0 {
		o.BeamWidth = 8
	}
	if o.MaxDegreeVars <= 0 {
		o.MaxDegreeVars = 3
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 8
	}
	return o
}

// New returns a core.OrderPolicy that runs Choose with the given
// options; it is what wcoj.Execute installs for PlannerCostBased.
func New(opt Options) core.OrderPolicy {
	return core.OrderFunc(func(q *core.Query) ([]string, error) {
		e, err := Choose(q, opt)
		if err != nil {
			return nil, err
		}
		return e.Order, nil
	})
}

// Choose resolves a variable order for the query under the configured
// policy and explains the decision. All policies report per-level
// bounds for the order they picked; CostBased additionally reports
// the candidates it enumerated and the worst order it rejected.
func Choose(q *core.Query, opt Options) (*Explanation, error) {
	opt = opt.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Prefix sets are uint64 bitmasks: beyond 64 variables the cost
	// model cannot run. Cost-based planning is rejected; heuristic and
	// explicit plans still resolve, just without per-level bounds.
	wide := len(q.Vars) > 64
	var c *coster
	if !wide {
		var err error
		if c, err = newCoster(q, opt.MaxDegreeVars); err != nil {
			return nil, err
		}
	}
	switch opt.Policy {
	case Heuristic:
		h, err := q.Hypergraph()
		if err != nil {
			return nil, err
		}
		return explainSingle(c, opt.Policy, sinkFor(q, h.DegreeOrder(), opt.Agg), q, opt.Agg)
	case Explicit, Constraints:
		if len(opt.Explicit) == 0 {
			return nil, fmt.Errorf("planner: %v policy requires an order", opt.Policy)
		}
		if err := core.CheckOrder(q, opt.Explicit); err != nil {
			return nil, err
		}
		return explainSingle(c, opt.Policy, sinkFor(q, opt.Explicit, opt.Agg), q, opt.Agg)
	case CostBased:
		if wide {
			return nil, fmt.Errorf("planner: cost-based planning supports at most 64 variables, query has %d; use the heuristic or an explicit order", len(q.Vars))
		}
		if len(q.Vars) <= opt.MaxExhaustive {
			return exhaustive(q, c, opt)
		}
		return beam(q, c, opt)
	}
	return nil, fmt.Errorf("planner: unknown policy %v", opt.Policy)
}

// atomVarLists projects the query's atoms to their variable lists, the
// shape the agg classifier and sinker work on.
func atomVarLists(q *core.Query) [][]string {
	out := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = a.Vars
	}
	return out
}

// sinkFor applies the aggregate sink to an order (identity without an
// aggregate spec).
func sinkFor(q *core.Query, order []string, spec *agg.Spec) []string {
	if spec == nil {
		return order
	}
	return agg.Sink(order, atomVarLists(q), *spec)
}

// attachAgg classifies the chosen order for the aggregate spec and
// records the result on the explanation.
func attachAgg(e *Explanation, q *core.Query, spec *agg.Spec) error {
	if spec == nil {
		return nil
	}
	cls, err := agg.Classify(e.Order, atomVarLists(q), *spec)
	if err != nil {
		return err
	}
	e.AggMode = spec.Mode.String()
	e.Classes = cls.Classes
	e.CountFrom = cls.CountFrom
	e.MemoDepths = cls.MemoDepths
	return nil
}

// explainSingle prices one order and wraps it as a one-candidate
// explanation (the heuristic and explicit policies). A nil coster
// (query wider than the 64-variable cost model) omits the bounds.
func explainSingle(c *coster, p Policy, order []string, q *core.Query, spec *agg.Spec) (*Explanation, error) {
	e := &Explanation{
		Policy:     p,
		Order:      append([]string(nil), order...),
		Considered: 1,
	}
	if err := attachAgg(e, q, spec); err != nil {
		return nil, err
	}
	if c == nil {
		e.Candidates = []Candidate{{Order: e.Order}}
		return e, nil
	}
	logs, cost, err := c.priceOrder(order)
	if err != nil {
		return nil, err
	}
	e.LogBounds, e.Cost = logs, cost
	e.Candidates = []Candidate{{Order: e.Order, Cost: cost, LogBounds: logs}}
	e.Constraints = c.numConstraints()
	return e, nil
}

// exhaustive scores every permutation of the query variables. Costs
// accumulate along the recursion — depth d adds the price of the
// prefix set after binding d+1 variables — so each leaf costs n
// memoized subset lookups and no LP work beyond the first visit of
// each subset.
func exhaustive(q *core.Query, c *coster, opt Options) (*Explanation, error) {
	n := len(q.Vars)
	if n == 0 {
		return explainSingle(c, CostBased, nil, q, opt.Agg)
	}
	keepCount, isSunk, sunkSeq := sinkPlan(q, opt.Agg)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var (
		keep       []Candidate // best-first, capped at MaxCandidates
		worst      *Candidate
		considered int
		walkErr    error
	)
	record := func(cost float64) {
		order := make([]string, n)
		for d, i := range perm {
			order[d] = q.Vars[i]
		}
		logs, _, err := c.priceOrder(order)
		if err != nil {
			walkErr = err
			return
		}
		cand := Candidate{Order: order, Cost: cost, LogBounds: logs}
		considered++
		if worst == nil || cand.Cost > worst.Cost {
			cp := cand
			worst = &cp
		}
		pos := sort.Search(len(keep), func(i int) bool { return keep[i].Cost > cand.Cost })
		if pos < opt.MaxCandidates {
			keep = append(keep, Candidate{})
			copy(keep[pos+1:], keep[pos:])
			keep[pos] = cand
			if len(keep) > opt.MaxCandidates {
				keep = keep[:opt.MaxCandidates]
			}
		}
	}
	var rec func(mask uint64, cost float64)
	rec = func(mask uint64, cost float64) {
		if walkErr != nil {
			return
		}
		if len(perm) == n {
			record(cost)
			return
		}
		d := len(perm)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// With an aggregate spec only sunk-suffix orders are
			// enumerated: kept variables fill the prefix, then the fixed
			// sunk sequence.
			if d < keepCount {
				if isSunk != nil && isSunk[i] {
					continue
				}
			} else if sunkSeq != nil && i != sunkSeq[d-keepCount] {
				continue
			}
			m := mask | 1<<uint(i)
			lb, err := c.logBound(m)
			if err != nil {
				walkErr = err
				return
			}
			used[i] = true
			perm = append(perm, i)
			rec(m, cost+price(lb))
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec(0, 0)
	if walkErr != nil {
		return nil, walkErr
	}
	best := keep[0]
	e := &Explanation{
		Policy:      CostBased,
		Order:       best.Order,
		LogBounds:   best.LogBounds,
		Cost:        best.Cost,
		Candidates:  keep,
		Worst:       worst,
		Considered:  considered,
		Exhaustive:  true,
		Constraints: c.numConstraints(),
	}
	if err := attachAgg(e, q, opt.Agg); err != nil {
		return nil, err
	}
	return e, nil
}

// sinkPlan precomputes the enumeration restriction for an aggregate
// spec: the kept-prefix length, the sunk membership by variable index
// and the fixed sunk sequence. Without a spec nothing is restricted.
func sinkPlan(q *core.Query, spec *agg.Spec) (keepCount int, isSunk []bool, sunkSeq []int) {
	if spec == nil {
		return len(q.Vars), nil, nil
	}
	keep, sunk := agg.SinkPartition(q.Vars, atomVarLists(q), *spec)
	idx := make(map[string]int, len(q.Vars))
	for i, v := range q.Vars {
		idx[v] = i
	}
	isSunk = make([]bool, len(q.Vars))
	for _, v := range sunk {
		isSunk[idx[v]] = true
		sunkSeq = append(sunkSeq, idx[v])
	}
	return len(keep), isSunk, sunkSeq
}

// beam runs a greedy beam search for wide queries: keep the BeamWidth
// cheapest partial orders per level, extend each by every unused
// variable, and dedup extensions by prefix set (two orders over the
// same set pay identical future costs, so only the cheaper history
// survives).
func beam(q *core.Query, c *coster, opt Options) (*Explanation, error) {
	type entry struct {
		order []string
		mask  uint64
		cost  float64
		logs  []float64
	}
	n := len(q.Vars)
	keepCount, isSunk, sunkSeq := sinkPlan(q, opt.Agg)
	front := []entry{{}}
	considered := 0
	var worst *Candidate
	for d := 0; d < n; d++ {
		var exts []entry
		for _, e := range front {
			for i, v := range q.Vars {
				if e.mask&(1<<uint(i)) != 0 {
					continue
				}
				// Only sunk-suffix orders are enumerated (see exhaustive).
				if d < keepCount {
					if isSunk != nil && isSunk[i] {
						continue
					}
				} else if sunkSeq != nil && i != sunkSeq[d-keepCount] {
					continue
				}
				m := e.mask | 1<<uint(i)
				lb, err := c.logBound(m)
				if err != nil {
					return nil, err
				}
				exts = append(exts, entry{
					order: append(append([]string(nil), e.order...), v),
					mask:  m,
					cost:  e.cost + price(lb),
					logs:  append(append([]float64(nil), e.logs...), lb),
				})
				considered++
			}
		}
		sort.SliceStable(exts, func(i, j int) bool { return exts[i].cost < exts[j].cost })
		if d == n-1 {
			// Complete orders all share the full mask — keep the
			// cheapest BeamWidth as candidates instead of mask-deduping
			// them down to one, and record the costliest as Worst.
			if len(exts) > 1 {
				w := exts[len(exts)-1]
				worst = &Candidate{Order: w.order, Cost: w.cost, LogBounds: w.logs}
			}
			if len(exts) > opt.BeamWidth {
				exts = exts[:opt.BeamWidth]
			}
			front = exts
			break
		}
		seen := make(map[uint64]bool)
		front = front[:0]
		for _, e := range exts {
			if seen[e.mask] {
				continue
			}
			seen[e.mask] = true
			front = append(front, e)
			if len(front) == opt.BeamWidth {
				break
			}
		}
	}
	cands := make([]Candidate, 0, len(front))
	for _, e := range front {
		cands = append(cands, Candidate{Order: e.order, Cost: e.cost, LogBounds: e.logs})
	}
	if len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}
	best := cands[0]
	e := &Explanation{
		Policy:      CostBased,
		Order:       best.Order,
		LogBounds:   best.LogBounds,
		Cost:        best.Cost,
		Candidates:  cands,
		Worst:       worst,
		Considered:  considered,
		Constraints: c.numConstraints(),
	}
	if err := attachAgg(e, q, opt.Agg); err != nil {
		return nil, err
	}
	return e, nil
}
