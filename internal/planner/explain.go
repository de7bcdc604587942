package planner

import (
	"fmt"
	"strings"

	"wcoj/internal/agg"
)

// Candidate is one scored variable order.
type Candidate struct {
	// Order is the complete variable order.
	Order []string
	// Cost is the modeled search-node count: Σ_d 2^LogBounds[d].
	Cost float64
	// LogBounds[d] is the log2 modular bound of the query projected to
	// the first d+1 variables of Order.
	LogBounds []float64
}

// Explanation is the structured EXPLAIN output of a planning decision.
type Explanation struct {
	// Policy that produced the order.
	Policy Policy
	// Order is the chosen variable order.
	Order []string
	// LogBounds are the chosen order's per-level log2 bounds.
	LogBounds []float64
	// Cost is the chosen order's modeled search-node count.
	Cost float64
	// Candidates are the cheapest orders considered, best first; for
	// CostBased, Candidates[0] is the chosen order. Heuristic and
	// explicit plans carry exactly their own order.
	Candidates []Candidate
	// Worst is the most expensive enumerated order (CostBased only) —
	// the plan the optimizer saved you from.
	Worst *Candidate
	// Considered counts the complete orders (exhaustive) or partial
	// extensions (beam search) that were scored.
	Considered int
	// Exhaustive reports whether every permutation was scored.
	Exhaustive bool
	// Constraints counts the measured degree constraints feeding the
	// cost model.
	Constraints int
	// AggMode names the aggregate mode the plan was classified for
	// ("count", "exists", "enumerate"); empty for plain enumeration
	// plans.
	AggMode string
	// Classes classifies each level of Order for the aggregate-aware
	// engines (bound / free-output / free-counted); nil without an
	// aggregate spec.
	Classes []agg.Class
	// CountFrom is the first level of the free-counted suffix — the
	// depth from which the engines multiply subtree cardinalities
	// instead of recursing (len(Order) when there is no such suffix).
	CountFrom int
	// MemoDepths[d] reports whether the engines consult the subtree
	// memo at level d of Order: the bound levels below a separator (see
	// agg.Classification.MemoDepths); nil without an aggregate spec.
	MemoDepths []bool
	// Count, when non-nil, is the planning record of the aggregate
	// pushdown plan Count runs for the same options: single-atom (or
	// projected-away) variables sunk to the end of the order, each
	// level classified bound / free-output / free-counted. It is nil
	// when the caller disabled the pushdown.
	Count *Explanation
}

// String renders the explanation in the -explain CLI format.
func (e *Explanation) String() string {
	var b strings.Builder
	mode := "beam"
	if e.Exhaustive {
		mode = "exhaustive"
	}
	if e.Policy != CostBased {
		mode = "single"
	}
	fmt.Fprintf(&b, "plan: policy=%v order=[%s] cost=%.3g (%s, %d scored, %d constraints)\n",
		e.Policy, strings.Join(e.Order, " "), e.Cost, mode, e.Considered, e.Constraints)
	if len(e.LogBounds) == len(e.Order) { // absent for >64-variable queries
		for d, v := range e.Order {
			fmt.Fprintf(&b, "  level %d: bind %-4s prefix {%s} ≤ 2^%.2f = %.4g tuples",
				d, v, strings.Join(e.Order[:d+1], ","), e.LogBounds[d], price(e.LogBounds[d]))
			if len(e.Classes) == len(e.Order) {
				fmt.Fprintf(&b, " [%v]", e.Classes[d])
			}
			b.WriteString("\n")
		}
	}
	if e.AggMode != "" {
		fmt.Fprintf(&b, "  agg: mode=%s", e.AggMode)
		if e.CountFrom < len(e.Order) {
			fmt.Fprintf(&b, " counted-suffix=[%s]", strings.Join(e.Order[e.CountFrom:], " "))
		}
		var memo []string
		for d, on := range e.MemoDepths {
			if on {
				memo = append(memo, e.Order[d])
			}
		}
		if len(memo) > 0 {
			fmt.Fprintf(&b, " memo=[%s]", strings.Join(memo, " "))
		}
		if len(e.Classes) == len(e.Order) && len(e.LogBounds) != len(e.Order) {
			parts := make([]string, len(e.Classes))
			for i, c := range e.Classes {
				parts[i] = c.String()
			}
			fmt.Fprintf(&b, " classes=[%s]", strings.Join(parts, " "))
		}
		b.WriteString("\n")
	}
	if e.Policy == CostBased {
		b.WriteString("  candidates:\n")
		for i, c := range e.Candidates {
			marker := ""
			if i == 0 {
				marker = "  <- chosen"
			}
			fmt.Fprintf(&b, "    %2d. [%s] cost=%.3g%s\n", i+1, strings.Join(c.Order, " "), c.Cost, marker)
		}
		if e.Worst != nil {
			fmt.Fprintf(&b, "  worst: [%s] cost=%.3g (%.3gx the chosen order)\n",
				strings.Join(e.Worst.Order, " "), e.Worst.Cost, e.Worst.Cost/e.Cost)
		}
	}
	if e.Count != nil {
		b.WriteString("count ")
		b.WriteString(e.Count.String())
	}
	return b.String()
}
