package core

import "wcoj/internal/agg"

// atomVarLists projects the query's atoms to their variable lists, the
// schema shape the agg classifier works on.
func atomVarLists(q *Query) [][]string {
	out := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = a.Vars
	}
	return out
}

// AggPlanSrc builds the execution plan for an aggregate-aware run: the
// policy's variable order is sunk per spec (count-irrelevant variables
// move to the end) before tries are built, then the levels are
// classified. Tries are served from the given source, exactly as in
// BuildPlanSrc, so aggregate plans read the same base ⊎ delta snapshot
// views as the enumeration plans.
func AggPlanSrc(store TrieSource, q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	if policy == nil {
		policy = HeuristicOrder()
	}
	sunk := OrderFunc(func(q *Query) ([]string, error) {
		order, err := policy.ResolveOrder(q)
		if err != nil {
			return nil, err
		}
		return agg.Sink(order, atomVarLists(q), spec), nil
	})
	p, err := BuildPlanSrc(store, q, sunk)
	if err != nil {
		return nil, nil, err
	}
	cls, err := agg.Classify(p.Order, atomVarLists(q), spec)
	if err != nil {
		return nil, nil, err
	}
	return p, cls, nil
}
