package core

// The entry points of the one trie search. GenericJoinPlanVisit emits
// (or, with a nil emit, counts) what a plan enumerates;
// GenericJoinAggPlan counts the aggregate a sunk plan was classified
// for. Both build a run, and run.search is the one place that chooses
// between a serial search and the sharded runner (parallel.go).

import (
	"context"
	"fmt"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
)

// run carries what the entry points below share: the plan, its
// classification (nil for plain enumeration), the cap of its counts
// (see searcher.cap), whether it counts an aggregate rather than
// emitting tuples, and the context's stop signal and node budget. A
// sharded run also holds its depth-0 intersection: the values and where
// each matched.
type run struct {
	ctx     context.Context
	p       *Plan
	cls     *agg.Classification
	cap     int64
	agg     bool
	workers int
	stats   *Stats
	budget  *NodeBudget
	topVals []relation.Value
	topAt   []int
}

func newRun(ctx context.Context, p *Plan, cls *agg.Classification, workers int, stats *Stats) *run {
	return &run{ctx: ctx, p: p, cls: cls, cap: 1, workers: workers, stats: stats, budget: BudgetFrom(ctx)}
}

// search runs the plan from its root and returns what it counts: with
// r.agg, min(count, r.cap); otherwise the tuples it emits to emit,
// where a nil emit counts them without buffering. It sets Stats.Output
// to that result. A run that fails — emit's own error included — keeps
// the Stats of the work it did, with Output the tuples it emitted
// before the failure (none for an aggregate). The run is serial with
// one worker, with an empty order, or when a pure product
// (CountFrom == 0) answers the aggregate in O(#atoms); otherwise the
// depth-0 intersection is sharded across the workers by runSharded,
// which replays emitted tuples in chunk order, so the emit sequence is
// identical to the serial run.
func (r *run) search(emit func(relation.Tuple) error) (int64, error) {
	var n int64
	var err error
	if r.workers <= 1 || len(r.p.Order) == 0 || (r.agg && r.cls.CountFrom == 0) {
		var stop atomic.Bool
		defer WatchCancel(r.ctx, &stop)()
		s := newSearcher(r.p, r.cls, r.cap, r.stats, counted(&n, emit), &stop, r.budget)
		if r.agg {
			n = s.count(0)
		} else {
			err = s.visit(0)
		}
		if err == nil {
			err = s.err
		}
		err = CtxAbortErr(r.ctx, err)
	} else {
		// An aggregate sums at its cap; emitted tuples sum uncapped, as
		// r.cap caps only a visit's existence checks.
		cap, sink := r.cap, (*bufferSink)(nil)
		if !r.agg {
			cap = uncapped
		}
		var replayed int64
		if emit != nil {
			arity := len(r.p.Q.Vars)
			if r.cls != nil {
				arity = len(r.cls.Spec.Project)
			}
			sink = newBufferSink(arity, counted(&replayed, emit))
		}
		if n, err = runSharded(r.ctx, r.top(), r.workers, cap, r.stats, sink, r.chunk); err != nil {
			n = replayed
		}
	}
	if err != nil && r.agg {
		n = 0 // a failed aggregate emitted nothing
	}
	r.stats.Output = int(n)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// counted wraps emit, which may be nil, to count the tuples it is
// handed into *n.
func counted(n *int64, emit func(relation.Tuple) error) func(relation.Tuple) error {
	return func(t relation.Tuple) error {
		if *n++; emit == nil {
			return nil
		}
		return emit(t)
	}
}

// top computes the depth-0 intersection the sharded runner partitions,
// accounting for the root node exactly as the serial search does, and
// returns its size. A sharded run materializes its top level whatever
// its cap.
func (r *run) top() int {
	r.topVals, r.topAt = r.p.TopValues(nil, nil)
	r.stats.Recursions++
	r.stats.IntersectValues += len(r.topVals)
	return len(r.topVals)
}

// chunk searches one shard, the depth-0 values [lo,hi) (see shardRun).
// All shards draw from the one budget, and each is charged its depth-0
// values upfront: per-chunk Stats restart the &255 poll stride, so
// without this a fleet of small chunks could dodge the budget entirely.
func (r *run) chunk(lo, hi int, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) (int64, error) {
	if !r.budget.Spend(int64(hi - lo)) {
		return 0, ErrNodeBudget
	}
	var n int64
	s := newSearcher(r.p, r.cls, r.cap, st, counted(&n, emit), stop, r.budget)
	k := len(r.p.Participants[0])
	vals, at := r.topVals[lo:hi], r.topAt[lo*k:hi*k]
	if r.agg {
		return s.countVals(0, vals, at), s.err
	}
	return n, s.visitVals(0, vals, at)
}

// GenericJoinPlanVisit evaluates a built plan with the Generic-Join
// algorithm of [52] (the generalization of Algorithm 1): under the
// plan's global variable order, at each level intersect, across all
// atoms containing the current variable, the distinct values compatible
// with the current prefix binding; recurse per value. With sorted-trie
// intersections the runtime is Õ(N^{ρ*}) — the AGM bound — by the
// Theorem 4.1 analysis. Leapfrog Triejoin is the same search with its
// levels streamed, which the search does where a level's cap lets it
// stop early (see search.go).
//
// The result streams to emit in the canonical (variable-order
// lexicographic) sequence; the Tuple passed to emit is reused between
// calls, so emit must copy it to retain it. A nil emit counts the
// result without buffering it. Either way the number of tuples is
// returned and recorded as stats.Output. With workers > 1 the depth-0
// intersection is sharded across workers and per-chunk results are
// replayed in deterministic chunk order, so the emit sequence is
// identical to the serial run. A nil cls enumerates full tuples; an
// enumerate-mode classification (over the sunk plan it was computed
// for) enumerates the distinct projected tuples, existence-checking the
// projected-away levels per prefix instead of enumerating them.
func GenericJoinPlanVisit(ctx context.Context, p *Plan, cls *agg.Classification, workers int, stats *Stats, emit func(relation.Tuple) error) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	return newRun(ctx, p, cls, workers, stats).search(emit)
}

// GenericJoinAggPlan evaluates the aggregate a sunk plan was
// classified for (cls.Spec). ModeCount returns the result cardinality —
// full multiplicity with a nil spec.Project, distinct projected tuples
// otherwise. ModeExists returns 1 or 0: the count capped at 1, which
// stops at the first witness. Counts are identical to
// enumerate-then-aggregate at every workers setting. A run that fails
// past its start still returns the Stats of the work it did.
func GenericJoinAggPlan(ctx context.Context, p *Plan, cls *agg.Classification, workers int) (int64, *Stats, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	r := newRun(ctx, p, cls, workers, &Stats{})
	switch {
	case cls.Spec.Mode == agg.ModeCount && len(cls.Spec.Project) > 0:
		// Distinct projected count: the projected enumeration, counted.
	case cls.Spec.Mode == agg.ModeCount:
		r.cap, r.agg = uncapped, true
	case cls.Spec.Mode == agg.ModeExists:
		r.agg = true
	default:
		return 0, nil, fmt.Errorf("core: unsupported aggregate mode %v", cls.Spec.Mode)
	}
	n, err := r.search(nil)
	return n, r.stats, err
}
