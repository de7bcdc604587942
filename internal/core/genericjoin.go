package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
)

// LevelStrategy is the single point of difference between Generic-Join
// and Leapfrog Triejoin: how one level's multiway intersection reaches
// the recursion. It is fixed per run and consulted once per level.
type LevelStrategy int

const (
	// MaterializeLevel is Generic-Join [52]: intersect the level into a
	// per-depth buffer (trie.IntersectLevelsAt, which also reports where
	// each value matched), then loop over the values.
	MaterializeLevel LevelStrategy = iota
	// LeapfrogLevel is Leapfrog Triejoin [66]: stream the level through
	// the leapfrog kernel (trie.LeapfrogLevels), recursing per match and
	// never materializing it. An early stop (EXISTS) leaves the rest of
	// the level unintersected.
	LeapfrogLevel
)

// run carries what the entry points below share: the plan, its
// classification (nil for plain enumeration), the level strategy, the
// cap of its counts (see searcher.cap) and the context's stop signal
// and node budget. A sharded run also holds its depth-0 intersection:
// the values and where each matched.
type run struct {
	ctx     context.Context
	p       *Plan
	cls     *agg.Classification
	lv      LevelStrategy
	cap     int64
	workers int
	stats   *Stats
	budget  *NodeBudget
	topVals []relation.Value
	topAt   []int
}

func newRun(ctx context.Context, p *Plan, cls *agg.Classification, lv LevelStrategy, workers int, stats *Stats) *run {
	return &run{ctx: ctx, p: p, cls: cls, lv: lv, cap: 1, workers: workers, stats: stats, budget: BudgetFrom(ctx)}
}

// sharded reports whether the run partitions its depth-0 intersection
// across workers.
func (r *run) sharded() bool { return r.workers > 1 && len(r.p.Order) > 0 }

// serial runs body on the calling goroutine with a searcher wired to
// the context's cancellation and budget, and returns the searcher's
// abort, if any, translated for the caller.
func (r *run) serial(emit func(relation.Tuple) error, body func(s *searcher) error) error {
	var stop atomic.Bool
	defer WatchCancel(r.ctx, &stop)()
	s := newSearcher(r.p, r.cls, r.lv, r.cap, r.stats, emit, &stop, r.budget)
	err := body(s)
	if err == nil {
		err = s.err
	}
	return CtxAbortErr(r.ctx, err)
}

// top computes the depth-0 intersection the sharded runner partitions,
// accounting for the root node exactly as the serial search does, and
// returns its size. Both strategies shard a materialized top level.
func (r *run) top() int {
	r.topVals, r.topAt = r.p.TopValues(nil, nil)
	r.stats.Recursions++
	r.stats.IntersectValues += len(r.topVals)
	return len(r.topVals)
}

// chunk builds the searcher of one shard, the depth-0 values [lo,hi),
// and returns it with those values and their positions. All shards
// draw from the one budget, and each is charged its depth-0 values
// upfront: per-chunk Stats restart the &255 poll stride, so without
// this a fleet of small chunks could dodge the budget entirely.
func (r *run) chunk(lo, hi int, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) (*searcher, []relation.Value, []int, error) {
	if !r.budget.Spend(int64(hi - lo)) {
		return nil, nil, nil, ErrNodeBudget
	}
	k := len(r.p.Participants[0])
	s := newSearcher(r.p, r.cls, r.lv, r.cap, st, emit, stop, r.budget)
	return s, r.topVals[lo:hi], r.topAt[lo*k : hi*k], nil
}

// GenericJoinPlanVisit evaluates a built plan with the Generic-Join
// algorithm of [52] (the generalization of Algorithm 1): under the
// plan's global variable order, at each level intersect, across all
// atoms containing the current variable, the distinct values compatible
// with the current prefix binding; recurse per value. With sorted-trie
// intersections the runtime is Õ(N^{ρ*}) — the AGM bound — by the
// Theorem 4.1 analysis. Leapfrog Triejoin is the same search under
// lv = LeapfrogLevel.
//
// The result streams to emit in the canonical (variable-order
// lexicographic) sequence; the Tuple passed to emit is reused between
// calls, so emit must copy it to retain it. With workers > 1 the
// depth-0 intersection is sharded across workers and per-chunk results
// are replayed in deterministic chunk order, so the emit sequence is
// identical to the serial run. A nil cls enumerates full tuples; an
// enumerate-mode classification (over the sunk plan it was computed
// for) enumerates the distinct projected tuples, existence-checking the
// projected-away levels per prefix instead of enumerating them.
func GenericJoinPlanVisit(ctx context.Context, p *Plan, cls *agg.Classification, lv LevelStrategy, workers int, stats *Stats, emit func(relation.Tuple) error) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	r := newRun(ctx, p, cls, lv, workers, stats)
	if !r.sharded() {
		return r.serial(emit, func(s *searcher) error { return s.visit(0) })
	}
	arity := len(p.Q.Vars)
	if cls != nil {
		arity = len(cls.Spec.Project)
	}
	return runSharded(ctx, r.top(), workers, stats, newBufferSink(arity, emit),
		func(lo, hi int, st *Stats, stop *atomic.Bool, chunkEmit func(relation.Tuple) error) error {
			s, vals, at, err := r.chunk(lo, hi, st, stop, chunkEmit)
			if err != nil {
				return err
			}
			return s.visitVals(0, vals, at)
		})
}

// GenericJoinPlanCount counts what GenericJoinPlanVisit would emit
// without buffering it: every worker counts its own tuples.
func GenericJoinPlanCount(ctx context.Context, p *Plan, cls *agg.Classification, lv LevelStrategy, workers int) (int, *Stats, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	r := newRun(ctx, p, cls, lv, workers, &Stats{})
	var n int64
	var err error
	if !r.sharded() {
		err = r.serial(func(relation.Tuple) error { n++; return nil },
			func(s *searcher) error { return s.visit(0) })
	} else {
		n, err = runShardedCount(ctx, r.top(), workers, uncapped, r.stats, func(lo, hi int, st *Stats, stop *atomic.Bool) (int64, error) {
			var c int64
			s, vals, at, err := r.chunk(lo, hi, st, stop, func(relation.Tuple) error { c++; return nil })
			if err != nil {
				return 0, err
			}
			return c, s.visitVals(0, vals, at)
		})
	}
	if err != nil {
		return 0, nil, err
	}
	r.stats.Output = int(n)
	return int(n), r.stats, nil
}

// GenericJoinAggPlan evaluates the aggregate a sunk plan was
// classified for (cls.Spec). ModeCount returns the result cardinality —
// full multiplicity with a nil spec.Project, distinct projected tuples
// otherwise. ModeExists returns 1 or 0: the count capped at 1, which
// stops at the first witness. Counts are identical to
// enumerate-then-aggregate at every workers setting.
func GenericJoinAggPlan(ctx context.Context, p *Plan, cls *agg.Classification, lv LevelStrategy, workers int) (int64, *Stats, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	r := newRun(ctx, p, cls, lv, workers, &Stats{})
	switch {
	case cls.Spec.Mode == agg.ModeCount && len(cls.Spec.Project) > 0:
		// Distinct projected count: the projected enumeration, counted.
		n, stats, err := GenericJoinPlanCount(ctx, p, cls, lv, workers)
		return int64(n), stats, err
	case cls.Spec.Mode == agg.ModeCount:
		r.cap = uncapped
	case cls.Spec.Mode != agg.ModeExists:
		return 0, nil, fmt.Errorf("core: unsupported aggregate mode %v", cls.Spec.Mode)
	}
	return r.count()
}

// count runs the count from the root of the plan and returns min(count,
// r.cap) with the run's Stats.
func (r *run) count() (int64, *Stats, error) {
	var n int64
	var err error
	// A pure product (CountFrom == 0) answers in O(#atoms); don't shard.
	if !r.sharded() || r.cls.CountFrom == 0 {
		err = r.serial(nil, func(s *searcher) error { n = s.count(0); return nil })
	} else {
		n, err = runShardedCount(r.ctx, r.top(), r.workers, r.cap, r.stats, func(lo, hi int, st *Stats, stop *atomic.Bool) (int64, error) {
			s, vals, at, err := r.chunk(lo, hi, st, stop, nil)
			if err != nil {
				return 0, err
			}
			return s.countVals(0, vals, at), s.err
		})
	}
	if err != nil {
		return 0, nil, err
	}
	r.stats.Output = int(n)
	return n, r.stats, nil
}
