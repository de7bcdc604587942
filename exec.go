package wcoj

// The one way into the engines. Every execution — a one-shot
// Execute/ExecuteFunc/Count/Exists call, a PreparedQuery method, a
// maintained view's recompute or differential term — is an executor: a
// query bound to concrete relations, the trie source serving exactly
// those relations, and the options. The trie-plan algorithms resolve
// one plan per execution mode on the mode's first use; an executor
// built as the successor of another (the same query one update batch
// later) re-versions the predecessor's plans — tries only, through
// core.RefreshPlan — instead of planning again. What differs between
// the callers is only how long they keep the executor: a one-shot call
// drops it on return, a PreparedQuery keeps one per update epoch, a
// view keeps one per differential term.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/baseline"
	"wcoj/internal/core"
	"wcoj/internal/relation"
)

// planMode indexes an executor's plan slots.
type planMode int

const (
	// planEnum enumerates: full tuples, or with Options.Project the
	// distinct projected tuples over a sunk order.
	planEnum planMode = iota
	// planCount is the pushdown COUNT plan.
	planCount
	// planExists is the EXISTS plan.
	planExists
	numPlanModes
)

// spec is the aggregate spec mode m plans under; nil is the plain
// enumeration, which needs neither sinking nor a classification.
func (m planMode) spec(project []string) *agg.Spec {
	switch m {
	case planCount:
		return &agg.Spec{Mode: agg.ModeCount, Project: project}
	case planExists:
		return &agg.Spec{Mode: agg.ModeExists}
	}
	if project != nil {
		return &agg.Spec{Mode: agg.ModeEnumerate, Project: project}
	}
	return nil
}

// modePlan is one execution mode's resolved plan.
type modePlan struct {
	p   *core.Plan
	cls *agg.Classification
	err error
}

// planSlot holds one mode's plan: built at most once per executor, on
// first use. inh is the predecessor's plan for the mode (skeleton only;
// the tries inside are stale until re-versioned). The done flag's
// atomic store/load pair orders mp for a successor reading it.
type planSlot struct {
	once sync.Once
	done atomic.Bool
	inh  *modePlan
	mp   modePlan
}

// executor runs one bound query under one set of options; see the file
// comment. Safe for concurrent use: the plan slots are once-guarded and
// every run keeps its search state private.
type executor struct {
	q     *Query
	src   core.TrieSource
	opts  Options
	plans [numPlanModes]planSlot
}

// newExecutor returns the executor of q over src. prev, when non-nil,
// is the executor of the same query shape and options against an older
// snapshot: its built plans are inherited BY VALUE — holding prev
// itself would pin it and, through its own inherited plans, every
// ancestor, an unbounded chain under a steady update stream. The copy
// retains only the donor's plan and tries, for exactly one generation,
// until the mode's first use re-versions them. Modes prev never built
// (or is still building, or failed to build) plan from scratch.
func newExecutor(q *Query, src core.TrieSource, opts Options, prev *executor) *executor {
	e := &executor{q: q, src: src, opts: opts}
	if prev != nil {
		for m := range e.plans {
			if ps := &prev.plans[m]; ps.done.Load() && ps.mp.err == nil {
				inh := ps.mp
				e.plans[m].inh = &inh
			}
		}
	}
	return e
}

// plan resolves mode m's plan, once: an inherited plan is re-versioned
// against this executor's relations; otherwise the order is resolved
// and the plan built under the mode's aggregate spec. A skeleton that
// no longer fits — a Register swapped in a relation of another arity —
// fails to re-version, and the fresh build then reports the real error.
func (e *executor) plan(m planMode) (*core.Plan, *agg.Classification, error) {
	s := &e.plans[m]
	s.once.Do(func() {
		defer s.done.Store(true)
		inh := s.inh
		s.inh = nil // drop the donor plan; it pinned the previous snapshot's tries
		if inh != nil {
			if p, err := core.RefreshPlan(inh.p, e.q, e.src); err == nil {
				s.mp = modePlan{p: p, cls: inh.cls}
				return
			}
		}
		spec := m.spec(e.opts.Project)
		pol, err := e.opts.orderPolicyFor(spec)
		switch {
		case err != nil:
			s.mp.err = err
		case spec == nil:
			s.mp.p, s.mp.err = core.BuildPlanSrc(e.src, e.q, pol)
		default:
			s.mp.p, s.mp.cls, s.mp.err = core.AggPlanSrc(e.src, e.q, pol, *spec)
		}
	})
	return s.mp.p, s.mp.cls, s.mp.err
}

// stream runs the algorithm's search, passing each result tuple to emit
// (the Tuple is reused between calls). The trie-plan search pushes
// Options.Project into the enumeration; backtracking streams full
// tuples whatever Project says — execute projects them. The binary-join
// baselines have no search to stream.
func (e *executor) stream(ctx context.Context, emit func(Tuple) error) (*Stats, error) {
	stats := &Stats{}
	n := 0
	counted := func(t Tuple) error { n++; return emit(t) }
	switch e.opts.Algorithm {
	case AlgoGenericJoin, AlgoLeapfrog:
		p, cls, err := e.plan(planEnum)
		if err != nil {
			return nil, err
		}
		if err := core.GenericJoinPlanVisit(ctx, p, cls, e.opts.Algorithm.level(), e.opts.workers(), stats, counted); err != nil {
			return nil, err
		}
	case AlgoBacktracking:
		dc, err := backtrackConstraints(e.q, e.opts.Constraints)
		if err != nil {
			return nil, err
		}
		if err := core.BacktrackingVisit(e.q, dc, core.BacktrackOptions{Order: e.opts.Order}, stats, counted); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wcoj: unknown algorithm %v", e.opts.Algorithm)
	}
	stats.Output = n
	return stats, nil
}

// execute materializes the result: the collected stream, or the
// binary-join baselines' own output. Only the trie-plan search projects
// while it searches; the other algorithms project their full result.
func (e *executor) execute(ctx context.Context) (*Relation, *Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	pushdown := wcojAlgorithm(e.opts.Algorithm)
	var out *Relation
	var stats *Stats
	var err error
	switch e.opts.Algorithm {
	case AlgoBinaryJoin:
		out, stats, err = baseline.JoinOnly(e.q, nil, nil)
	case AlgoBinaryJoinProject:
		out, stats, err = baseline.JoinProject(e.q, nil, nil)
	default:
		attrs := e.q.Vars
		if pushdown && e.opts.Project != nil {
			attrs = e.opts.Project
		}
		b := relation.NewBuilder(e.q.OutputName(), attrs...)
		stats, err = e.stream(ctx, func(t Tuple) error { return b.Add(t...) })
		if err == nil {
			out = b.Build()
		}
	}
	if err == nil && !pushdown && e.opts.Project != nil {
		out, err = out.Project(e.opts.Project...)
	}
	if err != nil {
		return nil, nil, err
	}
	stats.Output = out.Len()
	return out, stats, nil
}

// visit streams the result to emit under the ExecuteFunc contract.
// Where the algorithm cannot stream the requested output (the
// binary-join baselines, projected backtracking) the result is
// materialized first and replayed.
func (e *executor) visit(ctx context.Context, emit func(Tuple) error) (*Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if wcojAlgorithm(e.opts.Algorithm) || (e.opts.Algorithm == AlgoBacktracking && e.opts.Project == nil) {
		return e.stream(ctx, emit)
	}
	out, stats, err := e.execute(ctx)
	if err != nil {
		return nil, err
	}
	var row Tuple
	for i := 0; i < out.Len(); i++ {
		row = out.Tuple(i, row)
		if err := emit(row); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// count returns the output cardinality. The trie-plan search runs the
// pushdown COUNT plan — or, with DisablePushdown and no projection
// (distinct projected counting is inherently aggregate-aware), counts
// the plain enumeration without materializing it. The other algorithms
// count what visit produces.
func (e *executor) count(ctx context.Context) (int64, *Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	if !wcojAlgorithm(e.opts.Algorithm) {
		stats, err := e.visit(ctx, func(Tuple) error { return nil })
		if err != nil {
			return 0, nil, err
		}
		return int64(stats.Output), stats, nil
	}
	if e.opts.Project == nil && e.opts.DisablePushdown {
		p, _, err := e.plan(planEnum)
		if err != nil {
			return 0, nil, err
		}
		n, stats, err := core.GenericJoinPlanCount(ctx, p, nil, e.opts.Algorithm.level(), e.opts.workers())
		return int64(n), stats, err
	}
	return e.aggregate(ctx, planCount)
}

// errFirstWitness aborts a stream once exists has its answer.
var errFirstWitness = errors.New("wcoj: stop after first witness")

// exists reports whether the query has any result. The trie-plan search
// runs the EXISTS plan; the other algorithms stop (backtracking) or
// look (the baselines, which materialize regardless) at the first tuple
// of the unprojected result — a projection is non-empty iff the full
// join is.
func (e *executor) exists(ctx context.Context) (bool, *Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return false, nil, err
	}
	if wcojAlgorithm(e.opts.Algorithm) {
		n, stats, err := e.aggregate(ctx, planExists)
		return n != 0, stats, err
	}
	full := e.opts
	full.Project = nil
	found := false
	stats, err := newExecutor(e.q, e.src, full, nil).visit(ctx, func(Tuple) error {
		found = true
		return errFirstWitness
	})
	switch {
	case found:
		return true, &Stats{Output: 1}, nil
	case err != nil:
		return false, nil, err
	}
	return false, stats, nil
}

// aggregate runs the trie-plan search under mode m's aggregate plan
// (planCount or planExists).
func (e *executor) aggregate(ctx context.Context, m planMode) (int64, *Stats, error) {
	p, cls, err := e.plan(m)
	if err != nil {
		return 0, nil, err
	}
	return core.GenericJoinAggPlan(ctx, p, cls, e.opts.Algorithm.level(), e.opts.workers())
}
