package wcoj

// The one way into the engines. Every execution — a one-shot
// Execute/ExecuteFunc/Count/Exists call, a PreparedQuery method, a
// maintained view's recompute or differential term — is an executor: a
// query bound to concrete relations, the trie source serving exactly
// those relations, and the options. Every algorithm is the one trie
// search under its own variable order; it resolves
// one plan per execution mode on the mode's first use; an executor
// built as the successor of another (the same query one update batch
// later) re-versions the predecessor's plans — tries only, through
// core.RefreshPlan — instead of planning again. What differs between
// the callers is only how long they keep the executor: a one-shot call
// drops it on return, a PreparedQuery keeps one per update epoch, a
// view keeps one per differential term.

import (
	"context"
	"sync"
	"sync/atomic"

	"wcoj/internal/agg"
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

// visit streams the result to emit under the ExecuteFunc contract (the
// Tuple is reused between calls): the enumeration plan's search, which
// pushes Options.Project into the enumeration. A run that fails once
// started — emit's own error included — returns its Stats with the
// error, Output counting the tuples emit was handed.
func (e *executor) visit(ctx context.Context, emit func(Tuple) error) (*Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	p, cls, err := e.plan(planEnum)
	if err != nil {
		return nil, err
	}
	stats := &Stats{}
	_, err = core.GenericJoinPlanVisit(ctx, p, cls, e.opts.workers(), stats, emit)
	return stats, err
}

// execute materializes the collected stream.
func (e *executor) execute(ctx context.Context) (*Relation, *Stats, error) {
	attrs := e.q.Vars
	if e.opts.Project != nil {
		attrs = e.opts.Project
	}
	b := relation.NewBuilder(e.q.OutputName(), attrs...)
	stats, err := e.visit(ctx, func(t Tuple) error { return b.Add(t...) })
	if err != nil {
		return nil, stats, err
	}
	return b.Build(), stats, nil
}

// count returns the output cardinality: the pushdown COUNT plan — or,
// with DisablePushdown and no projection (distinct projected counting
// is inherently aggregate-aware), the plain enumeration counted without
// materializing it.
func (e *executor) count(ctx context.Context) (int64, *Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	if e.opts.Project == nil && e.opts.DisablePushdown {
		p, _, err := e.plan(planEnum)
		if err != nil {
			return 0, nil, err
		}
		stats := &Stats{}
		n, err := core.GenericJoinPlanVisit(ctx, p, nil, e.opts.workers(), stats, nil)
		return n, stats, err
	}
	return e.aggregate(ctx, planCount)
}

// exists reports whether the query has any result: the EXISTS plan's
// count capped at one.
func (e *executor) exists(ctx context.Context) (bool, *Stats, error) {
	if err := core.CtxErr(ctx); err != nil {
		return false, nil, err
	}
	n, stats, err := e.aggregate(ctx, planExists)
	return n != 0, stats, err
}

// aggregate runs the search under mode m's aggregate plan (planCount or
// planExists).
func (e *executor) aggregate(ctx context.Context, m planMode) (int64, *Stats, error) {
	p, cls, err := e.plan(m)
	if err != nil {
		return 0, nil, err
	}
	return core.GenericJoinAggPlan(ctx, p, cls, e.opts.workers())
}
