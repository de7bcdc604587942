package core

// Node budgets. Admission control for shared deployments: a caller
// attaches a budget of search nodes to the query context, and every
// worker draws from it at the same &255-stride poll sites that serve
// stop-flag cancellation — one Spend(256) per 256 recursions, so the
// poll adds a single atomic add per stride on budgeted runs and a nil
// check on unbudgeted ones. The budget is shared by all workers of a
// run (it rides the context across shards), making it a bound on total
// work, not per-goroutine work. Exhaustion surfaces as ErrNodeBudget
// from the entry points; unlike ErrAborted it is a real, user-visible
// error and is never translated away.

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrNodeBudget reports that a query exceeded the node budget attached
// to its context and was cut off mid-search. Its partial results are
// discarded, never returned.
var ErrNodeBudget = errors.New("core: query exceeded its node budget")

// NodeBudget is a shared, concurrency-safe allowance of search nodes.
// A nil *NodeBudget is a valid unlimited budget.
type NodeBudget struct {
	left atomic.Int64
}

// NewNodeBudget returns a budget allowing n search nodes.
func NewNodeBudget(n int64) *NodeBudget {
	b := &NodeBudget{}
	b.left.Store(n)
	return b
}

// Spend draws n nodes and reports whether the budget still stands.
// Once it returns false it keeps returning false — the counter stays
// negative — so every worker of a run sees exhaustion. Nil-safe:
// a nil budget always allows.
func (b *NodeBudget) Spend(n int64) bool {
	return b == nil || b.left.Add(-n) >= 0
}

type budgetKey struct{}

// WithNodeBudget returns a context carrying a fresh budget of n search
// nodes. Every engine entry point taking this context (and every shard
// it fans out to) draws from the same allowance.
func WithNodeBudget(ctx context.Context, n int64) context.Context {
	return context.WithValue(ctx, budgetKey{}, NewNodeBudget(n))
}

// BudgetFrom extracts the context's node budget, or nil (unlimited)
// if none is attached. Tolerates nil contexts.
func BudgetFrom(ctx context.Context) *NodeBudget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*NodeBudget)
	return b
}
