package core

import (
	"fmt"

	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// OrderPolicy resolves the global variable order BuildPlanSrc runs a
// query under. The engine ships three families of policies: explicit
// orders (ExplicitOrder), the degree-order heuristic (HeuristicOrder),
// and the cost-based optimizer in internal/planner, which scores
// candidate orders with the per-prefix bounds of internal/bounds.
type OrderPolicy interface {
	// ResolveOrder returns a permutation of q.Vars.
	ResolveOrder(q *Query) ([]string, error)
}

// OrderFunc adapts a function to the OrderPolicy interface.
type OrderFunc func(*Query) ([]string, error)

// ResolveOrder implements OrderPolicy.
func (f OrderFunc) ResolveOrder(q *Query) ([]string, error) { return f(q) }

// HeuristicOrder returns the default policy: the hypergraph
// degree-order heuristic (most-constrained variable first).
func HeuristicOrder() OrderPolicy {
	return OrderFunc(func(q *Query) ([]string, error) {
		h, err := q.Hypergraph()
		if err != nil {
			return nil, err
		}
		return h.DegreeOrder(), nil
	})
}

// ExplicitOrder returns a policy that always uses the given order.
func ExplicitOrder(order []string) OrderPolicy {
	return OrderFunc(func(q *Query) ([]string, error) {
		return order, nil
	})
}

// Plan is the immutable execution plan Generic-Join and Leapfrog
// Triejoin share: the global variable order, one trie per atom built
// in that order, the per-depth participant lists and the mapping from
// search depth to output position. A Plan is built once per query and
// read concurrently by every worker goroutine; all mutable search
// state lives in the per-worker searcher (search.go).
type Plan struct {
	Q     *Query
	Order []string
	// Tries[i] is atom i's trie; LevelOf[i][d] is atom i's trie level
	// bound when the global variable at depth d is bound, or -1 if the
	// atom lacks that variable.
	Tries   []*trie.Trie
	LevelOf [][]int
	// Participants[d] lists the atoms whose next level binds Order[d].
	Participants [][]int
	// OutPos maps search-order positions to output positions.
	OutPos []int
}

// TrieSource serves the per-atom tries of plan construction.
// *TrieStore is one (build-on-miss, cached); package wcoj's snapshot
// source resolves an atom against its relation's current version —
// serving the cached base trie when the delta is empty and a
// level-merged (base ⊎ delta) trie otherwise, and building atoms that
// have no version directly — so the same plan builder works for
// one-shot, static and mutable relations.
type TrieSource interface {
	Get(a Atom, atomOrder []string) (*trie.Trie, error)
}

// BuildPlanSrc validates the query, asks the policy for the variable
// order (nil selects the degree-order heuristic) and builds the
// per-atom tries. Tries come from the given source — the caller owns
// the indexes: a long-lived DB passes a source backed by its store, so
// repeated queries over the same relations reuse built tries keyed by
// (relation, variable binding, trie order); a one-shot call passes a
// source that builds and discards.
func BuildPlanSrc(store TrieSource, q *Query, policy OrderPolicy) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = HeuristicOrder()
	}
	order, err := policy.ResolveOrder(q)
	if err != nil {
		return nil, err
	}
	if err := CheckOrder(q, order); err != nil {
		return nil, err
	}

	p := &Plan{
		Q:       q,
		Order:   order,
		Tries:   make([]*trie.Trie, len(q.Atoms)),
		LevelOf: make([][]int, len(q.Atoms)),
	}
	for i, a := range q.Atoms {
		// The atom's trie order is the global order restricted to the
		// atom's variables.
		var atomOrder []string
		for _, v := range order {
			for _, av := range a.Vars {
				if av == v {
					atomOrder = append(atomOrder, v)
					break
				}
			}
		}
		tr, err := store.Get(a, atomOrder)
		if err != nil {
			return nil, fmt.Errorf("core: atom %s: %w", a.Name, err)
		}
		levelOf := make([]int, len(order))
		for d := range order {
			levelOf[d] = -1
		}
		for l, v := range atomOrder {
			for d, ov := range order {
				if ov == v {
					levelOf[d] = l
				}
			}
		}
		p.Tries[i] = tr
		p.LevelOf[i] = levelOf
	}

	p.Participants = make([][]int, len(order))
	for d := range order {
		for i := range p.Tries {
			if p.LevelOf[i][d] >= 0 {
				p.Participants[d] = append(p.Participants[d], i)
			}
		}
		if len(p.Participants[d]) == 0 {
			return nil, fmt.Errorf("core: variable %q occurs in no atom", order[d])
		}
	}

	p.OutPos = make([]int, len(order))
	for d, v := range order {
		p.OutPos[d] = -1
		for i, qv := range q.Vars {
			if qv == v {
				p.OutPos[d] = i
			}
		}
		if p.OutPos[d] < 0 {
			return nil, fmt.Errorf("core: order variable %q not in query", order[d])
		}
	}
	return p, nil
}

// RefreshPlan re-resolves only the tries of a plan against a new
// query binding (same shape: variables, atoms and resolved order are
// unchanged — the mutable-relation layer guarantees this because
// schema changes go through Register, which drops prepared plans
// entirely). Everything planning paid for — order resolution,
// including any cost-based LP solves, plus the level/participant
// tables — is carried over; only the per-atom tries are fetched from
// the source, which serves cached tries for unchanged relations and
// level-merged (base ⊎ delta) tries for updated ones. This is what
// lets a PreparedQuery survive updates: the plan skeleton is
// re-versioned, never re-planned.
func RefreshPlan(p *Plan, q *Query, src TrieSource) (*Plan, error) {
	if len(q.Atoms) != len(p.Tries) {
		return nil, fmt.Errorf("core: refresh: %d atoms, plan has %d", len(q.Atoms), len(p.Tries))
	}
	np := *p
	np.Q = q
	np.Tries = make([]*trie.Trie, len(p.Tries))
	for i, a := range q.Atoms {
		// The atom's trie order is recorded in the old trie itself.
		tr, err := src.Get(a, p.Tries[i].Attrs())
		if err != nil {
			return nil, fmt.Errorf("core: refresh atom %s: %w", a.Name, err)
		}
		np.Tries[i] = tr
	}
	return &np, nil
}

// TopValues computes the depth-0 intersection — the sorted distinct
// values of Order[0] common to every participating atom — which the
// parallel engine shards across workers. The values are appended to
// dst and, len(Participants[0]) per value, the level-0 segment each
// participant matched it at to at (see trie.IntersectLevelsAt), so a
// shard's atoms take their depth-0 segments as the serial search does.
func (p *Plan) TopValues(dst []relation.Value, at []int) ([]relation.Value, []int) {
	ranges := make([]trie.LevelRange, 0, len(p.Participants[0]))
	for _, ai := range p.Participants[0] {
		tr := p.Tries[ai]
		ranges = append(ranges, tr.SegLevel(0, 0, tr.NumSegs(0)))
	}
	return trie.IntersectLevelsAt(dst, at, ranges)
}

// CheckOrder verifies order is a permutation of the query variables.
// Violations are reported with the offending variable named: a
// duplicated entry, an entry that is not a query variable, or a query
// variable the order omits.
func CheckOrder(q *Query, order []string) error {
	seen := make(map[string]bool, len(order))
	for _, v := range order {
		if seen[v] {
			return fmt.Errorf("core: order %v repeats variable %q", order, v)
		}
		seen[v] = true
	}
	qvars := make(map[string]bool, len(q.Vars))
	for _, v := range q.Vars {
		qvars[v] = true
	}
	for _, v := range order {
		if !qvars[v] {
			return fmt.Errorf("core: order %v names %q, which is not a query variable", order, v)
		}
	}
	for _, v := range q.Vars {
		if !seen[v] {
			return fmt.Errorf("core: order %v is missing query variable %q", order, v)
		}
	}
	return nil
}
