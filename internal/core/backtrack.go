package core

import (
	"fmt"

	"wcoj/internal/constraints"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// BacktrackOptions configure a BacktrackingSearch run.
type BacktrackOptions struct {
	// Order is a variable order compatible with the degree constraints
	// (every X-variable of a constraint before every Y−X variable).
	// Nil derives one with constraints.Set.CompatibleOrder, which
	// fails when the constraint set is cyclic.
	Order []string
}

// btConstraint is the per-constraint execution state of Algorithm 3.
type btConstraint struct {
	c    constraints.Constraint
	trie *trie.Trie
	// levelOf[d] is this constraint's trie level for global depth d,
	// or -1 when order[d] ∉ Y.
	levelOf []int
	// intersector[d] reports order[d] ∈ Y−X (the constraint
	// participates in the candidate intersection at depth d, per the
	// loop condition of Algorithm 3).
	intersector []bool
	// segLo/segHi[l] is the candidate segment range at trie level l
	// (the children span pushed by the level-(l-1) binding). segCur[l]
	// is the monotone narrowing cursor for the sweep in progress: it is
	// re-armed to segLo[l] at the start of every value sweep, because
	// the same candidate span can be swept several times without a
	// fresh Children push (the search backtracks above l and descends
	// again), as in the Generic-Join engine.
	segLo  []int
	segHi  []int
	segCur []int
}

// BacktrackingSearch evaluates the query with Algorithm 3 of the paper:
// backtracking search over a variable order compatible with an acyclic
// set of degree constraints. At depth i it intersects
//
//	⋂_{(X,Y)∈DC, i∈Y−X, R guards (X,Y)}  π_{A_i} σ_{A_{S∩Y}=a_{S∩Y}} π_Y R
//
// and recurses per value. By Theorem 5.1 the runtime is worst-case
// optimal: O(n·|DC|·log|D|·(|D| + ∏ N_{Y|X}^{δ_{Y|X}})) where δ is the
// optimal dual of LP (57).
//
// Every constraint must name a query atom as its guard, with Y a
// subset of that atom's variables. The search enumerates the join of
// the guard projections π_Y R, which is a superset of Q when the
// constraints do not mention every atom fully; the result is therefore
// filtered against every original atom before being returned (the
// "semijoin-reduced against the guards" step the paper describes for
// repaired constraint sets DC′).
func BacktrackingSearch(q *Query, dc constraints.Set, opts BacktrackOptions) (*relation.Relation, *Stats, error) {
	stats := &Stats{}
	out := relation.NewBuilder(q.OutputName(), q.Vars...)
	err := backtrackVisit(q, dc, opts, stats, func(t relation.Tuple) error {
		return out.Add(t...)
	})
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	return rel, stats, nil
}

// BacktrackingCount is the enumeration-only variant.
func BacktrackingCount(q *Query, dc constraints.Set, opts BacktrackOptions) (int, *Stats, error) {
	stats := &Stats{}
	n := 0
	err := backtrackVisit(q, dc, opts, stats, func(relation.Tuple) error {
		n++
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	stats.Output = n
	return n, stats, nil
}

// BacktrackingVisit streams the result tuples to emit. The Tuple
// passed to emit is reused between calls; emit must copy it to retain
// it. The backtracking search is not sharded: its filtered-guard
// enumeration is bound by the degree-constraint dual, not by the
// top-level intersection the parallel engine partitions.
func BacktrackingVisit(q *Query, dc constraints.Set, opts BacktrackOptions, stats *Stats, emit func(relation.Tuple) error) error {
	return backtrackVisit(q, dc, opts, stats, emit)
}

func backtrackVisit(q *Query, dc constraints.Set, opts BacktrackOptions, stats *Stats, emit func(relation.Tuple) error) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if err := dc.Validate(); err != nil {
		return err
	}
	order := opts.Order
	if order == nil {
		full, err := dc.CompatibleOrder(q.Vars)
		if err != nil {
			return fmt.Errorf("core: %w (repair with MakeAcyclic first)", err)
		}
		// Keep only query variables, in the compatible order.
		for _, v := range full {
			for _, qv := range q.Vars {
				if qv == v {
					order = append(order, v)
					break
				}
			}
		}
	}
	if err := CheckOrder(q, order); err != nil {
		return err
	}

	// Preprocessing (the O(n·|DC|·|D| log|D|) term of (61)): project
	// each guard onto Y and index it as a trie in search order. With
	// self-joins several atoms share a name; the guard of a constraint
	// is the first same-named atom whose variables contain Y.
	findGuard := func(c constraints.Constraint) (Atom, error) {
		sawName := false
		for _, a := range q.Atoms {
			if a.Name != c.Guard {
				continue
			}
			sawName = true
			ok := true
			for _, y := range c.Y {
				if !constraints.ContainsVar(a.Vars, y) {
					ok = false
					break
				}
			}
			if ok {
				return a, nil
			}
		}
		if !sawName {
			return Atom{}, fmt.Errorf("core: constraint %v: no atom named %q", c, c.Guard)
		}
		return Atom{}, fmt.Errorf("core: constraint %v: no atom named %q contains %v", c, c.Guard, c.Y)
	}
	cons := make([]*btConstraint, 0, len(dc))
	for _, c := range dc {
		guard, err := findGuard(c)
		if err != nil {
			return err
		}
		rel, err := guard.Rel.Rename(guard.Name, guard.Vars...)
		if err != nil {
			return err
		}
		proj, err := rel.Project(c.Y...)
		if err != nil {
			return err
		}
		var consOrder []string
		for _, v := range order {
			if constraints.ContainsVar(c.Y, v) {
				consOrder = append(consOrder, v)
			}
		}
		tr, err := trie.Build(proj, consOrder)
		if err != nil {
			return err
		}
		bc := &btConstraint{
			c:           c,
			trie:        tr,
			levelOf:     make([]int, len(order)),
			intersector: make([]bool, len(order)),
			segLo:       make([]int, len(consOrder)),
			segHi:       make([]int, len(consOrder)),
			segCur:      make([]int, len(consOrder)),
		}
		for d := range order {
			bc.levelOf[d] = -1
		}
		ym := constraints.Minus(c.Y, c.X)
		for l, v := range consOrder {
			for d, ov := range order {
				if ov == v {
					bc.levelOf[d] = l
					bc.intersector[d] = constraints.ContainsVar(ym, v)
				}
			}
		}
		bc.segLo[0], bc.segHi[0] = 0, tr.NumSegs(0)
		cons = append(cons, bc)
	}

	// Every variable needs at least one intersector, otherwise its
	// candidate set is unbounded (Claim 1 of Proposition 5.2).
	for d, v := range order {
		found := false
		for _, bc := range cons {
			if bc.levelOf[d] >= 0 && bc.intersector[d] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: variable %q is in no constraint's Y−X; the bound is infinite", v)
		}
	}

	// Membership filters for the final semijoin reduction.
	filters := make([]*relation.HashIndex, len(q.Atoms))
	filterPos := make([][]int, len(q.Atoms))
	for i, a := range q.Atoms {
		rel, err := a.Rel.Rename(a.Name, a.Vars...)
		if err != nil {
			return err
		}
		filters[i] = relation.NewHashIndex(rel, a.Vars)
		pos := make([]int, len(a.Vars))
		for x, v := range a.Vars {
			pos[x] = -1
			for j, qv := range q.Vars {
				if qv == v {
					pos[x] = j
				}
			}
		}
		filterPos[i] = pos
	}

	outPos := make([]int, len(order))
	for d, v := range order {
		for i, qv := range q.Vars {
			if qv == v {
				outPos[d] = i
			}
		}
	}

	binding := make(relation.Tuple, len(q.Vars))
	scratch := make([][]relation.Value, len(order))
	key := make(relation.Tuple, 8)

	var rec func(d int) error
	rec = func(d int) error {
		stats.Recursions++
		if d == len(order) {
			// Final filter: the paper's semijoin reduction against the
			// original atoms.
			for i := range filters {
				pos := filterPos[i]
				if cap(key) < len(pos) {
					key = make(relation.Tuple, len(pos))
				}
				key = key[:len(pos)]
				for x, p := range pos {
					key[x] = binding[p]
				}
				if !filters[i].Contains(key) {
					return nil
				}
			}
			return emit(binding)
		}
		var ranges []trie.LevelRange
		for _, bc := range cons {
			l := bc.levelOf[d]
			if l < 0 || !bc.intersector[d] {
				continue
			}
			ranges = append(ranges, bc.trie.SegLevel(l, bc.segLo[l], bc.segHi[l]))
		}
		vals := trie.IntersectLevels(scratch[d][:0], ranges)
		scratch[d] = vals
		stats.IntersectValues += len(vals)
		for _, bc := range cons {
			if l := bc.levelOf[d]; l >= 0 {
				bc.segCur[l] = bc.segLo[l]
			}
		}
	valueLoop:
		//wcojlint:nopoll one-shot backtracking entry: ctx is checked once before rec(0) and BacktrackOptions plumbs no stop flag; bounded by the (small) constraint-driven search space
		for _, v := range vals {
			binding[outPos[d]] = v
			// Refine every constraint whose Y contains this variable;
			// an empty refinement prunes (the guard atom cannot be
			// satisfied under this binding).
			for _, bc := range cons {
				l := bc.levelOf[d]
				if l < 0 {
					continue
				}
				s, ok := bc.trie.FindSegFrom(l, bc.segCur[l], bc.segHi[l], v)
				if !ok {
					bc.segCur[l] = s
					continue valueLoop
				}
				bc.segCur[l] = s + 1
				if l+1 < bc.trie.Depth() {
					bc.segLo[l+1], bc.segHi[l+1] = bc.trie.Children(l, s)
				}
			}
			if err := rec(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}
