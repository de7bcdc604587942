// Package stats extracts degree-constraint statistics from concrete
// relations (the empirical N_{Y|X} of Definition 1) and empirical
// entropy functions from query outputs — the measured side of the
// bound sandwich log|Q(D)| ≤ entropic ≤ polymatroid that replaces the
// uncomputable entropic bound in the Table 1 experiments.
package stats

import (
	"fmt"

	"wcoj/internal/constraints"
	"wcoj/internal/core"
	"wcoj/internal/entropy"
	"wcoj/internal/relation"
)

// Cardinalities returns the cardinality constraints (∅, vars(F), |R_F|)
// of every atom in the query.
func Cardinalities(q *core.Query) constraints.Set {
	var dc constraints.Set
	for _, a := range q.Atoms {
		n := float64(a.Rel.Len())
		if n < 1 {
			n = 1
		}
		dc = append(dc, constraints.Cardinality(a.Name, a.Vars, n))
	}
	return dc
}

// Degrees returns all degree constraints (X, Y, deg(Y|X)) realized by
// an atom's relation, for every pair X ⊂ Y ⊆ vars(F) with |Y| ≤ maxY.
// This is exponential in the atom arity; arities in this repository
// are ≤ 3–4. Trivial constraints (N equal to the full cardinality with
// X = ∅ are kept — they are the cardinality constraints).
//
// Variables are measured positionally (a.Vars[i] is column i), so the
// degrees come from the relation's own memo (relation.Degree): atoms
// of a self-join, alpha-renamed queries and later plans over the same
// relation share one measurement.
func Degrees(a core.Atom, maxY int) (constraints.Set, error) {
	k := len(a.Vars)
	if k != a.Rel.Arity() || k > 64 {
		return nil, fmt.Errorf("stats: atom %s has %d variables for arity %d (at most 64)", a.Name, k, a.Rel.Arity())
	}
	if maxY <= 0 || maxY > k {
		maxY = k
	}
	var dc constraints.Set
	for ym := 1; ym < 1<<uint(k); ym++ {
		var y []string
		for i := 0; i < k; i++ {
			if ym&(1<<uint(i)) != 0 {
				y = append(y, a.Vars[i])
			}
		}
		if len(y) > maxY {
			continue
		}
		for xm := 0; xm < 1<<uint(k); xm++ {
			if xm&ym != xm || xm == ym {
				continue // X must be a strict subset of Y
			}
			var x []string
			for i := 0; i < k; i++ {
				if xm&(1<<uint(i)) != 0 {
					x = append(x, a.Vars[i])
				}
			}
			d := a.Rel.Degree(uint64(xm), uint64(ym))
			if d < 1 {
				d = 1
			}
			dc = append(dc, constraints.Degree(a.Name, x, y, float64(d)))
		}
	}
	return dc, nil
}

// AllDegrees extracts Degrees for every atom of the query.
func AllDegrees(q *core.Query, maxY int) (constraints.Set, error) {
	var dc constraints.Set
	for _, a := range q.Atoms {
		s, err := Degrees(a, maxY)
		if err != nil {
			return nil, err
		}
		dc = append(dc, s...)
	}
	return dc, nil
}

// ForPlanner extracts the constraint set the cost-based planner
// scores variable orders with: every degree constraint (X, Y, N_{Y|X})
// with |Y| ≤ maxY measured from the bound relations, plus a
// cardinality constraint for each atom whose arity exceeds maxY —
// Degrees already measures the others as their X = ∅, Y = vars(F)
// row. This is the "FromDatabase" side of the paper's Definition 1 —
// the empirical N_{Y|X} the bound LPs consume.
func ForPlanner(q *core.Query, maxY int) (constraints.Set, error) {
	var dc constraints.Set
	for i, c := range Cardinalities(q) {
		if maxY > 0 && len(q.Atoms[i].Vars) > maxY {
			dc = append(dc, c)
		}
	}
	deg, err := AllDegrees(q, maxY)
	if err != nil {
		return nil, err
	}
	return append(dc, deg...), nil
}

// OutputEntropy returns the entropy function of the uniform
// distribution over the tuples of out, whose variables must be exactly
// vars (in column order). By the Section 4.2 argument,
// H[full] = log2|out| and H ∈ Γ*_n ∩ H_DC for every constraint set the
// database satisfies — it is the computable lower-bound witness for
// the entropic bound.
func OutputEntropy(out *relation.Relation, vars []string) (*entropy.SetFunction, error) {
	if len(vars) != out.Arity() {
		return nil, fmt.Errorf("stats: %d vars for arity %d", len(vars), out.Arity())
	}
	for i, v := range vars {
		if out.Attrs()[i] != v {
			return nil, fmt.Errorf("stats: output attribute %q at %d, want %q", out.Attrs()[i], i, v)
		}
	}
	tuples := make([][]int64, out.Len())
	var row relation.Tuple
	for i := 0; i < out.Len(); i++ {
		row = out.Tuple(i, row)
		t := make([]int64, len(row))
		for j, v := range row {
			t[j] = int64(v)
		}
		tuples[i] = t
	}
	return entropy.FromTuples(len(vars), tuples)
}

// VerifySatisfies checks that the query's database actually satisfies
// every constraint in dc (Definition 1: the guard's empirical degree
// is at most N_{Y|X}). It returns the first violated constraint.
func VerifySatisfies(q *core.Query, dc constraints.Set) error {
	for _, c := range dc {
		// With self-joins several atoms share a name; the guard is the
		// first same-named atom containing Y.
		var guard *core.Atom
		for i := range q.Atoms {
			a := &q.Atoms[i]
			if a.Name != c.Guard {
				continue
			}
			ok := true
			for _, y := range c.Y {
				if !constraints.ContainsVar(a.Vars, y) {
					ok = false
					break
				}
			}
			if ok {
				guard = a
				break
			}
		}
		if guard == nil {
			return fmt.Errorf("stats: constraint %v has no guard atom", c)
		}
		a := *guard
		rel, err := a.Rel.Rename(a.Name, a.Vars...)
		if err != nil {
			return err
		}
		d, err := rel.MaxDegree(c.X, c.Y)
		if err != nil {
			return err
		}
		if float64(d) > c.N {
			return fmt.Errorf("stats: constraint %v violated: empirical degree %d", c, d)
		}
	}
	return nil
}
