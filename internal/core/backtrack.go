package core

import (
	"fmt"

	"wcoj/internal/constraints"
)

// BacktrackOrder returns the variable order Algorithm 3 of the paper
// (backtracking search under an acyclic set of degree constraints) runs
// q under: dc's compatible order — every X-variable of a constraint
// before its Y−X variables — restricted to the query variables.
//
// Algorithm 3 needs no search of its own. At depth i it intersects the
// guard projections π_Y R of the constraints with A_i ∈ Y−X, each
// conditioned on the prefix bound in Y. Generic-Join under the same
// order intersects every atom containing A_i, and each of those levels
// is conditioned on the atom's whole bound prefix, a superset of what
// the projection π_Y R sees. So every Generic-Join candidate set is a
// subset of Algorithm 3's, its search tree is a subtree of Algorithm
// 3's, and Theorem 5.1's bound O(n·|DC|·log|D|·(|D| + ∏ N_{Y|X}^{δ_{Y|X}}))
// carries over to the trie search planned under this order.
//
// The set is checked against the query as Algorithm 3 needs it: every
// constraint must name a query atom as its guard with Y a subset of
// that atom's variables (with self-joins, any same-named atom whose
// variables contain Y guards it), every query variable must be in some
// constraint's Y−X (otherwise its candidate set is unbounded, Claim 1
// of Proposition 5.2), and the set must be acyclic.
func BacktrackOrder(q *Query, dc constraints.Set) ([]string, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	full, err := dc.CompatibleOrder(q.Vars)
	if err != nil {
		return nil, fmt.Errorf("core: %w (repair with MakeAcyclic first)", err)
	}
	var order []string
	for _, v := range full {
		if constraints.ContainsVar(q.Vars, v) {
			order = append(order, v)
		}
	}
	if err := CheckOrder(q, order); err != nil {
		return nil, err
	}
	for _, c := range dc {
		if err := checkGuard(q, c); err != nil {
			return nil, err
		}
	}
	for _, v := range order {
		bounded := false
		for _, c := range dc {
			if constraints.ContainsVar(constraints.Minus(c.Y, c.X), v) {
				bounded = true
				break
			}
		}
		if !bounded {
			return nil, fmt.Errorf("core: variable %q is in no constraint's Y−X; the bound is infinite", v)
		}
	}
	return order, nil
}

// checkGuard reports whether some atom named c.Guard has every variable
// of c.Y.
func checkGuard(q *Query, c constraints.Constraint) error {
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
			return nil
		}
	}
	if !sawName {
		return fmt.Errorf("core: constraint %v: no atom named %q", c, c.Guard)
	}
	return fmt.Errorf("core: constraint %v: no atom named %q contains %v", c, c.Guard, c.Y)
}
