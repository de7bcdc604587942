package relation

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// degKey names one degree statistic of a relation: the column-index
// sets X ⊆ Y as bitmasks (bit j selects column j).
type degKey struct{ x, y uint64 }

// Degree returns the empirical degree deg_R(Y|X) of Definition 1,
// max_t |σ_{X=t} π_Y R| over the bindings t of X that occur in r, for
// column-index sets given as bitmasks: bit j selects column j. X must
// be a subset of Y, and Y a subset of r's columns. X = ∅ gives |π_Y R|;
// Y = ∅ and empty relations give 0.
//
// The statistic depends only on the stored tuples, so it is measured
// once per relation and memoized: relations are immutable, and every
// query, self-join atom and later plan that binds r shares the
// measurement. Concurrent callers are safe; two first callers may both
// measure, with the same result.
func (r *Relation) Degree(x, y uint64) int {
	k := degKey{x, y}
	r.degMu.Lock()
	d, ok := r.degs[k]
	r.degMu.Unlock()
	if ok {
		return d
	}
	d = r.degree(x, y)
	r.degMu.Lock()
	if r.degs == nil {
		r.degs = make(map[degKey]int)
	}
	r.degs[k] = d
	r.degMu.Unlock()
	return d
}

// degree is Degree's kernel. It orders the rows by (X, Y∖X), each part
// in column order, and counts distinct Y runs inside each X run. When X
// and Y are leading column sets the stored order already is that order
// and the sort is skipped.
func (r *Relation) degree(x, y uint64) int {
	if y == 0 || r.n == 0 {
		return 0
	}
	var key [][]Value // X's columns, then Y∖X's
	for _, m := range []uint64{x, y &^ x} {
		for j, c := range r.cols {
			if m&(1<<uint(j)) != 0 {
				key = append(key, c)
			}
		}
	}
	nx := bits.OnesCount64(x)
	perm := make([]int32, r.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if x&(x+1) != 0 || y&(y+1) != 0 { // not both leading column sets
		slices.SortFunc(perm, func(a, b int32) int { return compareRows(key, a, b) })
	}
	best, run := 1, 1
	for i := 1; i < r.n; i++ {
		a, b := perm[i-1], perm[i]
		switch {
		case compareRows(key[:nx], a, b) != 0:
			run = 1
		case compareRows(key[nx:], a, b) != 0:
			run++
			best = max(best, run)
		}
	}
	return best
}

// compareRows orders rows a and b lexicographically over cols.
func compareRows(cols [][]Value, a, b int32) int {
	for _, c := range cols {
		if c[a] != c[b] {
			return cmp.Compare(c[a], c[b])
		}
	}
	return 0
}

// MaxDegree is Degree over attribute names: deg_R(Y|X) for attribute
// lists x ⊆ y of r's schema.
func (r *Relation) MaxDegree(x, y []string) (int, error) {
	var m [2]uint64 // x's and y's column sets
	for i, attrs := range [][]string{x, y} {
		for _, a := range attrs {
			j := r.AttrIndex(a)
			if j < 0 || j >= 64 {
				return 0, fmt.Errorf("relation: degree %s: no attribute %q among the first 64", r.name, a)
			}
			m[i] |= 1 << uint(j)
		}
	}
	if m[0]&^m[1] != 0 {
		return 0, fmt.Errorf("relation: degree %s: X %v not in Y %v", r.name, x, y)
	}
	return r.Degree(m[0], m[1]), nil
}
