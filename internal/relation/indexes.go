package relation

import "slices"

// indexEntry is one memoized index of a relation: a structure derived
// from its stored tuples under one column permutation.
type indexEntry struct {
	perm []int
	ix   any
}

// Index returns the index memoized on r under the column permutation
// perm, if one has been built. It takes no lock: it scans a
// copy-on-write slice, published atomically, of one entry per
// permutation in use (at most two for a binary relation).
func (r *Relation) Index(perm []int) (any, bool) {
	if p := r.ixs.Load(); p != nil {
		for _, e := range *p {
			if slices.Equal(e.perm, perm) {
				return e.ix, true
			}
		}
	}
	return nil, false
}

// MemoIndex returns the index memoized on r under perm, calling build
// to make it on first use; built reports whether this call built it.
// Relations are immutable, so, as with Degree, every reader of r in
// one column order can share one index. Concurrent first callers
// serialize on r: one builds, the rest share its index. A failed build
// memoizes nothing.
func (r *Relation) MemoIndex(perm []int, build func() (any, error)) (ix any, built bool, err error) {
	if ix, ok := r.Index(perm); ok {
		return ix, false, nil
	}
	r.ixMu.Lock()
	defer r.ixMu.Unlock()
	if ix, ok := r.Index(perm); ok {
		return ix, false, nil
	}
	if ix, err = build(); err != nil {
		return nil, false, err
	}
	next := []indexEntry{{perm: slices.Clone(perm), ix: ix}}
	if p := r.ixs.Load(); p != nil {
		next = append(next, *p...)
	}
	r.ixs.Store(&next)
	return ix, true, nil
}
