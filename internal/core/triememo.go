package core

import (
	"slices"
	"sync/atomic"

	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// TrieMemo is the TrieSource of a long-lived DB. An atom's trie is its
// relation's columns sorted in the atom's slice of the variable order:
// a column permutation of the relation, whatever names the atom binds.
// Relations are immutable, so that trie is memoized on the relation
// itself (relation.MemoIndex), as its degree statistics are: every
// query, alpha-renamed copy and self-join atom reading a relation in
// one column order shares one trie, which lives exactly as long as the
// relation. TrieMemo only counts memo hits and builds; its zero value
// is ready to use. One-shot calls build with trie.BuildPerm and
// memoize nothing.
type TrieMemo struct {
	hits, builds atomic.Uint64
}

// Get implements TrieSource.
func (m *TrieMemo) Get(a Atom, atomOrder []string) (*trie.Trie, error) {
	perm := AtomPerm(a, atomOrder)
	return m.Memo(a.Rel, perm, func() (*trie.Trie, error) { return trie.BuildPerm(a.Rel, perm) })
}

// Memo returns rel's trie under the column permutation perm, memoized
// on rel; build makes it on first use (a merged snapshot trie, say,
// instead of a sort).
func (m *TrieMemo) Memo(rel *relation.Relation, perm []int, build func() (*trie.Trie, error)) (*trie.Trie, error) {
	ix, built, err := rel.MemoIndex(perm, func() (any, error) { return build() })
	if err != nil {
		return nil, err
	}
	if built {
		m.builds.Add(1)
	} else {
		m.hits.Add(1)
	}
	return ix.(*trie.Trie), nil
}

// Stats reports the lifetime memo hits and trie builds served.
func (m *TrieMemo) Stats() (hits, builds uint64) { return m.hits.Load(), m.builds.Load() }

// AtomPerm returns the column permutation of a's relation that a trie
// in atomOrder reads: level d is the column a binds to atomOrder[d]
// (-1 for a variable a lacks, which the trie build rejects).
func AtomPerm(a Atom, atomOrder []string) []int {
	perm := make([]int, len(atomOrder))
	for d, v := range atomOrder {
		perm[d] = slices.Index(a.Vars, v)
	}
	return perm
}

// atomOrderOf restricts the global variable order to one atom's
// variables: the atom's trie order.
func atomOrderOf(order, vars []string) []string {
	var out []string
	for _, v := range order {
		if slices.Contains(vars, v) {
			out = append(out, v)
		}
	}
	return out
}
