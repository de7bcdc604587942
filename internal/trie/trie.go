// Package trie implements sorted-array tries over relations together
// with the multiway level-intersection kernels (leapfrog.go) the join
// engine runs over them.
//
// A trie is the relation's sorted columnar storage viewed as a layered
// search tree: level d enumerates the distinct values of attribute d
// within the row range selected by the values chosen at levels 0..d-1.
//
// Since the columns are immutable, Build precomputes a flat CSR
// (compressed sparse row) index over them: per level a dense array of
// distinct segment keys plus int32 offset arrays mapping each segment
// to its row range and to its children at the next level. Navigation
// (SegKey, SegRows, Children) is then O(1) array arithmetic, and the
// kernels gallop over duplicate-free key arrays — the repeated binary
// searches over raw column ranges of the previous layout disappear
// from the hot paths.
// When every value of the relation fits in uint32 the per-level key
// arrays are narrowed to 4-byte keys, halving the memory bandwidth of
// the intersection kernels in leapfrog.go. All index storage is
// arena-allocated: one offsets slab and one keys slab per trie,
// regardless of arity. See DESIGN.md §11.
package trie

import (
	"fmt"
	"math"
	"slices"

	"wcoj/internal/relation"
)

// Trie is an immutable trie view over a relation sorted by a specific
// attribute order.
//
// CSR index shape (k = arity, n = rows):
//
//   - segs[d] is the number of level-d segments (distinct prefixes of
//     length d+1). At the deepest level segments are exactly rows
//     (relations are duplicate-free sets), so segs[k-1] = n.
//   - keys[d][s] (or keys32[d][s] when narrowed) is the level-d value
//     of segment s — strictly increasing within any one parent's
//     children span, duplicate-free. keys[k-1] aliases cols[k-1].
//   - rowStart[d], for d < k-1, has segs[d]+1 entries: segment s spans
//     rows [rowStart[d][s], rowStart[d][s+1]). Deepest-level segments
//     are rows, so their row range is the identity (not stored).
//   - childStart[d], for d < k-1, has segs[d]+1 entries: segment s's
//     children at level d+1 are segments
//     [childStart[d][s], childStart[d][s+1]). Level-(k-1) children are
//     rows, so childStart[k-2] aliases rowStart[k-2].
type Trie struct {
	rel   *relation.Relation
	attrs []string
	cols  [][]relation.Value
	n     int

	segs       []int
	keys       [][]relation.Value
	keys32     [][]uint32
	rowStart   [][]int32
	childStart [][]int32
	owned      int64 // arena bytes owned by the CSR index
}

// Build returns a trie over r with attributes in the given order. If
// order equals r's native attribute order the storage is shared;
// otherwise the relation is re-sorted. order must be a permutation of
// r's schema.
func Build(r *relation.Relation, order []string) (*Trie, error) {
	if !slices.Equal(order, r.Attrs()) {
		var err error
		if r, err = r.SortedBy(order); err != nil {
			return nil, fmt.Errorf("trie: %w", err)
		}
	}
	return over(r)
}

// BuildPerm returns a trie over r's own columns taken in the order
// perm: level d reads column perm[d], under that column's name. The
// identity permutation shares r's storage; any other re-sorts a copy.
func BuildPerm(r *relation.Relation, perm []int) (*Trie, error) {
	sorted, err := r.Permuted(perm)
	if err != nil {
		return nil, fmt.Errorf("trie: %w", err)
	}
	return over(sorted)
}

// over builds the CSR index over a relation already sorted in the
// trie's level order, sharing its storage.
func over(r *relation.Relation) (*Trie, error) {
	cols := make([][]relation.Value, r.Arity())
	for j := range cols {
		cols[j] = r.Col(j)
	}
	t := &Trie{rel: r, attrs: r.Attrs(), cols: cols, n: r.Len()}
	if err := t.buildIndex(); err != nil {
		return nil, err
	}
	return t, nil
}

// buildIndex computes the CSR arrays in two linear passes over the
// already-sorted columns: one to find segment boundaries per level,
// one to fill the arena-allocated offset and key slabs.
func (t *Trie) buildIndex() error {
	k := len(t.cols)
	n := t.n
	if k == 0 {
		return nil
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("trie: relation of %d rows exceeds the int32 CSR offset range", n)
	}
	t.segs = make([]int, k)
	t.segs[k-1] = n

	// Segment start rows per level (excluding the deepest): a level-d
	// boundary is a value change in column d or any boundary of level
	// d-1 — boundaries nest, so each level is a merge-walk over the
	// previous level's starts.
	bounds := make([][]int32, k-1)
	for d := 0; d < k-1; d++ {
		col := t.cols[d]
		var b []int32
		if d == 0 {
			b = make([]int32, 0, 16)
			for i := 0; i < n; i++ {
				if i == 0 || col[i] != col[i-1] {
					b = append(b, int32(i))
				}
			}
		} else {
			prev := bounds[d-1]
			b = make([]int32, 0, len(prev)+16)
			pi := 0
			for i := 0; i < n; i++ {
				pb := pi < len(prev) && int(prev[pi]) == i
				if pb {
					pi++
				}
				if pb || col[i] != col[i-1] {
					b = append(b, int32(i))
				}
			}
		}
		bounds[d] = b
		t.segs[d] = len(b)
	}

	// Offset arena: rowStart for every non-deepest level plus
	// childStart for levels with non-row children (childStart[k-2]
	// aliases rowStart[k-2]).
	totOff := 0
	totKeys := 0
	for d := 0; d < k-1; d++ {
		totOff += t.segs[d] + 1
		if d < k-2 {
			totOff += t.segs[d] + 1
		}
		totKeys += t.segs[d]
	}
	offArena := make([]int32, totOff)
	t.rowStart = make([][]int32, k)
	t.childStart = make([][]int32, k)
	off := 0
	for d := 0; d < k-1; d++ {
		m := t.segs[d]
		rs := offArena[off : off+m+1 : off+m+1]
		off += m + 1
		copy(rs, bounds[d])
		rs[m] = int32(n)
		t.rowStart[d] = rs
	}
	for d := 0; d < k-2; d++ {
		m := t.segs[d]
		cs := offArena[off : off+m+1 : off+m+1]
		off += m + 1
		next := t.rowStart[d+1]
		j := 0
		for s := 0; s < m; s++ {
			for next[j] != t.rowStart[d][s] {
				j++
			}
			cs[s] = int32(j)
		}
		cs[m] = int32(t.segs[d+1])
		t.childStart[d] = cs
	}
	if k >= 2 {
		t.childStart[k-2] = t.rowStart[k-2]
	}

	// Key slabs. Narrow to uint32 when every value of every column is
	// representable (values can be negative: raw integer columns are
	// stored verbatim, only Dict-interned IDs are dense non-negative).
	narrow := true
	for _, col := range t.cols {
		for _, v := range col {
			if v < 0 || v > math.MaxUint32 {
				narrow = false
				break
			}
		}
		if !narrow {
			break
		}
	}
	if narrow {
		arena := make([]uint32, totKeys+n)
		t.keys32 = make([][]uint32, k)
		koff := 0
		for d := 0; d < k-1; d++ {
			m := t.segs[d]
			ks := arena[koff : koff+m : koff+m]
			koff += m
			col := t.cols[d]
			for s := 0; s < m; s++ {
				ks[s] = uint32(col[t.rowStart[d][s]])
			}
			t.keys32[d] = ks
		}
		last := arena[koff : koff+n : koff+n]
		for i, v := range t.cols[k-1] {
			last[i] = uint32(v)
		}
		t.keys32[k-1] = last
		t.owned = int64(totOff)*4 + int64(totKeys+n)*4
	} else {
		arena := make([]relation.Value, totKeys)
		t.keys = make([][]relation.Value, k)
		koff := 0
		for d := 0; d < k-1; d++ {
			m := t.segs[d]
			ks := arena[koff : koff+m : koff+m]
			koff += m
			col := t.cols[d]
			for s := 0; s < m; s++ {
				ks[s] = col[t.rowStart[d][s]]
			}
			t.keys[d] = ks
		}
		t.keys[k-1] = t.cols[k-1] // aliases the column: rows are segments
		t.owned = int64(totOff)*4 + int64(totKeys)*8
	}
	return nil
}

// Attrs returns the trie's attribute order.
func (t *Trie) Attrs() []string { return t.attrs }

// Depth returns the number of levels (the relation's arity).
func (t *Trie) Depth() int { return len(t.attrs) }

// Len returns the number of tuples underneath the root.
func (t *Trie) Len() int { return t.n }

// Relation returns the (possibly re-sorted) relation backing the trie.
func (t *Trie) Relation() *relation.Relation { return t.rel }

// Narrowed reports whether the trie's key arrays were narrowed to
// uint32 (every value of the relation is in [0, 2^32)).
func (t *Trie) Narrowed() bool { return t.keys32 != nil }

// SizeBytes estimates the heap footprint the trie pins: the columnar
// storage (tuples x arity x 8-byte values — charged in full even when
// Build shared the relation's native storage, since a memoized trie
// pins it either way) plus the owned CSR index
// arenas (offset arrays and dense, possibly uint32-narrowed, key
// slabs).
func (t *Trie) SizeBytes() int64 {
	return int64(t.n)*int64(len(t.cols))*8 + t.owned
}

// NumSegs returns the number of segments (distinct values) at level d
// under the root — for level 0 that is the number of distinct top
// values; deeper levels count distinct prefixes of length d+1.
func (t *Trie) NumSegs(d int) int { return t.segs[d] }

// SegKey returns the level-d value of segment s.
func (t *Trie) SegKey(d, s int) relation.Value {
	if t.keys32 != nil {
		return relation.Value(t.keys32[d][s])
	}
	return t.keys[d][s]
}

// SegRows returns the row range [lo,hi) of level-d segment s.
func (t *Trie) SegRows(d, s int) (lo, hi int) {
	if d == len(t.cols)-1 {
		return s, s + 1
	}
	rs := t.rowStart[d]
	return int(rs[s]), int(rs[s+1])
}

// Children returns the segment index range [lo,hi) of level-d segment
// s's children at level d+1.
func (t *Trie) Children(d, s int) (lo, hi int) {
	cs := t.childStart[d]
	return int(cs[s]), int(cs[s+1])
}

// SegLevel returns the intersection view of level d restricted to
// segments [lo,hi) — a parent's children span, or the whole level for
// d = 0. The keys are dense, strictly increasing and duplicate-free,
// which is what the kernels in leapfrog.go assume.
func (t *Trie) SegLevel(d, lo, hi int) LevelRange {
	if t.keys32 != nil {
		return LevelRange{Keys32: t.keys32[d], Lo: lo, Hi: hi}
	}
	return LevelRange{Keys: t.keys[d], Lo: lo, Hi: hi}
}
