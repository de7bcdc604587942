// Package trie implements sorted-array tries over relations together
// with the multiway level-intersection kernels (intersect.go) the join
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
// the intersection kernels in intersect.go. A narrowed trie also stores
// every dense key set — a parent's children span, or the whole of level
// 0, whose keys spread over at most denseBitsPerKey bits per key — as a
// bitset with a rank per pair of words, so the kernels AND two dense
// sets word by word and find a value's position in a word read and a
// popcount or two. The layout of each set follows its density, as in
// EmptyHeaded (Aberger et al., SIGMOD 2016). All index storage is
// arena-allocated: one offsets slab and one keys slab per trie,
// regardless of arity, plus one word slab and one rank slab when the
// trie has dense sets. See DESIGN.md §11.
package trie

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

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
//   - dense[d], on a narrowed trie, indexes level d's dense key sets
//     (see denseLevel): each is a parent's children span (the whole
//     level for d = 0) stored once more as a bitset in words, with its
//     rank pairs in ranks. A wide trie has none.
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
	dense      []denseLevel
	words      []uint64 // the dense sets' bitset words, one arena
	ranks      []int32  // per pair of words: the position of its first key
	owned      int64    // arena bytes owned by the CSR index
}

// denseMin is the fewest keys a set needs to be stored dense: smaller
// sets merge in a handful of compares.
const denseMin = 8

// denseBitsPerKey bounds how sparse a dense set may be: its
// word-aligned bitset spans at most this many bits per key. With its
// ranks a word costs 10 bytes, so a set at the bound costs 50 bits per
// key beside its 32-bit keys; the benchmark's random graph averages ~29
// bits per key, and 40 admits 89% of its children sets where 32 admits
// 64% (see DESIGN.md §11).
const denseBitsPerKey = 40

// denseWords returns the number of words of the bitset over the sorted
// keys ks[lo:hi], which cover the word-aligned [ks[lo], ks[hi-1]], or 0
// when the set is too small or too sparse to be stored dense.
func denseWords(ks []uint32, lo, hi int) int {
	n := hi - lo
	if n < denseMin {
		return 0
	}
	w := int(ks[hi-1]>>6-ks[lo]>>6) + 1
	if 64*w > denseBitsPerKey*n {
		return 0
	}
	return w
}

// bitset is a set of integers as 64-bit words with one rank per pair of
// words: rank[j] is the position of the first member of word 2j — the
// set's origin plus its members in earlier words — so the position of
// any member is at most two word reads and popcounts away.
type bitset struct {
	words []uint64
	rank  []int32
}

// has reports whether bit i is set; i must be below 64·len(words).
func (b bitset) has(i int) bool { return b.words[i>>6]>>(uint(i)&63)&1 != 0 }

// below returns the origin plus the number of members below i; i must
// be below 64·len(words).
func (b bitset) below(i int) int {
	w := i >> 6
	return int(b.rank[w>>1]) + bits.OnesCount64(b.words[w]&(1<<(uint(i)&63)-1)) + bits.OnesCount64(b.words[w&^1])&-(w&1)
}

// count fills b's ranks from its words, counting from origin.
func (b bitset) count(origin int) {
	c := int32(origin)
	for w, x := range b.words {
		if w&1 == 0 {
			b.rank[w>>1] = c
		}
		c += int32(bits.OnesCount64(x))
	}
}

// even rounds a word count up to a whole number of rank pairs.
func even(w int) int { return w + w&1 }

// denseLevel indexes the dense sets of one level of a narrowed trie:
// set i occupies the trie's words [off[i], off[i+1]) — an even offset,
// so its rank pairs are the arena's ranks from off[i]/2 — and
// its origin is the position of its first key, so its ranks are
// positions in the level's key array. At level 0 the only possible set
// is the whole level; at a deeper level d, bit s of parents is set when
// the children of level-(d-1) segment s are dense, and parents.below(s)
// is their set's index.
type denseLevel struct {
	parents bitset
	off     []int32
	wb      []int32 // wb[i]: set i's first key / 64, its first word's place
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

	// Narrow the key slabs to uint32 when every value of every column is
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
		t.buildDense()
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

// buildDense stores every dense set of the narrowed trie — each
// children span, and the whole of level 0, that denseWords accepts — as
// a bitset: the sets' words in one arena, level by level, each set and
// each level's parent flags after its sets starting on an even word,
// and a second arena of their rank pairs followed by the levels' offset
// tables.
func (t *Trie) buildDense() {
	k := len(t.keys32)
	// Level d's spans: the whole level for d = 0, else one per parent.
	spans := func(d int) int {
		if d == 0 {
			return 1
		}
		return t.segs[d-1]
	}
	span := func(d, p int) (lo, hi int) {
		if d == 0 {
			return 0, t.segs[0]
		}
		return t.Children(d-1, p)
	}
	// One pass finds the dense spans, level by level: found[first[d]:
	// first[d+1]] lists level d's, as (span, words) pairs.
	first := make([]int, k+1)
	var found []int32
	nw, ni := 0, 0
	for d := 0; d < k; d++ {
		first[d] = len(found)
		for p := 0; p < spans(d); p++ {
			lo, hi := span(d, p)
			if w := denseWords(t.keys32[d], lo, hi); w > 0 {
				found = append(found, int32(p), int32(w))
				nw += even(w)
			}
		}
		if sets := (len(found) - first[d]) / 2; sets > 0 {
			if d > 0 {
				nw += even((spans(d) + 63) / 64)
			}
			ni += 2*sets + 1
		}
	}
	first[k] = len(found)
	if nw == 0 {
		return
	}
	t.words = make([]uint64, nw)
	ints := make([]int32, nw/2+ni)
	t.ranks, ints = ints[:nw/2:nw/2], ints[nw/2:]
	t.dense = make([]denseLevel, k)
	bitsAt := func(w0, w1 int) bitset {
		return bitset{words: t.words[w0:w1:w1], rank: t.ranks[w0/2 : even(w1)/2 : even(w1)/2]}
	}
	w := 0
	for d := 0; d < k; d++ {
		level := found[first[d]:first[d+1]]
		sets := len(level) / 2
		if sets == 0 {
			continue
		}
		dl := &t.dense[d]
		dl.off, ints = ints[:sets+1:sets+1], ints[sets+1:]
		dl.wb, ints = ints[:sets:sets], ints[sets:]
		for i := 0; i < sets; i++ {
			p, x := int(level[2*i]), int(level[2*i+1])
			lo, hi := span(d, p)
			dl.off[i] = int32(w)
			// The keys are sorted: fill each word in a register.
			set, ks := bitsAt(w, w+x), t.keys32[d]
			base := ks[lo] &^ 63
			dl.wb[i] = int32(ks[lo] >> 6)
			cur, word := 0, uint64(0)
			for _, v := range ks[lo:hi] {
				if v -= base; int(v>>6) != cur {
					set.words[cur], cur, word = word, int(v>>6), 0
				}
				word |= 1 << (v & 63)
			}
			set.words[cur] = word
			set.count(lo)
			w += even(x)
		}
		dl.off[sets] = int32(w)
		if d > 0 {
			dl.parents = bitsAt(w, w+(spans(d)+63)/64)
			for i := 0; i < sets; i++ {
				p := int(level[2*i])
				dl.parents.words[p>>6] |= 1 << (p & 63)
			}
			dl.parents.count(0)
			w += even(len(dl.parents.words))
		}
	}
	t.owned += int64(nw)*8 + int64(nw/2+ni)*4
}

// set returns the arena words [w0,w1) of the level's i-th dense set
// and the absolute index (key / 64) of its first word.
func (dl *denseLevel) set(i int) (w0, w1, wb int32) { return dl.off[i], dl.off[i+1], dl.wb[i] }

// child returns the set of parent s's children at the level, which
// are dense (their flag is set).
func (dl *denseLevel) child(s int) (w0, w1, wb int32) {
	return dl.set(dl.parents.below(s))
}

// level returns the index of level d's dense sets, or nil when it has
// none.
func (t *Trie) level(d int) *denseLevel {
	if t.dense == nil || t.dense[d].off == nil {
		return nil
	}
	return &t.dense[d]
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
// pins it either way) plus the owned CSR index arenas (offset arrays,
// dense, possibly uint32-narrowed, key slabs, and the dense sets'
// words, ranks and tables).
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
// which is what the kernels in intersect.go assume. A window that is
// exactly a dense set — the whole of level 0, or a parent's children
// span (found by a binary search over the parents' spans) — carries its
// bitset, so the kernels AND it and seek into it in O(1).
func (t *Trie) SegLevel(d, lo, hi int) LevelRange {
	if t.keys32 == nil {
		return LevelRange{Keys: t.keys[d], Lo: lo, Hi: hi}
	}
	r := LevelRange{Keys32: t.keys32[d], Lo: lo, Hi: hi, t: t, dense: t.level(d)}
	switch {
	case r.dense == nil || lo >= hi:
	case d == 0:
		if lo == 0 && hi == t.segs[0] {
			r.w0, r.w1, r.wb = r.dense.set(0)
		}
	default:
		cs := t.childStart[d-1]
		p := sort.Search(t.segs[d-1], func(p int) bool { return int(cs[p]) >= lo })
		if p < t.segs[d-1] && int(cs[p]) == lo && int(cs[p+1]) == hi && r.dense.parents.has(p) {
			r.w0, r.w1, r.wb = r.dense.child(p)
		}
	}
	return r
}

// Child moves r, a level-(d+1) range of t (from SegLevel), to segment
// s's children — the window the search intersects once it binds level d
// to s — and attaches their bitset when they are dense, in O(1). Only
// the window and the bitset's place in the arena change, so the search
// keeps one range per participant and moves it.
func (t *Trie) Child(r *LevelRange, d, s int) {
	cs := t.childStart[d]
	r.Lo, r.Hi, r.w0, r.w1 = int(cs[s]), int(cs[s+1]), 0, 0
	if dl := r.dense; dl != nil && dl.parents.has(s) {
		r.w0, r.w1, r.wb = dl.child(s)
	}
}
