package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is an immutable, lexicographically sorted, duplicate-free
// set of tuples over a named attribute schema. Storage is column-major.
type Relation struct {
	name  string
	attrs []string
	cols  [][]Value // len(cols) == arity; all columns have equal length
	n     int

	degMu sync.Mutex
	degs  map[degKey]int // memoized Degree results

	// ixs holds the memoized per-permutation indexes (see Index); the
	// slice is copy-on-write, replaced whole under ixMu.
	ixMu sync.Mutex
	ixs  atomic.Pointer[[]indexEntry]
}

// New builds a relation from row tuples. The input is copied, sorted in
// the given attribute order and deduplicated. It panics if a tuple's
// arity does not match the schema; data loading paths that need error
// returns should use a Builder.
func New(name string, attrs []string, tuples []Tuple) *Relation {
	b := NewBuilder(name, attrs...)
	for _, t := range tuples {
		if err := b.Add(t...); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// Empty returns an empty relation over the given schema.
func Empty(name string, attrs ...string) *Relation {
	return NewBuilder(name, attrs...).Build()
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Attrs returns the schema (attribute names in storage order). The
// returned slice must not be modified.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Col returns column j. The returned slice must not be modified.
func (r *Relation) Col(j int) []Value { return r.cols[j] }

// AttrIndex returns the position of attr in the schema, or -1.
func (r *Relation) AttrIndex(attr string) int {
	for j, a := range r.attrs {
		if a == attr {
			return j
		}
	}
	return -1
}

// HasAttr reports whether attr is part of the schema.
func (r *Relation) HasAttr(attr string) bool { return r.AttrIndex(attr) >= 0 }

// Tuple materializes row i into dst (allocating if dst is too short)
// and returns it.
func (r *Relation) Tuple(i int, dst Tuple) Tuple {
	if cap(dst) < len(r.cols) {
		dst = make(Tuple, len(r.cols))
	}
	dst = dst[:len(r.cols)]
	for j := range r.cols {
		dst[j] = r.cols[j][i]
	}
	return dst
}

// Tuples materializes all rows. Intended for tests and small outputs.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.Tuple(i, nil)
	}
	return out
}

// Contains reports whether the relation contains the given tuple, by
// binary search over the sorted storage.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	lo, hi := 0, r.n
	// Narrow the candidate row range on each column in turn.
	for j := range t {
		lo = lo + sort.Search(hi-lo, func(i int) bool { return r.cols[j][lo+i] >= t[j] })
		hi = lo + sort.Search(hi-lo, func(i int) bool { return r.cols[j][lo+i] > t[j] })
		if lo >= hi {
			return false
		}
	}
	return lo < hi
}

// Rename returns a view of r with a new name and attribute names. The
// column data is shared. It returns an error if the arity differs.
func (r *Relation) Rename(name string, attrs ...string) (*Relation, error) {
	if len(attrs) != len(r.attrs) {
		return nil, fmt.Errorf("relation: rename %s: got %d attrs, want %d", r.name, len(attrs), len(r.attrs))
	}
	as := make([]string, len(attrs))
	copy(as, attrs)
	return &Relation{name: name, attrs: as, cols: r.cols, n: r.n}, nil
}

func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)[%d]", r.name, strings.Join(r.attrs, ","), r.n)
	return b.String()
}

// Builder accumulates tuples and produces a sorted, deduplicated
// Relation. The zero value is not usable; create one with NewBuilder.
type Builder struct {
	name  string
	attrs []string
	rows  []Value // row-major staging, arity-strided
	arity int
}

// NewBuilder returns a builder for a relation over the given schema.
func NewBuilder(name string, attrs ...string) *Builder {
	as := make([]string, len(attrs))
	copy(as, attrs)
	return &Builder{name: name, attrs: as, arity: len(attrs)}
}

// Add appends one tuple. It returns an error on arity mismatch.
func (b *Builder) Add(vals ...Value) error {
	if len(vals) != b.arity {
		return fmt.Errorf("relation: %s: tuple arity %d, want %d", b.name, len(vals), b.arity)
	}
	b.rows = append(b.rows, vals...)
	return nil
}

// Len reports the number of staged tuples (before dedup).
func (b *Builder) Len() int {
	if b.arity == 0 {
		return 0
	}
	return len(b.rows) / b.arity
}

// Build sorts, deduplicates, and returns the relation. The builder may
// be reused afterwards (it is reset).
func (b *Builder) Build() *Relation {
	k := b.arity
	if k == 0 {
		r := &Relation{name: b.name, attrs: b.attrs, cols: nil, n: 0}
		b.rows = nil
		return r
	}
	n := len(b.rows) / k
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rows := b.rows
	sort.Slice(idx, func(x, y int) bool {
		a, c := idx[x]*k, idx[y]*k
		for j := 0; j < k; j++ {
			if rows[a+j] != rows[c+j] {
				return rows[a+j] < rows[c+j]
			}
		}
		return false
	})
	cols := make([][]Value, k)
	for j := range cols {
		cols[j] = make([]Value, 0, n)
	}
	m := 0
	for p, i := range idx {
		base := i * k
		if p > 0 {
			prev := idx[p-1] * k
			same := true
			for j := 0; j < k; j++ {
				if rows[base+j] != rows[prev+j] {
					same = false
					break
				}
			}
			if same {
				continue
			}
		}
		for j := 0; j < k; j++ {
			cols[j] = append(cols[j], rows[base+j])
		}
		m++
	}
	b.rows = nil
	return &Relation{name: b.name, attrs: b.attrs, cols: cols, n: m}
}

// FromColumns builds a relation directly from pre-sorted, deduplicated
// columns. It is the fast path for operators that produce sorted
// output; callers must guarantee the invariant.
func FromColumns(name string, attrs []string, cols [][]Value) *Relation {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	as := make([]string, len(attrs))
	copy(as, attrs)
	return &Relation{name: name, attrs: as, cols: cols, n: n}
}

// SortedBy returns a relation with the same tuples re-sorted under a
// new attribute order. order must be a permutation of the schema.
func (r *Relation) SortedBy(order []string) (*Relation, error) {
	perm := make([]int, len(order))
	for i, a := range order {
		perm[i] = r.AttrIndex(a)
	}
	return r.Permuted(perm)
}

// Permuted returns a relation whose column i is r's column perm[i],
// re-sorted in that column order; attribute names travel with their
// columns. perm must be a permutation of 0..arity-1. The identity
// permutation returns r itself.
func (r *Relation) Permuted(perm []int) (*Relation, error) {
	k := len(r.attrs)
	seen := make([]bool, k)
	order := make([]string, k)
	ok, identity := len(perm) == k, true
	for i, j := range perm {
		if ok = ok && j >= 0 && j < k && !seen[j]; !ok {
			break
		}
		seen[j] = true
		order[i] = r.attrs[j]
		identity = identity && i == j
	}
	if !ok {
		return nil, fmt.Errorf("relation: %s: column order %v is not a permutation of %v", r.name, perm, r.attrs)
	}
	if identity {
		return r, nil
	}
	// The rows are already distinct: sort their indices once under the
	// permuted column order, then gather every column into one presized
	// slab. The allocations do not grow with the row count.
	src := make([][]Value, k)
	for x, j := range perm {
		src[x] = r.cols[j]
	}
	idx := make([]int, r.n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		for _, c := range src {
			if c[a] != c[b] {
				return cmp.Compare(c[a], c[b])
			}
		}
		return 0
	})
	slab := make([]Value, k*r.n)
	cols := make([][]Value, k)
	for x, c := range src {
		col := slab[x*r.n : (x+1)*r.n : (x+1)*r.n]
		for i, p := range idx {
			col[i] = c[p]
		}
		cols[x] = col
	}
	return &Relation{name: r.name, attrs: order, cols: cols, n: r.n}, nil
}

// Equal reports whether two relations hold the same tuple set over the
// same schema (attribute order must match).
func (r *Relation) Equal(s *Relation) bool {
	if r.Arity() != s.Arity() || r.n != s.n {
		return false
	}
	for j, a := range r.attrs {
		if s.attrs[j] != a {
			return false
		}
	}
	for j := range r.cols {
		for i := 0; i < r.n; i++ {
			if r.cols[j][i] != s.cols[j][i] {
				return false
			}
		}
	}
	return true
}
