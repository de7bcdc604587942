package relation

import "fmt"

// Project returns the projection of r onto attrs (π_attrs R), sorted
// and deduplicated. Attrs must be a subset of r's schema.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation: project %s: no attribute %q", r.name, a)
		}
		idx[i] = j
	}
	b := NewBuilder(fmt.Sprintf("π(%s)", r.name), attrs...)
	row := make(Tuple, len(attrs))
	for i := 0; i < r.n; i++ {
		for x, j := range idx {
			row[x] = r.cols[j][i]
		}
		if err := b.Add(row...); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Union returns r ∪ s. Schemas must match exactly.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	b := NewBuilder(fmt.Sprintf("(%s∪%s)", r.name, s.name), r.attrs...)
	var row Tuple
	for i := 0; i < r.n; i++ {
		row = r.Tuple(i, row)
		if err := b.Add(row...); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.n; i++ {
		row = s.Tuple(i, row)
		if err := b.Add(row...); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Semijoin returns r ⋉ s: the tuples of r that agree with at least one
// tuple of s on their shared attributes. If the schemas share no
// attributes, the result is r when s is non-empty and empty otherwise.
func (r *Relation) Semijoin(s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	if len(shared) == 0 {
		if s.Len() > 0 {
			return r, nil
		}
		return Empty(r.name, r.attrs...), nil
	}
	proj, err := s.Project(shared...)
	if err != nil {
		return nil, err
	}
	ix := NewHashIndex(proj, shared)
	rIdx := make([]int, len(shared))
	for i, a := range shared {
		rIdx[i] = r.AttrIndex(a)
	}
	cols := make([][]Value, r.Arity())
	key := make(Tuple, len(shared))
	for i := 0; i < r.n; i++ {
		for x, j := range rIdx {
			key[x] = r.cols[j][i]
		}
		if !ix.Contains(key) {
			continue
		}
		for c := range cols {
			cols[c] = append(cols[c], r.cols[c][i])
		}
	}
	return FromColumns(fmt.Sprintf("(%s⋉%s)", r.name, s.name), r.attrs, cols), nil
}

// Partition splits r into (heavy, light) by the frequency of the value
// combination over attrs: a tuple goes to heavy when its attrs-group
// has more than threshold tuples in r, otherwise to light. This is the
// "decomposition rule" primitive of Algorithm 2 and PANDA.
func (r *Relation) Partition(attrs []string, threshold int) (heavy, light *Relation, err error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			return nil, nil, fmt.Errorf("relation: partition %s: no attribute %q", r.name, a)
		}
		idx[i] = j
	}
	counts := make(map[string]int)
	keyOf := func(i int) string {
		var kb []byte
		for _, j := range idx {
			v := r.cols[j][i]
			for s := 0; s < 8; s++ {
				kb = append(kb, byte(v>>(8*s)))
			}
		}
		return string(kb)
	}
	for i := 0; i < r.n; i++ {
		counts[keyOf(i)]++
	}
	hcols := make([][]Value, r.Arity())
	lcols := make([][]Value, r.Arity())
	for i := 0; i < r.n; i++ {
		dst := &lcols
		if counts[keyOf(i)] > threshold {
			dst = &hcols
		}
		for c := range *dst {
			(*dst)[c] = append((*dst)[c], r.cols[c][i])
		}
	}
	heavy = FromColumns(r.name+"ᴴ", r.attrs, hcols)
	light = FromColumns(r.name+"ᴸ", r.attrs, lcols)
	return heavy, light, nil
}

func sameSchema(r, s *Relation) error {
	if r.Arity() != s.Arity() {
		return fmt.Errorf("relation: schema mismatch: %v vs %v", r.attrs, s.attrs)
	}
	for j, a := range r.attrs {
		if s.attrs[j] != a {
			return fmt.Errorf("relation: schema mismatch: %v vs %v", r.attrs, s.attrs)
		}
	}
	return nil
}

func sharedAttrs(r, s *Relation) []string {
	var out []string
	for _, a := range r.attrs {
		if s.HasAttr(a) {
			out = append(out, a)
		}
	}
	return out
}
