package relation

// HashIndex is a hash index over a subset of a relation's attributes.
// Probe returns the row positions whose key attributes equal the probe
// key; Contains is the membership-only variant. Keys are encoded as raw
// little-endian bytes of the key values.
type HashIndex struct {
	rel  *Relation
	cols []int
	rows map[string][]int32
}

// NewHashIndex builds a hash index over the named key attributes. It
// panics if a key attribute is missing from the schema (index creation
// is an internal, schema-checked step in this codebase).
func NewHashIndex(r *Relation, keyAttrs []string) *HashIndex {
	cols := make([]int, len(keyAttrs))
	for i, a := range keyAttrs {
		j := r.AttrIndex(a)
		if j < 0 {
			panic("relation: hash index on missing attribute " + a)
		}
		cols[i] = j
	}
	ix := &HashIndex{rel: r, cols: cols, rows: make(map[string][]int32, r.Len())}
	var kb []byte
	for i := 0; i < r.Len(); i++ {
		kb = kb[:0]
		for _, j := range cols {
			kb = appendValue(kb, r.cols[j][i])
		}
		k := string(kb)
		ix.rows[k] = append(ix.rows[k], int32(i))
	}
	return ix
}

// Probe returns the row positions matching key, or nil.
func (ix *HashIndex) Probe(key Tuple) []int32 {
	return ix.rows[encodeKey(key)]
}

// Contains reports whether any row matches key.
func (ix *HashIndex) Contains(key Tuple) bool {
	_, ok := ix.rows[encodeKey(key)]
	return ok
}

// Relation returns the indexed relation.
func (ix *HashIndex) Relation() *Relation { return ix.rel }

func appendValue(b []byte, v Value) []byte {
	for s := 0; s < 8; s++ {
		b = append(b, byte(v>>(8*s)))
	}
	return b
}

func encodeKey(key Tuple) string {
	b := make([]byte, 0, 8*len(key))
	for _, v := range key {
		b = appendValue(b, v)
	}
	return string(b)
}
