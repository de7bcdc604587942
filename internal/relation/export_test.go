package relation

// DegreeMemoLen reports how many degree statistics r has memoized.
func DegreeMemoLen(r *Relation) int {
	r.degMu.Lock()
	defer r.degMu.Unlock()
	return len(r.degs)
}

// SetDegree overwrites r's memoized deg(y|x), so a test can tell a memo
// hit from a measurement by the value it reads back.
func SetDegree(r *Relation, x, y uint64, d int) {
	r.Degree(x, y)
	r.degMu.Lock()
	r.degs[degKey{x, y}] = d
	r.degMu.Unlock()
}
