package workload

// Graph is the oracle's view of one binary relation: a mutable edge
// set with adjacency in both directions. Every expected answer the
// benchmark checks is computed here, by plain loops over hash sets —
// none of the engines, tries or planners under test is involved. All
// counts use conjunctive-query (homomorphism) semantics: variables
// need not be distinct vertices, exactly as the engine defines them.
type Graph struct {
	out, in map[int64]map[int64]struct{}
	n       int
}

// NewGraph indexes an edge list.
func NewGraph(edges []Edge) *Graph {
	g := &Graph{out: map[int64]map[int64]struct{}{}, in: map[int64]map[int64]struct{}{}}
	for _, e := range edges {
		g.Add(e)
	}
	return g
}

func link(m map[int64]map[int64]struct{}, a, b int64) {
	s := m[a]
	if s == nil {
		s = map[int64]struct{}{}
		m[a] = s
	}
	s[b] = struct{}{}
}

// Has reports whether the edge is present.
func (g *Graph) Has(e Edge) bool {
	_, ok := g.out[e[0]][e[1]]
	return ok
}

// Len is the number of edges.
func (g *Graph) Len() int { return g.n }

// Add inserts an edge; inserting a present edge is a no-op.
func (g *Graph) Add(e Edge) {
	if g.Has(e) {
		return
	}
	link(g.out, e[0], e[1])
	link(g.in, e[1], e[0])
	g.n++
}

// Remove deletes an edge; deleting an absent edge is a no-op.
func (g *Graph) Remove(e Edge) {
	if !g.Has(e) {
		return
	}
	delete(g.out[e[0]], e[1])
	delete(g.in[e[1]], e[0])
	g.n--
}

// common counts |a ∩ b| by probing the larger set with the smaller.
func common(a, b map[int64]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for v := range a {
		if _, ok := b[v]; ok {
			n++
		}
	}
	return n
}

// TrianglesThrough counts the answers of Q(A,B,C) :- E(A,B),E(B,C),E(A,C)
// that use edge e in at least one atom, with e present in g. Without
// self-loops no answer can use one edge in two atoms, so the three
// roles are disjoint and the sum is exact; that makes it the step of
// an incremental count: inserting e adds this many, deleting e removes
// this many.
func (g *Graph) TrianglesThrough(e Edge) int {
	u, v := e[0], e[1]
	return common(g.out[u], g.out[v]) + // e as E(A,B): C with (v,C),(u,C)
		common(g.in[u], g.in[v]) + // e as E(B,C): A with (A,u),(A,v)
		common(g.out[u], g.in[v]) // e as E(A,C): B with (u,B),(B,v)
}

// Triangles counts Q(A,B,C) :- R(A,B), S(B,C), T(A,C) with r, s, t
// bound to the three atoms (pass g three times for a self-join).
func Triangles(r, s, t *Graph) int {
	n := 0
	for a, bs := range r.out {
		for b := range bs {
			n += common(s.out[b], t.out[a])
		}
	}
	return n
}

// EachTriangle calls fn for every answer of the self-join triangle.
func (g *Graph) EachTriangle(fn func(a, b, c int64)) {
	for a, bs := range g.out {
		for b := range bs {
			for c := range g.out[b] {
				if _, ok := g.out[a][c]; ok {
					fn(a, b, c)
				}
			}
		}
	}
}

// Cycle2 counts Q(A,B) :- E(A,B), E(B,A).
func (g *Graph) Cycle2() int {
	n := 0
	for a, bs := range g.out {
		for b := range bs {
			if g.Has(Edge{b, a}) {
				n++
			}
		}
	}
	return n
}

// Cycle4 counts Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A): with
// P[a,c] the number of two-step paths a→·→c it is Σ P[a,c]·P[c,a].
func (g *Graph) Cycle4() int {
	paths := map[Edge]int{}
	for a, bs := range g.out {
		for b := range bs {
			for c := range g.out[b] {
				paths[Edge{a, c}]++
			}
		}
	}
	n := 0
	for ac, p := range paths {
		n += p * paths[Edge{ac[1], ac[0]}]
	}
	return n
}

// Path4 counts Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D).
func (g *Graph) Path4() int {
	n := 0
	for b, cs := range g.out {
		for c := range cs {
			n += len(g.in[b]) * len(g.out[c])
		}
	}
	return n
}

// Clique4 counts Q(A,B,C,D) :- E(A,B),E(A,C),E(A,D),E(B,C),E(B,D),E(C,D).
func (g *Graph) Clique4() int {
	n := 0
	for a, bs := range g.out {
		for b := range bs {
			for c := range g.out[b] {
				if _, ok := g.out[a][c]; !ok {
					continue
				}
				for d := range g.out[c] {
					if _, ok := g.out[a][d]; !ok {
						continue
					}
					if _, ok := g.out[b][d]; ok {
						n++
					}
				}
			}
		}
	}
	return n
}

// Star counts Q(A,B,C) :- R(A,B), S(B,C).
func Star(r, s *Graph) int {
	n := 0
	for _, bs := range r.out {
		for b := range bs {
			n += len(s.out[b])
		}
	}
	return n
}
