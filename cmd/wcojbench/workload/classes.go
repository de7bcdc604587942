package workload

import (
	"encoding/json"
	"fmt"
)

// Mode is what a query class asks for.
type Mode int

const (
	Count  Mode = iota // exact answer count
	Exists             // any answer at all
	Rows               // the answers themselves, up to Limit
)

// Class is one query shape a workload sends: the body of a
// POST /query. Rel is the relation it reads, so a write workload knows
// which answers its own updates move.
type Class struct {
	Name    string
	Rel     string
	Query   string
	Algo    string // "" leaves the server default (generic-join)
	Planner string // "" leaves the server default (auto)
	Mode    Mode
	Limit   int
	// AnswerOf names the class whose oracle answer this one shares
	// ("" = its own name): fresh_text queries are renamings.
	AnswerOf string
}

const (
	triangle = "Q(A,B,C) :- %[1]s(A,B), %[1]s(B,C), %[1]s(A,C)"
	clique4  = "Q(A,B,C,D) :- %[1]s(A,B), %[1]s(A,C), %[1]s(A,D), %[1]s(B,C), %[1]s(B,D), %[1]s(C,D)"
	cycle4   = "Q(A,B,C,D) :- %[1]s(A,B), %[1]s(B,C), %[1]s(C,D), %[1]s(D,A)"
	path4    = "Q(A,B,C,D) :- %[1]s(A,B), %[1]s(B,C), %[1]s(C,D)"
	cycle2   = "Q(A,B) :- %[1]s(A,B), %[1]s(B,A)"
	triRST   = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	star     = "Q(A,B,C) :- SR(A,B), SS(B,C)"
)

// Classes is every named query class, by name.
var Classes = func() map[string]Class {
	m := map[string]Class{}
	for _, c := range []Class{
		{Name: "tri_agm_gj", Rel: "RST", Query: triRST, Algo: "generic-join"},
		{Name: "tri_agm_lftj", Rel: "RST", Query: triRST, Algo: "leapfrog-triejoin"},
		{Name: "tri_pl", Rel: "E", Query: fmt.Sprintf(triangle, "E")},
		{Name: "tri_plw", Rel: "Ew", Query: fmt.Sprintf(triangle, "Ew")},
		{Name: "clique4", Rel: "G", Query: fmt.Sprintf(clique4, "G")},
		{Name: "cycle4", Rel: "E", Query: fmt.Sprintf(cycle4, "E")},
		{Name: "path4", Rel: "G", Query: fmt.Sprintf(path4, "G")},
		{Name: "tri_pl_rows", Rel: "E", Query: fmt.Sprintf(triangle, "E"), Mode: Rows, Limit: 100000},
		{Name: "tri_exists", Rel: "E", Query: fmt.Sprintf(triangle, "E"), Mode: Exists},
		{Name: "star_count", Rel: "Star", Query: star},
		{Name: "cycle2_count", Rel: "E", Query: fmt.Sprintf(cycle2, "E")},
		{Name: "tri_limit10", Rel: "G", Query: fmt.Sprintf(triangle, "G"), Mode: Rows, Limit: 10},
	} {
		m[c.Name] = c
	}
	return m
}()

func classList(names ...string) []Class {
	out := make([]Class, len(names))
	for i, n := range names {
		c, ok := Classes[n]
		if !ok {
			panic("workload: unknown class " + n)
		}
		out[i] = c
	}
	return out
}

// The class mixes of the four workloads. ReadHeavy and MixedRead are
// cycled in order; both list tri_pl twice, which makes the number of
// slots odd, so that the median latency of the mix falls inside a
// class (tri_pl) and not between two classes a factor of two apart,
// where it would swing with every run.
var (
	ReadHeavy = classList("tri_agm_gj", "tri_agm_lftj", "tri_pl", "tri_plw", "clique4", "cycle4", "path4", "tri_pl", "tri_pl_rows")
	ReadShort = classList("tri_exists", "star_count", "cycle2_count", "tri_limit10")
	MixedRead = classList("tri_pl", "cycle2_count", "tri_pl", "tri_exists", "clique4")
	// WriteCheck is the fresh /query a write-heavy client interleaves
	// with its batches: it must agree with the maintained view m0.
	WriteCheck = Classes["tri_pl"]
)

// FreshText returns the id-th fresh_text query: a G triangle or
// 4-path whose variable names were never sent before, so the server's
// plan cache misses and it must parse, gather planner statistics and
// plan (cost-based, so stats.ForPlanner and the planner really run).
func FreshText(id int) Class {
	v := func(s string) string { return fmt.Sprintf("%s%d", s, id) }
	c := Class{Name: "fresh_text", Rel: "G", Planner: "cost-based"}
	if id%2 == 0 {
		c.AnswerOf = "tri_g"
		c.Query = fmt.Sprintf("Q(%[1]s,%[2]s,%[3]s) :- G(%[1]s,%[2]s), G(%[2]s,%[3]s), G(%[1]s,%[3]s)", v("U"), v("V"), v("W"))
	} else {
		c.AnswerOf = "path4"
		c.Query = fmt.Sprintf("Q(%[1]s,%[2]s,%[3]s,%[4]s) :- G(%[1]s,%[2]s), G(%[2]s,%[3]s), G(%[3]s,%[4]s)", v("U"), v("V"), v("W"), v("X"))
	}
	return c
}

// Body is the POST /query request body for the class.
func (c Class) Body() []byte {
	req := map[string]any{"query": c.Query}
	if c.Algo != "" {
		req["algo"] = c.Algo
	}
	if c.Planner != "" {
		req["planner"] = c.Planner
	}
	switch c.Mode {
	case Count:
		req["count"] = true
	case Exists:
		req["exists"] = true
	case Rows:
		req["limit"] = c.Limit
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings, bools and ints always marshal
	}
	return b
}

// Response is the part of wcojd's POST /query reply the benchmark
// reads.
type Response struct {
	Count     int       `json:"count"`
	Exists    *bool     `json:"exists"`
	Attrs     []string  `json:"attrs"`
	Rows      [][]int64 `json:"rows"`
	Truncated bool      `json:"truncated"`
	ElapsedUS int64     `json:"elapsed_us"`
}

// Expect is an oracle answer: the exact count and, for Rows classes
// that return everything, an order-independent checksum of the rows.
type Expect struct {
	Count  int
	RowSum uint64
}

func mix3(a, b, c int64) uint64 {
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// Oracle holds the graphs and the expected answer of every class on
// the generated (not yet updated) data.
type Oracle struct {
	Graphs map[string]*Graph
	static map[string]Expect
}

// NewOracle computes every expected answer for d.
func NewOracle(d *Data) *Oracle {
	gs := map[string]*Graph{}
	for name, edges := range d.Rels {
		gs[name] = NewGraph(edges)
	}
	e, ew, g := gs["E"], gs["Ew"], gs["G"]
	triE := Expect{}
	e.EachTriangle(func(a, b, c int64) {
		triE.Count++
		triE.RowSum += mix3(a, b, c)
	})
	agm := Triangles(gs["R"], gs["S"], gs["T"])
	triG := Triangles(g, g, g)
	o := &Oracle{Graphs: gs, static: map[string]Expect{
		"tri_agm_gj":   {Count: agm},
		"tri_agm_lftj": {Count: agm},
		"tri_pl":       {Count: triE.Count},
		"tri_plw":      {Count: Triangles(ew, ew, ew)},
		"clique4":      {Count: g.Clique4()},
		"cycle4":       {Count: e.Cycle4()},
		"path4":        {Count: g.Path4()},
		"tri_pl_rows":  triE,
		"tri_exists":   {Count: triE.Count},
		"star_count":   {Count: Star(gs["SR"], gs["SS"])},
		"cycle2_count": {Count: e.Cycle2()},
		"tri_limit10":  {Count: triG},
		"tri_g":        {Count: triG},
	}}
	return o
}

// Expect returns the answer of c on the generated data.
func (o *Oracle) Expect(c Class) Expect {
	if c.AnswerOf != "" {
		return o.static[c.AnswerOf]
	}
	return o.static[c.Name]
}

// Verify checks one reply against the oracle answer want. g is the
// current state of the relation the class reads; it is consulted only
// for limited Rows classes, whose rows can be any subset of the
// answers and are checked one by one.
func Verify(c Class, r *Response, want Expect, g *Graph) error {
	switch c.Mode {
	case Count:
		if r.Count != want.Count {
			return fmt.Errorf("%s: count %d, oracle %d", c.Name, r.Count, want.Count)
		}
	case Exists:
		if r.Exists == nil || *r.Exists != (want.Count > 0) {
			return fmt.Errorf("%s: exists %v, oracle count %d", c.Name, r.Exists, want.Count)
		}
	case Rows:
		n := want.Count
		if n > c.Limit {
			n = c.Limit
		}
		if r.Count != n || len(r.Rows) != n {
			return fmt.Errorf("%s: %d rows (count %d), oracle %d", c.Name, len(r.Rows), r.Count, n)
		}
		var sum uint64
		seen := make(map[[3]int64]struct{}, n)
		for _, row := range r.Rows {
			if len(row) != 3 {
				return fmt.Errorf("%s: row %v is not a triple", c.Name, row)
			}
			a, b, cc := row[0], row[1], row[2]
			if !g.Has(Edge{a, b}) || !g.Has(Edge{b, cc}) || !g.Has(Edge{a, cc}) {
				return fmt.Errorf("%s: row %v is not a triangle", c.Name, row)
			}
			seen[[3]int64{a, b, cc}] = struct{}{}
			sum += mix3(a, b, cc)
		}
		if len(seen) != n {
			return fmt.Errorf("%s: %d distinct rows of %d", c.Name, len(seen), n)
		}
		if n == want.Count && want.RowSum != 0 && sum != want.RowSum {
			return fmt.Errorf("%s: row checksum %x, oracle %x", c.Name, sum, want.RowSum)
		}
	}
	return nil
}
