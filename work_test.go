package wcoj

// Exact work, checked in. The survey states Generic-Join's guarantee in
// work, not time: the search nodes it visits and the values its level
// intersections produce (the unit of analysis (19)). core.Stats counts
// both exactly, so unlike ns/op they read the same on every machine and
// every run. TestWork recomputes a fixed set of rows on the benchmark's
// data and compares them with BENCH_work.json at the repo root; a
// change that alters the work of any row fails here until the file is
// rewritten with
//
//	go test -run TestWork . -update
//
// and committed, with each changed row explained.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"testing"

	"wcoj/internal/dataset"
)

var updateWork = flag.Bool("update", false, "rewrite "+workFile+" from the counters this tree computes")

const workFile = "BENCH_work.json"

const workNote = "Exact work of the search per (class, mode, p); see work_test.go. " +
	"Regenerate with `go test -run TestWork . -update` and explain every changed row in CHANGES.md."

// workData names the datasets the rows run on: seed 1 at the Bench
// scale of cmd/wcojbench's workload.Generate. Ew, the rewired E, is
// left out: its generator lives in the benchmark's own module.
const workData = "seed 1: E = PowerLawGraph(5000, 25000, 1.0, 1); G = RandomGraph(600, 12000, 3); " +
	"R,S,T = TriangleAGMTight(10000); SR,SS = SkewedStar(2500, 10, 125)"

// workDB registers workData's relations under the names wcojd serves
// them by in the benchmark.
func workDB(t *testing.T) *DB {
	t.Helper()
	const seed = 1
	tri := dataset.TriangleAGMTight(10000)
	star := dataset.SkewedStar(2500, 10, 125)
	var rels []*Relation
	for _, r := range []struct {
		name string
		rel  *Relation
	}{
		{"E", dataset.PowerLawGraph(5000, 25000, 1.0, seed)},
		{"G", dataset.RandomGraph(600, 12000, seed+2)},
		{"R", tri.R}, {"S", tri.S}, {"T", tri.T},
		{"SR", star.R}, {"SS", star.S},
	} {
		rel, err := r.rel.Rename(r.name, "src", "dst")
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	db := NewDB()
	if err := db.Register(rels...); err != nil {
		t.Fatal(err)
	}
	return db
}

// The benchmark's query shapes (cmd/wcojbench/workload/classes.go).
const (
	workTriangle = "Q(A,B,C) :- %[1]s(A,B), %[1]s(B,C), %[1]s(A,C)"
	workClique4  = "Q(A,B,C,D) :- G(A,B), G(A,C), G(A,D), G(B,C), G(B,D), G(C,D)"
	workCycle4   = "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)"
	workPath4    = "Q(A,B,C,D) :- G(A,B), G(B,C), G(C,D)"
	workCycle2   = "Q(A,B) :- E(A,B), E(B,A)"
	workTriRST   = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	workStar     = "Q(A,B,C) :- SR(A,B), SS(B,C)"
)

// workCase is one (class, mode) of the file, run at each of ps.
type workCase struct {
	class string
	// mode is "count", "count-nopushdown" (Count under
	// DisablePushdown: the enumeration, counted), "exists" or "rows"
	// (ExecuteFunc, stopped after limit tuples when limit > 0, as
	// wcojd stops a row reply).
	mode    string
	query   string
	project []string
	limit   int
	ps      []int
}

// stops reports whether the case's runs end before the search does. A
// sharded run that stops does as much work as its shards managed
// before they saw the stop, so only the answer of such a row is pinned
// at p > 1.
func (c workCase) stops() bool { return c.mode == "exists" || c.limit > 0 }

func workCases() []workCase {
	both := []int{1, 2}
	return []workCase{
		{class: "tri_agm", mode: "count", query: workTriRST, ps: both},
		{class: "tri_agm", mode: "count-nopushdown", query: workTriRST, ps: []int{1}},
		{class: "tri_pl", mode: "count", query: fmt.Sprintf(workTriangle, "E"), ps: both},
		{class: "clique4", mode: "count", query: workClique4, ps: both},
		{class: "cycle4", mode: "count", query: workCycle4, ps: both},
		{class: "path4", mode: "count", query: workPath4, ps: both},
		{class: "path4[A]", mode: "count", query: workPath4, project: []string{"A"}, ps: both},
		{class: "path4[B D]", mode: "count", query: workPath4, project: []string{"B", "D"}, ps: both},
		{class: "path4[A D]", mode: "count", query: workPath4, project: []string{"A", "D"}, ps: both},
		{class: "cycle2_count", mode: "count", query: workCycle2, ps: both},
		{class: "star_count", mode: "count", query: workStar, ps: both},
		{class: "tri_pl_rows", mode: "rows", query: fmt.Sprintf(workTriangle, "E"), ps: both},
		{class: "tri_exists", mode: "exists", query: fmt.Sprintf(workTriangle, "E"), ps: both},
		{class: "tri_limit10", mode: "rows", query: fmt.Sprintf(workTriangle, "G"), limit: 10, ps: both},
	}
}

// workRow is one line of the file. Answer is the count, Exists' result,
// or the FNV-64a hash of the emitted tuples in emit order. Work is nil
// where the counters depend on timing (see workCase.stops).
type workRow struct {
	Class  string     `json:"class"`
	Mode   string     `json:"mode"`
	P      int        `json:"p"`
	Order  []string   `json:"order"`
	Answer string     `json:"answer"`
	Work   *workStats `json:"work,omitempty"`
}

type workStats struct {
	Output          int `json:"output"`
	Recursions      int `json:"recursions"`
	IntersectValues int `json:"intersect_values"`
	AggMultiplies   int `json:"agg_multiplies"`
	AggMemoHits     int `json:"agg_memo_hits"`
}

type workFileJSON struct {
	Note string    `json:"note"`
	Data string    `json:"data"`
	Rows []workRow `json:"rows"`
}

func (r workRow) key() string { return fmt.Sprintf("%s/%s/p=%d", r.Class, r.Mode, r.P) }

var errWorkLimit = errors.New("row limit reached")

// runWork runs one case at parallelism p through a prepared query, the
// path wcojd serves it by.
func runWork(t *testing.T, db *DB, c workCase, p int) workRow {
	t.Helper()
	ctx := context.Background()
	opts := Options{Parallelism: p, Project: c.project, DisablePushdown: c.mode == "count-nopushdown"}
	pq, err := db.Prepare(c.query, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.class, err)
	}
	var (
		answer string
		stats  *Stats
		mode   planMode
	)
	switch c.mode {
	case "count", "count-nopushdown":
		var n int
		n, stats, err = pq.Count(ctx)
		answer = strconv.Itoa(n)
		mode = planCount
		if opts.DisablePushdown {
			mode = planEnum
		}
	case "exists":
		var found bool
		found, stats, err = pq.Exists(ctx)
		answer = strconv.FormatBool(found)
		mode = planExists
	case "rows":
		h := fnv.New64a()
		var buf [8]byte
		emitted := 0
		stats, err = pq.ExecuteFunc(ctx, func(tu Tuple) error {
			if c.limit > 0 && emitted == c.limit {
				return errWorkLimit
			}
			for _, v := range tu {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
			emitted++
			return nil
		})
		if errors.Is(err, errWorkLimit) {
			err = nil
		}
		answer = fmt.Sprintf("%d tuples, fnv64a %016x", emitted, h.Sum64())
		mode = planEnum
	default:
		t.Fatalf("%s: unknown mode %q", c.class, c.mode)
	}
	if err != nil {
		t.Fatalf("%s/%s/p=%d: %v", c.class, c.mode, p, err)
	}
	plan, _, err := pq.currentState().plan(mode)
	if err != nil {
		t.Fatal(err)
	}
	row := workRow{Class: c.class, Mode: c.mode, P: p, Order: plan.Order, Answer: answer}
	if p == 1 || !c.stops() {
		row.Work = &workStats{
			Output:          stats.Output,
			Recursions:      stats.Recursions,
			IntersectValues: stats.IntersectValues,
			AggMultiplies:   stats.AggMultiplies,
			AggMemoHits:     stats.AggMemoHits,
		}
	}
	return row
}

// encodeWork writes the file one row per line, so a changed row is one
// changed line in a diff.
func encodeWork(rows []workRow) []byte {
	var b bytes.Buffer
	head, _ := json.Marshal(workNote)
	data, _ := json.Marshal(workData)
	fmt.Fprintf(&b, "{\n  \"note\": %s,\n  \"data\": %s,\n  \"rows\": [\n", head, data)
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			panic(err) // strings, ints and slices of them always marshal
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

func TestWork(t *testing.T) {
	db := workDB(t)
	var rows []workRow
	byKey := map[string]workRow{}
	for _, c := range workCases() {
		for _, p := range c.ps {
			r := runWork(t, db, c, p)
			rows = append(rows, r)
			byKey[r.key()] = r
		}
	}

	// Parallelism changes how the work is split and where the per-chunk
	// memo hits, never the answer.
	for _, c := range workCases() {
		first := byKey[workRow{Class: c.class, Mode: c.mode, P: c.ps[0]}.key()]
		for _, p := range c.ps[1:] {
			if r := byKey[workRow{Class: c.class, Mode: c.mode, P: p}.key()]; r.Answer != first.Answer {
				t.Errorf("%s: answer %s, but %s at p=%d", r.key(), r.Answer, first.Answer, first.P)
			}
		}
	}

	// E12 (DESIGN.md §2): the COUNT pushdown searches at least ten
	// times fewer nodes than enumerating the AGM-tight triangle.
	push, enum := byKey["tri_agm/count/p=1"].Work, byKey["tri_agm/count-nopushdown/p=1"].Work
	if push.Recursions*10 > enum.Recursions {
		t.Errorf("tri_agm: pushdown Count visits %d nodes, enumeration %d: less than 10x fewer", push.Recursions, enum.Recursions)
	}

	got := encodeWork(rows)
	if *updateWork {
		if err := os.WriteFile(workFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d rows", workFile, len(rows))
		return
	}
	raw, err := os.ReadFile(workFile)
	if err != nil {
		t.Fatalf("%v (create it with `go test -run TestWork . -update`)", err)
	}
	var want workFileJSON
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", workFile, err)
	}
	seen := map[string]bool{}
	for _, w := range want.Rows {
		k := w.key()
		seen[k] = true
		g, ok := byKey[k]
		if !ok {
			t.Errorf("%s: in %s but no longer computed", k, workFile)
			continue
		}
		for _, d := range diffWork(w, g) {
			t.Errorf("%s: %s", k, d)
		}
	}
	for _, r := range rows {
		if !seen[r.key()] {
			t.Errorf("%s: computed but missing from %s", r.key(), workFile)
		}
	}
	if t.Failed() {
		t.Logf("if the change in work is intended, run `go test -run TestWork . -update` and explain each changed row in CHANGES.md")
	}
}

// diffWork lists each field of got that differs from want, as old → new.
func diffWork(want, got workRow) []string {
	var out []string
	field := func(name string, w, g any) {
		if fmt.Sprint(w) != fmt.Sprint(g) {
			out = append(out, fmt.Sprintf("%s %v → %v", name, w, g))
		}
	}
	field("order", want.Order, got.Order)
	field("answer", want.Answer, got.Answer)
	switch {
	case want.Work == nil && got.Work == nil:
	case want.Work == nil || got.Work == nil:
		field("work", want.Work, got.Work)
	default:
		w, g := *want.Work, *got.Work
		field("output", w.Output, g.Output)
		field("recursions", w.Recursions, g.Recursions)
		field("intersect_values", w.IntersectValues, g.IntersectValues)
		field("agg_multiplies", w.AggMultiplies, g.AggMultiplies)
		field("agg_memo_hits", w.AggMemoHits, g.AggMemoHits)
	}
	return out
}
