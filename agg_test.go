package wcoj

// Equivalence and acceptance tests for the aggregate-aware execution
// mode: Count / Exists / Options.Project must agree byte-for-byte with
// enumerate-then-aggregate on every workload, for both WCOJ
// algorithms, serial and sharded, under every planner policy. That the
// two algorithms agree with each other — tuple for tuple and counter
// for counter — is stated once, in strategy_test.go. Run with -race in
// CI.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/baseline"
	"wcoj/internal/dataset"
)

// aggWorkload is one equivalence fixture.
type aggWorkload struct {
	name string
	q    *Query
}

func aggWorkloads(t testing.TB) []aggWorkload {
	t.Helper()
	mk := func(src string, rels ...*Relation) *Query {
		db := NewDatabase()
		for _, r := range rels {
			db.Put(r)
		}
		q, err := MustParse(src).Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	tri := dataset.TriangleAGMTight(900)
	skew := dataset.TriangleSkew(400)
	g := dataset.RandomGraph(300, 2400, 13)
	star := dataset.SkewedStar(2000, 8, 300)
	return []aggWorkload{
		{"triangle-agm", mk("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", tri.R, tri.S, tri.T)},
		{"triangle-skew", mk("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", skew.R, skew.S, skew.T)},
		{"clique4", mk("Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)", g)},
		{"path4", mk("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)", g)},
		{"skewed-star", mk("Q(A,B,C) :- R(A,B), S(B,C)", star.R, star.S)},
	}
}

// aggVariant is one point of the grid every aggregate result must be
// identical across, with its subtest name.
type aggVariant struct {
	name string
	opts Options
}

// aggVariants enumerates the algorithm-name/planner/parallelism grid.
// "heuristic" is PlannerAuto without an Order.
func aggVariants() []aggVariant {
	var out []aggVariant
	for _, a := range algoAxis {
		for _, pl := range []struct {
			name string
			pl   Planner
		}{{"heuristic", PlannerAuto}, {"cost-based", PlannerCostBased}} {
			for _, par := range []int{1, 4} {
				out = append(out, aggVariant{
					name: fmt.Sprintf("%s/%s/p=%d", a.name, pl.name, par),
					opts: Options{Algorithm: a.algo, Planner: pl.pl, Parallelism: par},
				})
			}
		}
	}
	return out
}

// TestCountEquivalence: the pushdown Count == the enumerating Count
// (DisablePushdown) == len(Execute) on every workload and variant.
func TestCountEquivalence(t *testing.T) {
	for _, wl := range aggWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			out, _, err := Execute(wl.q, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := out.Len()
			for _, v := range aggVariants() {
				o := v.opts
				t.Run(v.name, func(t *testing.T) {
					enum := o
					enum.DisablePushdown = true
					slow, _, err := Count(wl.q, enum)
					if err != nil {
						t.Fatal(err)
					}
					if slow != want {
						t.Fatalf("Count(DisablePushdown) = %d, want %d", slow, want)
					}
					fast, stats, err := Count(wl.q, o)
					if err != nil {
						t.Fatal(err)
					}
					if fast != want {
						t.Fatalf("Count = %d, want %d", fast, want)
					}
					if stats.Output != want {
						t.Fatalf("stats.Output = %d, want %d", stats.Output, want)
					}
				})
			}
		})
	}
}

// TestCountSkipsEnumeration is the acceptance check behind the
// >=10x speedup claim, stated machine-independently: on the AGM-tight
// triangle the enumerating count (Options.DisablePushdown) explores
// ~k^3 search nodes while the default pushdown Count stops at the
// ~k^2 bound levels, so its recursion count must be at least 10x
// smaller (it is ~100x at k=100).
func TestCountSkipsEnumeration(t *testing.T) {
	tri := dataset.TriangleAGMTight(10000)
	db := NewDatabase()
	db.Put(tri.R)
	db.Put(tri.S)
	db.Put(tri.T)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	slow, slowStats, err := Count(q, Options{Parallelism: 1, DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	fast, fastStats, err := Count(q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Fatalf("Count = %d, Count(DisablePushdown) = %d", fast, slow)
	}
	if fastStats.Recursions*10 > slowStats.Recursions {
		t.Errorf("pushdown Count explored %d nodes, enumerating Count %d — want >=10x reduction",
			fastStats.Recursions, slowStats.Recursions)
	}
	if fastStats.AggMultiplies == 0 {
		t.Error("no free-counted shortcuts taken")
	}
}

// TestExistsEquivalence: Exists == (Count > 0), including on empty
// joins, and it must not enumerate the full result.
func TestExistsEquivalence(t *testing.T) {
	workloads := aggWorkloads(t)
	// An empty join: T has no tuples.
	db := NewDatabase()
	db.Put(NewRelation("R", []string{"A", "B"}, []Tuple{{1, 2}}))
	db.Put(NewRelation("S", []string{"B", "C"}, []Tuple{{2, 3}}))
	db.Put(NewRelation("T", []string{"A", "C"}, []Tuple{{7, 9}}))
	empty, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, aggWorkload{"empty", empty})
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			n, _, err := Count(wl.q, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := n > 0
			for _, v := range aggVariants() {
				o := v.opts
				got, stats, err := Exists(wl.q, o)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if got != want {
					t.Fatalf("%s: Exists = %v, want %v", v.name, got, want)
				}
				if want && o.Parallelism == 1 && stats.Recursions > n && n > 100 {
					t.Errorf("%s: Exists explored %d nodes for a %d-tuple result — no short-circuit",
						v.name, stats.Recursions, n)
				}
			}
		})
	}
}

// TestProjectEquivalence: Execute/Count with Options.Project must
// agree with materialize-then-project, for every projection shape.
func TestProjectEquivalence(t *testing.T) {
	for _, wl := range aggWorkloads(t) {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			full, _, err := Execute(wl.q, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			// All prefixes, suffixes, and a reordered pair.
			var projections [][]string
			vars := wl.q.Vars
			for i := 1; i < len(vars); i++ {
				projections = append(projections, vars[:i], vars[i:])
			}
			projections = append(projections, []string{vars[len(vars)-1], vars[0]})
			for _, proj := range projections {
				want, err := full.Project(proj...)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range aggVariants() {
					o := v.opts
					o.Project = proj
					got, _, err := Execute(wl.q, o)
					if err != nil {
						t.Fatalf("%s/%v: %v", v.name, proj, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: project %v: got %d tuples, want %d (or content differs)",
							v.name, proj, got.Len(), want.Len())
					}
					n, _, err := Count(wl.q, o)
					if err != nil {
						t.Fatal(err)
					}
					if n != want.Len() {
						t.Fatalf("%s: projected Count = %d, want %d", v.name, n, want.Len())
					}
				}
			}
		})
	}
}

// TestProjectExplicitOrderSinks: an explicit order that interleaves
// projected-away variables is sunk, not rejected, and stays correct
// (for both algorithms: strategy_test.go runs the same shape).
func TestProjectExplicitOrderSinks(t *testing.T) {
	g := dataset.RandomGraph(200, 1200, 5)
	db := NewDatabase()
	db.Put(g)
	q, err := MustParse("Q(A,B,C) :- E(A,B), E(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Execute(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Project("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Execute(q, Options{
		Order:   []string{"B", "A", "C"}, // B is projected away: sunk to the end
		Project: []string{"A", "C"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("explicit-order projection diverges")
	}
}

// TestProjectBaselineFallback: the binary-join baselines' full results,
// projected after the fact, equal the search's pushed-down projection.
func TestProjectBaselineFallback(t *testing.T) {
	tri := dataset.TriangleAGMTight(400)
	db := NewDatabase()
	db.Put(tri.R)
	db.Put(tri.S)
	db.Put(tri.T)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Execute(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Project("B")
	if err != nil {
		t.Fatal(err)
	}
	pushed, _, err := Execute(q, Options{Project: []string{"B"}})
	if err != nil {
		t.Fatal(err)
	}
	if !pushed.Equal(want) {
		t.Fatal("pushed-down projection diverges from the projected full result")
	}
	for name, join := range map[string]func(*Query, []string, []int) (*Relation, *Stats, error){
		"binary-join": baseline.JoinOnly, "binary-join-project": baseline.JoinProject,
	} {
		out, _, err := join(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.Project("B")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(pushed) {
			t.Fatalf("%s: projected baseline diverges", name)
		}
	}
}

// TestProjectStreaming: ExecuteFunc with a projection streams exactly
// the distinct projected tuples (the same set Execute materializes),
// and the emit sequence is identical between a serial and a sharded
// run of the same plan.
func TestProjectStreaming(t *testing.T) {
	star := dataset.SkewedStar(500, 6, 100)
	db := NewDatabase()
	db.Put(star.R)
	db.Put(star.S)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(o Options) []Tuple {
		t.Helper()
		var got []Tuple
		stats, err := ExecuteFunc(q, o, func(t Tuple) error {
			cp := make(Tuple, len(t))
			copy(cp, t)
			got = append(got, cp)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Output != len(got) {
			t.Fatalf("%v/p=%d: stats.Output = %d, streamed %d", o.Planner, o.Parallelism, stats.Output, len(got))
		}
		return got
	}
	for _, pl := range []Planner{PlannerAuto, PlannerCostBased} {
		serial := Options{Planner: pl, Parallelism: 1, Project: []string{"A", "C"}}
		sharded := serial
		sharded.Parallelism = 4
		want, _, err := Execute(q, serial)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(serial)
		// The streamed set equals the materialized set (the builder
		// re-sorts, so compare via a rebuilt relation).
		rebuilt := NewRelationBuilder(want.Name(), "A", "C")
		for _, tp := range got {
			if err := rebuilt.Add(tp...); err != nil {
				t.Fatal(err)
			}
		}
		if rel := rebuilt.Build(); !rel.Equal(want) || rel.Len() != len(got) {
			t.Fatalf("%v: streamed set diverges from Execute (%d streamed, %d materialized)",
				pl, len(got), want.Len())
		}
		// A sharded run replays chunks in order: identical sequence.
		got4 := collect(sharded)
		if len(got4) != len(got) {
			t.Fatalf("%v: sharded streamed %d tuples, serial %d", pl, len(got4), len(got))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != got4[i][j] {
					t.Fatalf("%v: sharded sequence diverges at tuple %d: %v vs %v",
						pl, i, got4[i], got[i])
				}
			}
		}
	}
}

// TestCountProjectedCountsDistinct: the projected count is the
// number of distinct projected tuples, not the full multiplicity.
func TestCountProjectedCountsDistinct(t *testing.T) {
	star := dataset.SkewedStar(100, 50, 0)
	db := NewDatabase()
	db.Put(star.R)
	db.Put(star.S)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	fullCount, _, err := Count(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fullCount != 100*50 {
		t.Fatalf("full count = %d, want %d", fullCount, 100*50)
	}
	// Projected to A there are only the 100 spokes.
	n, _, err := Count(q, Options{Project: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("distinct A count = %d, want 100", n)
	}
}

// TestCountBowtieMemo: the subtree memo pays below a separator. In the
// bow-tie — two triangles sharing A — under [A B C D F], the second
// triangle's atoms hold neither B nor C, so once A is bound the count
// below D is the same for every (B, C): it is served from the memo.
// Hits depend on A alone, and the sharded runner splits A values
// between chunks, so p=1 and p=2 make the same hits.
func TestCountBowtieMemo(t *testing.T) {
	db := NewDatabase()
	db.Put(dataset.PowerLawGraph(200, 1000, 1.6, 21))
	q, err := MustParse("Q(A,B,C,D,F) :- E(A,B), E(B,C), E(A,C), E(A,D), E(D,F), E(A,F)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"A", "B", "C", "D", "F"}
	slow, _, err := Count(q, Options{Order: order, DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	n1, st1, err := Count(q, Options{Order: order, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	n2, st2, err := Count(q, Options{Order: order, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != slow || n2 != slow {
		t.Errorf("Count = %d (p=1), %d (p=2); DisablePushdown count %d", n1, n2, slow)
	}
	// The hit count is pinned: the separator rule only stops
	// probes that cannot hit, so it must not lose one.
	const wantHits = 1856
	if st1.AggMemoHits != wantHits || st2.AggMemoHits != wantHits {
		t.Errorf("memo hits %d (p=1), %d (p=2); want %d", st1.AggMemoHits, st2.AggMemoHits, wantHits)
	}
}

// TestCountFallbacks: backtracking counts and existence-checks through
// the same pushdown plans, under its constraints' order.
func TestCountFallbacks(t *testing.T) {
	tri := dataset.TriangleAGMTight(400)
	db := NewDatabase()
	db.Put(tri.R)
	db.Put(tri.S)
	db.Put(tri.T)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Count(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoBacktracking} {
		n, _, err := Count(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("%v: Count fallback = %d, want %d", algo, n, want)
		}
		found, _, err := Exists(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("%v: Exists fallback = false on a non-empty join", algo)
		}
	}
}

// TestExplainCountClassification: Explain's count plan reports the
// sunk order and the level classification.
func TestExplainCountClassification(t *testing.T) {
	g := dataset.RandomGraph(200, 1200, 5)
	db := NewDatabase()
	db.Put(g)
	q, err := MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []Planner{PlannerAuto, PlannerCostBased} {
		full, err := Explain(q, Options{Planner: pl})
		if err != nil {
			t.Fatal(err)
		}
		e := full.Count
		if e.AggMode != "count" {
			t.Fatalf("%v: AggMode = %q, want count", pl, e.AggMode)
		}
		if len(e.Classes) != 4 {
			t.Fatalf("%v: Classes = %v, want 4 entries", pl, e.Classes)
		}
		// A and D are single-atom: they must be sunk and free-counted.
		if e.CountFrom != 2 {
			t.Fatalf("%v: CountFrom = %d (order %v), want 2", pl, e.CountFrom, e.Order)
		}
		for d := 2; d < 4; d++ {
			if e.Classes[d] != ClassFreeCounted {
				t.Fatalf("%v: Classes[%d] = %v, want free-counted", pl, d, e.Classes[d])
			}
			if v := e.Order[d]; v != "A" && v != "D" {
				t.Fatalf("%v: sunk suffix holds %q, want A/D", pl, v)
			}
		}
		if s := e.String(); s == "" {
			t.Fatal("empty String rendering")
		}
	}
	// Projection explain: enumerate mode with free-output prefix.
	e, err := Explain(q, Options{Project: []string{"A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if e.AggMode != "enumerate" {
		t.Fatalf("AggMode = %q, want enumerate", e.AggMode)
	}
	if e.Classes[0] != ClassFreeOutput || e.Classes[1] != ClassFreeOutput {
		t.Fatalf("Classes = %v, want free-output prefix", e.Classes)
	}

	// Memo levels: the bound levels below a separator. A triangle has
	// none; the bow-tie's is D, where the second triangle's atoms hold
	// neither B nor C.
	for _, tc := range []struct {
		src   string
		order []string
		memo  []bool
		shown string
	}{
		{"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", []string{"A", "B", "C"},
			[]bool{false, false, false}, ""},
		{"Q(A,B,C,D,F) :- E(A,B), E(B,C), E(A,C), E(A,D), E(D,F), E(A,F)", []string{"A", "B", "C", "D", "F"},
			[]bool{false, false, false, true, false}, "memo=[D]"},
	} {
		q, err := MustParse(tc.src).Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Explain(q, Options{Order: tc.order})
		if err != nil {
			t.Fatal(err)
		}
		if e := full.Count; !reflect.DeepEqual(e.MemoDepths, tc.memo) {
			t.Errorf("%s: MemoDepths = %v, want %v", tc.src, e.MemoDepths, tc.memo)
		}
		s := full.Count.String()
		if tc.shown == "" && strings.Contains(s, "memo=") || !strings.Contains(s, tc.shown) {
			t.Errorf("%s: String() = %q, want memo levels %q", tc.src, s, tc.shown)
		}
	}
}

// TestCountOverflow: a count that exceeds int64 returns
// ErrCountOverflow instead of a silently wrapped number, serial and
// sharded. The cross product of five 100k-value unary relations is
// 10^25 in one product. The 6-star Q(A,B,…,G) :- R1(A,B), …, R6(A,G),
// with 1024 values per A value in every atom, gives each A value 2^60
// results: 16 A values sum to 2^64 and 17 to 2^64 + 2^60, which an
// unchecked int64 sum of the shards' counts wraps to 0 and 2^60.
// (strategy_test.go holds EXISTS and projections to the same errors.)
func TestCountOverflow(t *testing.T) {
	db := NewDatabase()
	for _, name := range []string{"R1", "R2", "R3", "R4", "R5"} {
		b := NewRelationBuilder(name, "x")
		for v := 0; v < 100000; v++ {
			if err := b.Add(Value(v)); err != nil {
				t.Fatal(err)
			}
		}
		db.Put(b.Build())
	}
	q, err := MustParse("Q(A,B,C,D,E) :- R1(A), R2(B), R3(C), R4(D), R5(E)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Query{"10^25 product": q}
	for _, as := range []int{16, 17} {
		db := NewDatabase()
		for i := 1; i <= 6; i++ {
			b := NewRelationBuilder(fmt.Sprintf("R%d", i), "a", "x")
			for a := 0; a < as; a++ {
				for x := 0; x < 1024; x++ {
					if err := b.Add(Value(a), Value(x)); err != nil {
						t.Fatal(err)
					}
				}
			}
			db.Put(b.Build())
		}
		q, err := MustParse("Q(A,B,C,D,E,F,G) :- R1(A,B), R2(A,C), R3(A,D), R4(A,E), R5(A,F), R6(A,G)").Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("%d×2^60 sum", as)] = q
	}
	for name, q := range cases {
		for _, par := range []int{1, 2, 4} {
			n, _, err := Count(q, Options{Parallelism: par})
			if !errors.Is(err, agg.ErrCountOverflow) {
				t.Fatalf("%s, p=%d: count returned %d, %v, want ErrCountOverflow", name, par, n, err)
			}
			// The overflow must not break EXISTS: capped at 1, its counts
			// saturate instead.
			found, _, err := Exists(q, Options{Parallelism: par})
			if err != nil || !found {
				t.Fatalf("%s, p=%d: Exists = %v, %v on a non-empty join", name, par, found, err)
			}
		}
	}
}

// TestProjectValidation: bad projections are rejected up front.
func TestProjectValidation(t *testing.T) {
	tri := dataset.TriangleAGMTight(100)
	db := NewDatabase()
	db.Put(tri.R)
	db.Put(tri.S)
	db.Put(tri.T)
	q, err := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, proj := range [][]string{{}, {"A", "A"}, {"X"}} {
		if _, _, err := Execute(q, Options{Project: proj}); err == nil {
			t.Errorf("Execute accepted Project=%v", proj)
		}
		if _, _, err := Count(q, Options{Project: proj}); err == nil {
			t.Errorf("Count accepted Project=%v", proj)
		}
		if _, err := Explain(q, Options{Project: proj}); err == nil {
			t.Errorf("Explain accepted Project=%v", proj)
		}
		if _, _, err := Exists(q, Options{Project: proj}); err == nil {
			t.Errorf("Exists accepted Project=%v", proj)
		}
	}
}
