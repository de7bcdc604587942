package wcoj

// Benchmark harness: one benchmark per experiment row of DESIGN.md §2
// (E1–E9), plus the ablations DESIGN.md §3 calls out. The same
// workloads are runnable with human-readable tables via
// `go run ./cmd/experiments`.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"wcoj/internal/baseline"
	"wcoj/internal/bounds"
	"wcoj/internal/constraints"
	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/entropy"
	"wcoj/internal/hypergraph"
	"wcoj/internal/panda"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

func benchTriangleQuery(b *testing.B, tri dataset.Triangle) *core.Query {
	b.Helper()
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// benchSearch times run against one executor of q whose plan — order
// and tries, the latter from the given source — an untimed
// first run has built: the loop measures the search alone. (One-shot
// calls build their indexes per call; a row that wants that cost in
// calls Count/Execute directly.)
func benchSearch(b *testing.B, src core.TrieSource, q *core.Query, opts Options, run func(*executor) error) {
	b.Helper()
	e := newExecutor(q, src, opts, nil)
	if err := run(e); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCount is the benchSearch run that counts, checking the result
// when want >= 0.
func benchCount(want int) func(*executor) error {
	return func(e *executor) error {
		n, _, err := e.count(context.Background())
		if err == nil && want >= 0 && int(n) != want {
			err = fmt.Errorf("counted %d, want %d", n, want)
		}
		return err
	}
}

// BenchmarkTable1Bounds (E1): polymatroid-bound computation per
// constraint class of Table 1.
func BenchmarkTable1Bounds(b *testing.B) {
	tri := dataset.TriangleAGMTight(10000)
	q := benchTriangleQuery(b, tri)
	cardDC := constraints.Set{
		constraints.Cardinality("R", []string{"A", "B"}, 1e4),
		constraints.Cardinality("S", []string{"B", "C"}, 1e4),
		constraints.Cardinality("T", []string{"A", "C"}, 1e4),
	}
	fdDC := append(cardDC.Clone(), constraints.FD("R", []string{"A"}, []string{"B"}))
	genDC := append(cardDC.Clone(),
		constraints.Degree("R", []string{"A"}, []string{"A", "B"}, 100),
		constraints.Degree("S", []string{"B"}, []string{"B", "C"}, 100))
	for _, c := range []struct {
		name string
		dc   constraints.Set
	}{
		{"cardinality", cardDC}, {"cardinality+fd", fdDC}, {"general-dc", genDC},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bounds.Polymatroid(q.Vars, c.dc)
				if err != nil {
					b.Fatal(err)
				}
				if res.Infinite() {
					b.Fatal("unexpected infinite bound")
				}
			}
		})
	}
}

// BenchmarkTable2PANDA (E2): the Example 1 proof-sequence execution of
// Table 2 across scales.
func BenchmarkTable2PANDA(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		d := dataset.NewExample1(n, 4, 4, 0.4, 7)
		st := panda.Example1Stats{
			NAB: float64(d.R.Len()), NBC: float64(d.S.Len()), NCD: float64(d.T.Len()),
			NACDgAC: 4, NABDgBD: 4,
		}
		ps := panda.Example1Sequence(st)
		affil := panda.Affiliation{
			{S: 0b0011}:            d.R,
			{S: 0b0110}:            d.S,
			{S: 0b1100}:            d.T,
			{S: 0b1101, G: 0b0101}: d.W,
			{S: 0b1011, G: 0b1010}: d.V,
		}
		filters := []*relation.Relation{d.R, d.S, d.T, d.W, d.V}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, est, err := panda.Execute(ps, panda.Example1Vars, affil, filters)
				if err != nil {
					b.Fatal(err)
				}
				if float64(est.Intermediate) > st.RuntimeBound()+1 {
					b.Fatalf("intermediate %d exceeds bound %v", est.Intermediate, st.RuntimeBound())
				}
				_ = out
			}
		})
	}
}

// BenchmarkTriangle (E3): WCOJ vs binary join plans on AGM-tight and
// skewed triangle instances. The series shape is the paper's headline:
// Θ(N^{3/2}) vs Θ(N²).
func BenchmarkTriangle(b *testing.B) {
	for _, kind := range []string{"agm", "skew"} {
		for _, n := range []int{1000, 4000, 16000} {
			var tri dataset.Triangle
			if kind == "agm" {
				tri = dataset.TriangleAGMTight(n)
			} else {
				tri = dataset.TriangleSkew(n)
			}
			q := benchTriangleQuery(b, tri)
			memo := new(core.TrieMemo)
			enumerate := Options{Order: []string{"A", "B", "C"}, Parallelism: 1, DisablePushdown: true}
			b.Run(fmt.Sprintf("%s/n=%d/generic", kind, n), func(b *testing.B) {
				benchSearch(b, memo, q, enumerate, benchCount(-1))
			})
			b.Run(fmt.Sprintf("%s/n=%d/lftj", kind, n), func(b *testing.B) {
				lftj := enumerate
				lftj.Algorithm = AlgoLeapfrog
				benchSearch(b, memo, q, lftj, benchCount(-1))
			})
			if kind == "skew" && n > 4000 {
				continue // binary plan is quadratic; keep the suite fast
			}
			b.Run(fmt.Sprintf("%s/n=%d/binary", kind, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := baseline.JoinOnly(q, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTriangleHeavyLight (E4): Algorithm 2 vs Algorithm 1.
func BenchmarkTriangleHeavyLight(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		tri := dataset.TriangleSkew(n)
		q := benchTriangleQuery(b, tri)
		memo := new(core.TrieMemo)
		b.Run(fmt.Sprintf("n=%d/alg2", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.TriangleHeavyLight(tri.R, tri.S, tri.T); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/alg1", n), func(b *testing.B) {
			benchSearch(b, memo, q, Options{Order: []string{"A", "B", "C"}, Parallelism: 1}, func(e *executor) error {
				_, _, err := e.execute(context.Background())
				return err
			})
		})
	}
}

// BenchmarkLoomisWhitney (E5): WCOJ vs join-project on LW(k).
func BenchmarkLoomisWhitney(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		n := 4000
		if k >= 4 {
			n = 1000
		}
		rels := dataset.LoomisWhitney(k, n)
		var vars []string
		for j := 0; j < k; j++ {
			vars = append(vars, fmt.Sprintf("A%d", j))
		}
		var atoms []core.Atom
		for _, r := range rels {
			atoms = append(atoms, core.Atom{Name: r.Name(), Vars: r.Attrs(), Rel: r})
		}
		q, err := core.NewQuery(vars, atoms)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d/wcoj", k), func(b *testing.B) {
			benchSearch(b, new(core.TrieMemo), q,
				Options{Parallelism: 1, DisablePushdown: true}, benchCount(-1))
		})
		b.Run(fmt.Sprintf("k=%d/joinproject", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.JoinProject(q, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm3 (E6): backtracking search under acyclic degree
// constraints; the work tracks ∏ N^δ from LP (57).
func BenchmarkAlgorithm3(b *testing.B) {
	for _, deg := range []int{2, 4, 8} {
		c := dataset.NewChain63(400/(deg*deg), deg, deg, deg, 3)
		q, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
			{Name: "R", Vars: []string{"A"}, Rel: c.R},
			{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
			{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
			{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
		})
		if err != nil {
			b.Fatal(err)
		}
		dc := constraints.Set{
			constraints.Cardinality("R", []string{"A"}, float64(c.NA)),
			constraints.Degree("S", []string{"A"}, []string{"A", "B"}, float64(c.NBgA)),
			constraints.Degree("T", []string{"B"}, []string{"B", "C"}, float64(c.NCgB)),
			constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, float64(c.NADgC)),
		}
		acyclic, err := dc.MakeAcyclic(q.Vars)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Count(q, Options{Algorithm: AlgoBacktracking, Constraints: acyclic, Parallelism: 1, DisablePushdown: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundsLP (E7): modular vs polymatroid LP across widths —
// the poly-size vs 2^n-size contrast of Proposition 4.4 / Open
// Problem 2.
func BenchmarkBoundsLP(b *testing.B) {
	for _, nv := range []int{3, 5, 7} {
		vars := make([]string, nv)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i)
		}
		dc := constraints.Set{constraints.Cardinality("R0", vars[:1], 1000)}
		for i := 1; i < nv; i++ {
			dc = append(dc, constraints.Degree(fmt.Sprintf("R%d", i),
				[]string{vars[i-1]}, []string{vars[i-1], vars[i]}, 16))
		}
		b.Run(fmt.Sprintf("n=%d/modular", nv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bounds.Modular(vars, dc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/polymatroid", nv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bounds.Polymatroid(vars, dc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAcyclicRepair (E8): Proposition 5.2 repair of query (63).
func BenchmarkAcyclicRepair(b *testing.B) {
	dc := constraints.Set{
		constraints.Cardinality("R", []string{"A"}, 100),
		constraints.Degree("S", []string{"A"}, []string{"A", "B"}, 10),
		constraints.Degree("T", []string{"B"}, []string{"B", "C"}, 10),
		constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, 10),
	}
	vars := []string{"A", "B", "C", "D"}
	for i := 0; i < b.N; i++ {
		out, err := dc.MakeAcyclic(vars)
		if err != nil {
			b.Fatal(err)
		}
		if !out.IsAcyclic() {
			b.Fatal("repair failed")
		}
	}
}

// BenchmarkShearer (E9): LP verification of Shearer's inequality
// (Corollary 5.5) on the triangle and C4.
func BenchmarkShearer(b *testing.B) {
	cases := []struct {
		name  string
		h     *hypergraph.Hypergraph
		delta []float64
	}{
		{"triangle", hypergraph.LoomisWhitney(3), []float64{.5, .5, .5}},
		{"C4", hypergraph.Cycle(4), []float64{.5, .5, .5, .5}},
	}
	for _, c := range cases {
		masks := make([]uint32, c.h.NumEdges())
		for e, edge := range c.h.Edges() {
			m, err := entropy.MaskOf(edge.Vertices, c.h.Vertices())
			if err != nil {
				b.Fatal(err)
			}
			masks[e] = m
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := entropy.VerifyShearer(c.h.NumVertices(), masks, c.delta, 1e-6)
				if err != nil || !ok {
					b.Fatalf("shearer: %v %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkIntersect: ablation of the galloping vs merging sorted-set
// intersection (the Õ(min) assumption of Section 2).
func BenchmarkIntersect(b *testing.B) {
	big := make([]relation.Value, 1<<16)
	for i := range big {
		big[i] = relation.Value(2 * i)
	}
	small := make([]relation.Value, 1<<6)
	for i := range small {
		small[i] = relation.Value(1024 * i)
	}
	b.Run("gallop-unbalanced", func(b *testing.B) {
		var dst []relation.Value
		for i := 0; i < b.N; i++ {
			dst = relation.IntersectSorted(dst[:0], small, big)
		}
	})
	balanced := make([]relation.Value, 1<<16)
	for i := range balanced {
		balanced[i] = relation.Value(2*i + 1)
	}
	b.Run("merge-balanced", func(b *testing.B) {
		var dst []relation.Value
		for i := 0; i < b.N; i++ {
			dst = relation.IntersectSorted(dst[:0], balanced, big)
		}
	})
	// Leapfrog multiway intersection on three lists.
	third := make([]relation.Value, 1<<12)
	for i := range third {
		third[i] = relation.Value(16 * i)
	}
	b.Run("leapfrog-3way", func(b *testing.B) {
		ranges := []trie.LevelRange{
			{Keys: big, Lo: 0, Hi: len(big)},
			{Keys: third, Lo: 0, Hi: len(third)},
			{Keys: small, Lo: 0, Hi: len(small)},
		}
		var dst []relation.Value
		for i := 0; i < b.N; i++ {
			dst = trie.IntersectLevels(dst[:0], ranges)
		}
	})
	// Heavy skew: 64 keys against 100k — the regime where the binary
	// kernel gallops the small side through the large one instead of
	// merging (see gallopRatio in internal/trie).
	huge := make([]relation.Value, 100_000)
	for i := range huge {
		huge[i] = relation.Value(3 * i)
	}
	tiny := make([]relation.Value, 64)
	for i := range tiny {
		tiny[i] = relation.Value(4500 * i)
	}
	b.Run("gallop-skewed", func(b *testing.B) {
		ranges := []trie.LevelRange{
			{Keys: tiny, Lo: 0, Hi: len(tiny)},
			{Keys: huge, Lo: 0, Hi: len(huge)},
		}
		var dst []relation.Value
		for i := 0; i < b.N; i++ {
			dst = trie.IntersectLevels(dst[:0], ranges)
		}
	})
}

// BenchmarkVariableOrder: ablation of variable-ordering heuristics on
// the 4-cycle query (good orders keep adjacent variables together).
func BenchmarkVariableOrder(b *testing.B) {
	e := dataset.RandomGraph(2000, 8000, 11)
	db := NewDatabase()
	db.Put(e)
	q, err := MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)").Bind(db)
	if err != nil {
		b.Fatal(err)
	}
	memo := new(core.TrieMemo)
	for _, ord := range []struct {
		name  string
		order []string
	}{
		{"adjacent", []string{"A", "B", "C", "D"}},
		{"opposite", []string{"A", "C", "B", "D"}},
	} {
		b.Run(ord.name, func(b *testing.B) {
			benchSearch(b, memo, q, Options{Order: ord.order, Parallelism: 1, DisablePushdown: true}, benchCount(-1))
		})
	}
}

// BenchmarkParallelEngine: the sharded multi-core executor vs the
// serial search on the triangle, 4-clique and 4-path workloads, for
// both Generic-Join and LFTJ Count (the streaming mode, so the
// measurement is pure search, no materialization). p=1 is the serial
// baseline; on a machine with GOMAXPROCS >= 4 the p=GOMAXPROCS rows
// should show >= 1.5x speedup on the triangle workload. Run with
//
//	go test -bench BenchmarkParallelEngine -benchtime 3x .
func BenchmarkParallelEngine(b *testing.B) {
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	db := NewDatabase()
	db.Put(dataset.RandomGraph(3000, 40000, 7))
	workloads := []struct {
		name string
		q    *core.Query
	}{
		{"triangle", benchTriangleQuery(b, dataset.TriangleAGMTight(30000))},
		{"clique4", benchParse(b, db, "Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)")},
		{"path4", benchParse(b, db, "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)")},
	}
	memo := new(core.TrieMemo)
	for _, wl := range workloads {
		// Fix the variable order so every worker count searches the
		// identical tree.
		order := append([]string(nil), wl.q.Vars...)
		serial, _, err := Count(wl.q, Options{Algorithm: AlgoGenericJoin, Order: order, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		for wi, p := range workers {
			if wi > 0 && p <= workers[wi-1] {
				continue // GOMAXPROCS duplicated a fixed entry
			}
			for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
				b.Run(fmt.Sprintf("%s/%v/p=%d", wl.name, algo, p), func(b *testing.B) {
					benchSearch(b, memo, wl.q, Options{Algorithm: algo, Order: order, Parallelism: p}, benchCount(serial))
				})
			}
		}
	}
}

// BenchmarkCountPushdown (E12): the aggregate-aware execution mode
// acceptance benchmark. On the AGM-tight triangle (1M results at
// n=40000) it compares enumerate-then-count (Execute + Len — the
// baseline the ISSUE's >=10x acceptance is measured against), the
// Count pushdown under both level strategies, plus the free-
// counted factorization workloads (path4, skewed star), EXISTS and
// projection pushdown. CI captures this output in the benchmark
// regression gate.
func BenchmarkCountPushdown(b *testing.B) {
	tri := dataset.TriangleAGMTight(40000)
	triQ := benchTriangleQuery(b, tri)
	db := NewDatabase()
	db.Put(dataset.RandomGraph(3000, 40000, 7))
	pathQ := benchParse(b, db, "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)")
	star := dataset.SkewedStar(10000, 10, 500)
	starQ, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: star.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: star.S},
	})
	if err != nil {
		b.Fatal(err)
	}
	workloads := []struct {
		name string
		q    *core.Query
	}{{"triangle", triQ}, {"path4", pathQ}, {"star", starQ}}
	memo := new(core.TrieMemo)
	for _, wl := range workloads {
		want, _, err := Count(wl.q, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.name+"/enumerate", func(b *testing.B) {
			benchSearch(b, memo, wl.q, Options{Parallelism: 1}, func(e *executor) error {
				out, _, err := e.execute(context.Background())
				if err == nil && out.Len() != want {
					err = fmt.Errorf("enumerated %d, want %d", out.Len(), want)
				}
				return err
			})
		})
		b.Run(wl.name+"/count-stream", func(b *testing.B) {
			benchSearch(b, memo, wl.q, Options{Parallelism: 1}, benchCount(want))
		})
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			b.Run(fmt.Sprintf("%s/countfast/%v", wl.name, algo), func(b *testing.B) {
				benchSearch(b, memo, wl.q, Options{Algorithm: algo, Parallelism: 1}, benchCount(want))
			})
		}
	}
	b.Run("triangle/exists", func(b *testing.B) {
		benchSearch(b, memo, triQ, Options{Parallelism: 1}, func(e *executor) error {
			found, _, err := e.exists(context.Background())
			if err == nil && !found {
				err = fmt.Errorf("exists = false")
			}
			return err
		})
	})
	b.Run("star/project-count", func(b *testing.B) {
		benchSearch(b, memo, starQ, Options{Parallelism: 1, Project: []string{"A"}}, benchCount(10000))
	})
}

func benchParse(b *testing.B, db *Database, src string) *core.Query {
	b.Helper()
	q, err := MustParse(src).Bind(db)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkConcurrentDB (E13): the long-lived engine acceptance
// benchmark. N goroutines hammer one DB with prepared queries
// (b.RunParallel); the replan rows pay what one-shot Count pays on
// every call — measured degree statistics, the per-prefix LP solves of
// the cost-based plan, and the index build. The prepared rows must
// beat replan by >= 2x on the triangle and star workloads (the plan is
// computed once, the executions share the DB's tries).
// CI captures this output in the benchmark regression gate.
func BenchmarkConcurrentDB(b *testing.B) {
	ctx := context.Background()
	star := dataset.SkewedStar(1000, 4, 200)
	tri, err := dataset.TriangleFromGraph(dataset.RandomGraph(600, 3000, 7))
	if err != nil {
		b.Fatal(err)
	}
	workloads := []struct {
		name string
		src  string
		rels []*Relation
	}{
		{"triangle", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", []*Relation{tri.R, tri.S, tri.T}},
		{"star", "Q(A,B,C) :- R(A,B), S(B,C)", []*Relation{star.R, star.S}},
	}
	opts := Options{Planner: PlannerCostBased, Parallelism: 1}
	for _, wl := range workloads {
		db := NewDB()
		if err := db.Register(wl.rels...); err != nil {
			b.Fatal(err)
		}
		pq, err := db.Prepare(wl.src, opts)
		if err != nil {
			b.Fatal(err)
		}
		want, _, err := pq.Count(ctx)
		if err != nil {
			b.Fatal(err)
		}
		q := pq.Query()
		// b.Fatal must not run on RunParallel worker goroutines; report
		// with b.Error and bail out of the worker instead.
		b.Run(wl.name+"/prepared", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n, _, err := pq.Count(ctx)
					if err != nil || n != want {
						b.Errorf("count %d, err %v, want %d", n, err, want)
						return
					}
				}
			})
		})
		b.Run(wl.name+"/replan", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n, _, err := Count(q, opts)
					if err != nil || n != want {
						b.Errorf("count %d, err %v, want %d", n, err, want)
						return
					}
				}
			})
		})
	}
}

// BenchmarkTrieCacheParallel: the trie memo's hit path. Every
// iteration builds a plan whose three tries are memo hits; the
// parallel row runs one builder per core against the same relations.
// A hit is one atomic load and a scan of the relation's (at most a
// few) memoized permutations, with no lock, so parallel plan
// construction scales.
func BenchmarkTrieCacheParallel(b *testing.B) {
	tri := dataset.TriangleAGMTight(10000)
	q := benchTriangleQuery(b, tri)
	memo := new(core.TrieMemo)
	order := core.ExplicitOrder([]string{"A", "B", "C"})
	if _, err := core.BuildPlanSrc(memo, q, order); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPlanSrc(memo, q, order); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := core.BuildPlanSrc(memo, q, order); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkAGMBoundComputation: the AGM LP itself (used by optimizers
// per the paper's Section 1 discussion of estimation).
func BenchmarkAGMBoundComputation(b *testing.B) {
	for _, k := range []int{3, 5, 7} {
		h := hypergraph.Clique(k)
		sizes := make([]float64, h.NumEdges())
		for i := range sizes {
			sizes[i] = 1e6
		}
		b.Run(fmt.Sprintf("clique-k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bounds.AGM(h, sizes)
				if err != nil {
					b.Fatal(err)
				}
				if math.IsNaN(res.Bound) {
					b.Fatal("NaN bound")
				}
			}
		})
	}
}

// BenchmarkPlanner (E11): the planner acceptance benchmark. On the
// skewed star fixture (one hub vertex with 10k spokes) it times
// end-to-end Count under the cost-based planner's chosen order, the
// degree-order heuristic and the worst enumerated order — the chosen
// order must beat the worst by well over the 5x acceptance margin —
// plus the cost of planning itself (degree measurement and the
// per-prefix modular LPs). CI captures this benchmark's output as
// BENCH_planner.json.
func BenchmarkPlanner(b *testing.B) {
	star := dataset.SkewedStar(10000, 10, 500)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: star.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: star.S},
	})
	if err != nil {
		b.Fatal(err)
	}
	exp, err := Explain(q, Options{Planner: PlannerCostBased})
	if err != nil {
		b.Fatal(err)
	}
	if exp.Worst == nil {
		b.Fatal("no worst candidate enumerated")
	}
	b.Logf("chosen %v cost=%.3g; worst %v cost=%.3g", exp.Order, exp.Cost, exp.Worst.Order, exp.Worst.Cost)

	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Explain(q, Options{Planner: PlannerCostBased}); err != nil {
				b.Fatal(err)
			}
		}
	})
	memo := new(core.TrieMemo)
	countWith := func(name string, opts Options) {
		b.Run(name, func(b *testing.B) {
			benchSearch(b, memo, q, opts, benchCount(star.R.Len()*10))
		})
	}
	countWith("chosen-order", Options{Order: exp.Order, Parallelism: 1})
	countWith("heuristic-order", Options{Planner: PlannerHeuristic, Parallelism: 1})
	countWith("worst-order", Options{Order: exp.Worst.Order, Parallelism: 1})
}

// BenchmarkIncrementalUpdate: the mutable-relation acceptance probe —
// a 1k-tuple delta applied to a 100k-edge relation and made visible
// to a held prepared triangle query. The incremental row pays
// delta.Apply (O(batch·log batch), off the read path) plus one linear
// (base ⊎ delta) trie merge per touched binding at the next
// execution; the reregister row pays what the immutable engine
// charged for any change before this layer existed — rebuilding the
// 100k-tuple relation through a Builder, re-registering it (dropping
// every cached plan), re-planning, and re-sorting every per-binding
// trie from scratch. Both rows end with the same visibility check
// (triangle Exists + exact count), so the gap is pure update-path
// cost. Expect the incremental row ≥10x faster.
func BenchmarkIncrementalUpdate(b *testing.B) {
	ctx := context.Background()
	const deltaSize = 1000
	graph := dataset.RandomGraph(20000, 100000, 31)
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(C,A)"
	countSrc := "Q(A,B) :- E(A,B)"
	opts := Options{Planner: PlannerCostBased}
	// The delta: 1k edges on nodes outside the graph's id range, so
	// insert/delete round-trips oscillate between exactly two states.
	novel := make([]Tuple, deltaSize)
	for i := range novel {
		novel[i] = Tuple{Value(100000 + i), Value(200000 + i)}
	}
	wantBase := graph.Len()

	b.Run("incremental", func(b *testing.B) {
		db := NewDB()
		if err := db.Register(graph); err != nil {
			b.Fatal(err)
		}
		pq, err := db.Prepare(src, opts)
		if err != nil {
			b.Fatal(err)
		}
		count, err := db.Prepare(countSrc, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := pq.Exists(ctx); err != nil { // warm plans and tries
			b.Fatal(err)
		}
		insert := NewBatch().Insert("E", novel...)
		remove := NewBatch().Delete("E", novel...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch, want := insert, wantBase+deltaSize
			if i%2 == 1 {
				batch, want = remove, wantBase
			}
			if _, err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			if ok, _, err := pq.Exists(ctx); err != nil || !ok {
				b.Fatalf("exists %v err %v", ok, err)
			}
			if n, _, err := count.Count(ctx); err != nil || n != want {
				b.Fatalf("count %d err %v, want %d", n, err, want)
			}
		}
	})

	b.Run("reregister", func(b *testing.B) {
		db := NewDB()
		if err := db.Register(graph); err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.Query(ctx, src, opts); err != nil {
			b.Fatal(err)
		}
		baseTuples := graph.Tuples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eb := NewRelationBuilder("E", "src", "dst")
			for _, t := range baseTuples {
				if err := eb.Add(t...); err != nil {
					b.Fatal(err)
				}
			}
			want := wantBase
			if i%2 == 0 {
				want += deltaSize
				for _, t := range novel {
					if err := eb.Add(t...); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := db.Register(eb.Build()); err != nil {
				b.Fatal(err)
			}
			epq, err := db.Prepare(src, opts)
			if err != nil {
				b.Fatal(err)
			}
			if ok, _, err := epq.Exists(ctx); err != nil || !ok {
				b.Fatalf("exists %v err %v", ok, err)
			}
			cpq, err := db.Prepare(countSrc, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if n, _, err := cpq.Count(ctx); err != nil || n != want {
				b.Fatalf("count %d err %v, want %d", n, err, want)
			}
		}
	})
}

// BenchmarkMaintainedCount: the incremental-view-maintenance
// acceptance probe — the 100k-edge / 1k-delta oscillating workload of
// BenchmarkIncrementalUpdate, asking for a standing triangle count.
// The maintained row pays Apply plus the differential terms (each
// occurrence's delta-first join of the 1k delta against snapshot
// tries) and then reads the answer with one atomic load; the
// recompute row pays Apply plus a from-scratch pushdown Count of the
// triangle query at the new snapshot. The differential work scales
// with the delta and the degrees around it, the recompute with the
// whole join — expect the maintained row ≥5x faster.
func BenchmarkMaintainedCount(b *testing.B) {
	ctx := context.Background()
	const deltaSize = 1000
	graph := dataset.RandomGraph(20000, 100000, 31)
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(C,A)"
	// The delta: 1k edges on nodes outside the graph's id range (they
	// close no triangles), so insert/delete round-trips oscillate
	// between exactly two states with a known standing count.
	novel := make([]Tuple, deltaSize)
	for i := range novel {
		novel[i] = Tuple{Value(100000 + i), Value(200000 + i)}
	}

	b.Run("maintained", func(b *testing.B) {
		db := NewDB()
		if err := db.Register(graph); err != nil {
			b.Fatal(err)
		}
		mq, err := db.Materialize(src, MaterializeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		want := mq.Count()
		insert := NewBatch().Insert("E", novel...)
		remove := NewBatch().Delete("E", novel...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := insert
			if i%2 == 1 {
				batch = remove
			}
			if _, err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			if res := mq.Result(); res.Err != nil || res.Count != want {
				b.Fatalf("maintained count %d err %v, want %d", res.Count, res.Err, want)
			}
		}
	})

	b.Run("recompute", func(b *testing.B) {
		db := NewDB()
		if err := db.Register(graph); err != nil {
			b.Fatal(err)
		}
		pq, err := db.Prepare(src, Options{})
		if err != nil {
			b.Fatal(err)
		}
		want, _, err := pq.Count(ctx)
		if err != nil {
			b.Fatal(err)
		}
		insert := NewBatch().Insert("E", novel...)
		remove := NewBatch().Delete("E", novel...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := insert
			if i%2 == 1 {
				batch = remove
			}
			if _, err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			if n, _, err := pq.Count(ctx); err != nil || n != want {
				b.Fatalf("count %d err %v, want %d", n, err, want)
			}
		}
	})
}
