package wcoj

// The long-lived engine suite: concurrent prepared-query execution
// must be race-clean (run with -race, as CI does) and byte-identical
// to one-shot Execute; the plan cache must hit; cancellation must stop
// long enumerations promptly; CSV-loaded relations must serve queries.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wcoj/internal/baseline"
	"wcoj/internal/dataset"
)

// testDB builds a DB holding a random edge relation E plus the
// triangle renames R, S, T over a second graph.
func testDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	tri, err := dataset.TriangleFromGraph(dataset.RandomGraph(120, 900, 21))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(80, 600, 9), tri.R, tri.S, tri.T); err != nil {
		t.Fatal(err)
	}
	return db
}

var dbSuiteQueries = []struct {
	name, src string
	opts      Options
}{
	{"triangle", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{}},
	{"triangle-lftj", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{Algorithm: AlgoLeapfrog}},
	{"triangle-cost", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{Planner: PlannerCostBased}},
	{"path4", "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)", Options{}},
	{"path4-parallel", "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)", Options{Parallelism: 4}},
	{"path4-project", "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)", Options{Project: []string{"A", "D"}}},
	{"clique4", "Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)", Options{Parallelism: 3}},
	{"triangle-backtracking", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{Algorithm: AlgoBacktracking}},
}

// TestPreparedMatchesOneShot: for every suite query, the one-shot entry
// points, the PreparedQuery methods (Execute, Count, Exists,
// ExecuteFunc) and a maintained view's recompute all equal the
// binary-join oracle over the same relations, and PreparedStats.Tuples
// advances by each call's result cardinality.
func TestPreparedMatchesOneShot(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for _, c := range dbSuiteQueries {
		t.Run(c.name, func(t *testing.T) {
			pq, err := db.Prepare(c.src, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			q := pq.Query()
			wantRel, _, err := baseline.JoinOnly(q, nil, nil)
			if err == nil && c.opts.Project != nil {
				wantRel, err = wantRel.Project(c.opts.Project...)
			}
			if err != nil {
				t.Fatal(err)
			}
			// tuples checks how far the cumulative counter moved since
			// the previous check.
			seen := pq.Stats().Tuples
			tuples := func(call string, want int) {
				t.Helper()
				now := pq.Stats().Tuples
				if now-seen != int64(want) {
					t.Fatalf("%s advanced PreparedStats.Tuples by %d, want %d", call, now-seen, want)
				}
				seen = now
			}

			oneShot, _, err := Execute(q, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !oneShot.Equal(wantRel) {
				t.Fatalf("one-shot Execute diverges: %d vs %d tuples", oneShot.Len(), wantRel.Len())
			}
			gotRel, stats, err := pq.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !gotRel.Equal(wantRel) {
				t.Fatalf("Execute diverges: %d vs %d tuples", gotRel.Len(), wantRel.Len())
			}
			if stats.Output != wantRel.Len() {
				t.Fatalf("stats.Output = %d, want %d", stats.Output, wantRel.Len())
			}
			tuples("Execute", wantRel.Len())
			n, _, err := pq.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n != wantRel.Len() {
				t.Fatalf("Count = %d, want %d", n, wantRel.Len())
			}
			tuples("Count", wantRel.Len())
			found, _, err := pq.Exists(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if found != (wantRel.Len() > 0) {
				t.Fatalf("Exists = %v with %d results", found, wantRel.Len())
			}
			witnessed := 0
			if found {
				witnessed = 1
			}
			tuples("Exists", witnessed)
			streamed := 0
			if _, err := pq.ExecuteFunc(ctx, func(Tuple) error { streamed++; return nil }); err != nil {
				t.Fatal(err)
			}
			if streamed != wantRel.Len() {
				t.Fatalf("ExecuteFunc streamed %d, want %d", streamed, wantRel.Len())
			}
			tuples("ExecuteFunc", wantRel.Len())

			// Views maintain under the default algorithm whatever the
			// prepared query's.
			mopts := MaterializeOptions{Project: c.opts.Project, Parallelism: c.opts.Parallelism}
			for _, mode := range []MaterializeMode{MaterializeCount, MaterializeRows} {
				mopts.Mode = mode
				mq, err := db.Materialize(c.src, mopts)
				if err != nil {
					t.Fatal(err)
				}
				if mq.Count() != int64(wantRel.Len()) {
					t.Fatalf("Materialize %v count = %d, want %d", mode, mq.Count(), wantRel.Len())
				}
				if mode == MaterializeRows && !mq.Rows().Equal(wantRel) {
					t.Fatalf("Materialize rows diverge: %d vs %d tuples", mq.Rows().Len(), wantRel.Len())
				}
				if err := mq.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestConcurrentDB: many goroutines share one DB and its prepared
// queries; every result must equal the serial one-shot Execute. Run
// under -race this is the shared-state safety proof of the engine.
func TestConcurrentDB(t *testing.T) {
	db := testDB(t)
	const goroutines = 8
	const iters = 5

	want := make([]int, len(dbSuiteQueries))
	pqs := make([]*PreparedQuery, len(dbSuiteQueries))
	for i, c := range dbSuiteQueries {
		pq, err := db.Prepare(c.src, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		pqs[i] = pq
		q := pq.Query()
		out, _, err := Execute(q, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Len()
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters*len(pqs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				for i, pq := range pqs {
					// Alternate materialization and the aggregate paths so
					// every plan mode runs concurrently.
					switch (g + it) % 3 {
					case 0:
						out, _, err := pq.Execute(ctx)
						if err != nil {
							errs <- err
							continue
						}
						if out.Len() != want[i] {
							errs <- fmt.Errorf("%s: Execute %d, want %d", pq.Source(), out.Len(), want[i])
						}
					case 1:
						n, _, err := pq.Count(ctx)
						if err != nil {
							errs <- err
							continue
						}
						if n != want[i] {
							errs <- fmt.Errorf("%s: Count %d, want %d", pq.Source(), n, want[i])
						}
					default:
						found, _, err := pq.Exists(ctx)
						if err != nil {
							errs <- err
							continue
						}
						if found != (want[i] > 0) {
							errs <- fmt.Errorf("%s: Exists %v, want %d results", pq.Source(), found, want[i])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := pqs[0].Stats()
	if st.Calls == 0 || st.Duration <= 0 {
		t.Fatalf("cumulative stats not recorded: %+v", st)
	}
}

// TestConcurrentPrepare: racing Prepare calls for the same key
// converge on one shared PreparedQuery.
func TestConcurrentPrepare(t *testing.T) {
	db := testDB(t)
	const goroutines = 8
	got := make([]*PreparedQuery, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pq, err := db.Prepare("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := pq.Count(context.Background()); err != nil {
				t.Error(err)
			}
			got[g] = pq
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatal("racing Prepare calls produced distinct prepared queries")
		}
	}
	if s := db.Stats(); s.PlansCached != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", s.PlansCached)
	}
}

// TestPlanCache: re-preparing hits; different options miss; Register
// invalidates.
func TestPlanCache(t *testing.T) {
	db := testDB(t)
	src := "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	p1, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical Prepare did not hit the plan cache")
	}
	// Whitespace-insensitive: the key is the canonical rendering.
	p3, err := db.Prepare("Q(A, B, C)  :-  R(A,B),S(B,C),  T(A,C).", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("canonicalized query text did not hit the plan cache")
	}
	pl, err := db.Prepare(src, Options{Algorithm: AlgoBacktracking})
	if err != nil {
		t.Fatal(err)
	}
	if pl == p1 {
		t.Fatal("different options shared a cache entry")
	}
	if s := db.Stats(); s.PlanHits != 2 || s.PlanMisses != 2 {
		t.Fatalf("plan hit/miss = %d/%d, want 2/2", s.PlanHits, s.PlanMisses)
	}
	// Register drops the cache; the held handle still answers from its
	// bound snapshot.
	wantOld, _, err := p1.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(10, 20, 3)); err != nil {
		t.Fatal(err)
	}
	p4, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("Register did not invalidate the plan cache")
	}
	gotOld, _, err := p1.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotOld != wantOld {
		t.Fatalf("held prepared query changed answers after Register: %d vs %d", gotOld, wantOld)
	}
}

// TestPlanCacheBounded: the plan cache evicts least-recently-prepared
// entries past its budget (a serving process fed arbitrary query
// shapes must not grow without bound), and a hit refreshes recency.
func TestPlanCacheBounded(t *testing.T) {
	db := testDB(t)
	db.SetPlanCacheLimit(2)
	hot, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		// Touch hot between cold inserts so it stays most recent.
		if _, err := db.Prepare("Q(A,B) :- E(A,B)", Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Prepare("Q(A,B) :- E(A,B)", Options{Parallelism: i}); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); s.PlansCached != 2 {
		t.Fatalf("plan cache holds %d entries, budget 2", s.PlansCached)
	}
	again, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != hot {
		t.Fatal("recently-touched entry was evicted")
	}
	// A zero limit disables caching entirely.
	db.SetPlanCacheLimit(0)
	if s := db.Stats(); s.PlansCached != 0 {
		t.Fatalf("zero limit left %d entries", s.PlansCached)
	}
	p1, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("disabled cache still shared a prepared query")
	}
}

// TestPlanKeyConstraints: two backtracking prepares with different
// constraint sets must not share a cached plan.
func TestPlanKeyConstraints(t *testing.T) {
	db := testDB(t)
	src := "Q(A,B) :- E(A,B)"
	a, err := db.Prepare(src, Options{Algorithm: AlgoBacktracking,
		Constraints: ConstraintSet{Cardinality("E", []string{"A", "B"}, 600)}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Prepare(src, Options{Algorithm: AlgoBacktracking,
		Constraints: ConstraintSet{Cardinality("E", []string{"A", "B"}, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different constraint sets shared one cached plan")
	}
}

// TestPlanKeyNilVsEmpty: an invalid empty Project must fail validation
// even when a nil-Project plan for the same query is already cached —
// the key must not conflate the two.
func TestPlanKeyNilVsEmpty(t *testing.T) {
	db := testDB(t)
	src := "Q(A,B) :- E(A,B)"
	if _, err := db.Prepare(src, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(src, Options{Project: []string{}}); err == nil {
		t.Fatal("empty Project hit the nil-Project cache entry instead of failing validation")
	}
	if _, err := db.Prepare(src, Options{Order: []string{}}); err == nil {
		t.Fatal("empty explicit Order accepted")
	}
}

// TestConcurrentLoadCSV: concurrent ingestion through the shared DB
// dictionary must be race-free (run under -race), and concurrent
// readers may decode while a load interns.
func TestConcurrentLoadCSV(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sb strings.Builder
			sb.WriteString("a,b\n")
			for i := 0; i < 200; i++ {
				fmt.Fprintf(&sb, "k%d-%d,v%d\n", g, i, i)
			}
			name := fmt.Sprintf("R%d", g)
			if _, err := db.LoadCSV(strings.NewReader(sb.String()), name, CSVOptions{Dict: db.Dict()}); err != nil {
				t.Error(err)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := db.Dict()
			for i := 0; i < 500; i++ {
				_ = d.String(Value(i % (d.Len() + 1)))
			}
		}()
	}
	wg.Wait()
}

// TestDBQueryConvenience: DB.Query prepares, caches and executes.
func TestDBQueryConvenience(t *testing.T) {
	db := testDB(t)
	out1, _, err := db.Query(context.Background(), "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := db.Query(context.Background(), "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Equal(out2) {
		t.Fatal("repeated Query diverged")
	}
	if s := db.Stats(); s.PlanHits == 0 {
		t.Fatal("repeated Query did not hit the plan cache")
	}
}

// TestDBErrors: unknown relations, bad planner combinations and bad
// projections surface as Prepare errors.
func TestDBErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Prepare("Q(A,B) :- Nope(A,B)", Options{}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := db.Prepare("Q(A,B) :- E(A,B)", Options{Planner: PlannerCostBased, Order: []string{"A", "B"}}); err == nil {
		t.Fatal("cost-based planner with an explicit order accepted")
	}
	if _, err := db.Prepare("Q(A,B) :- E(A,B)", Options{Planner: PlannerCostBased + 1}); err == nil {
		t.Fatal("unknown planner accepted")
	}
	if _, err := db.Prepare("Q(A,B) :- E(A,B)", Options{Project: []string{"Z"}}); err == nil {
		t.Fatal("projection onto non-variable accepted")
	}
	if err := db.Register(nil); err == nil {
		t.Fatal("nil relation registered")
	}
}

// TestDBLoadCSV: relations ingested from CSV/TSV text serve prepared
// queries, with strings interned through the DB dictionary.
func TestDBLoadCSV(t *testing.T) {
	db := NewDB()
	if _, err := db.LoadCSV(strings.NewReader("src,dst\n1,2\n2,3\n3,1\n"), "E", CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := pq.Count(context.Background()); err != nil || n != 0 {
		t.Fatalf("cycle has no directed triangle: n=%d err=%v", n, err)
	}
	// A closing chord creates one.
	if _, err := db.LoadCSV(strings.NewReader("src,dst\n1,2\n2,3\n1,3\n"), "E", CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	pq2, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := pq2.Count(context.Background()); err != nil || n != 1 {
		t.Fatalf("triangle count = %d, err=%v, want 1", n, err)
	}

	// String data through the shared dictionary.
	csv := "person,follows\nalice,bob\nbob,carol\nalice,carol\n"
	if _, err := db.LoadCSV(strings.NewReader(csv), "F", CSVOptions{Dict: db.Dict()}); err != nil {
		t.Fatal(err)
	}
	out, _, err := db.Query(context.Background(), "Q(A,B,C) :- F(A,B), F(B,C), F(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("string triangle count = %d, want 1", out.Len())
	}
	row := out.Tuple(0, nil)
	if db.Dict().String(row[0]) != "alice" {
		t.Fatalf("decoded row = %v", row)
	}
}

// writeFile writes src to name under a fresh temporary directory and
// returns its path.
func writeFile(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFileTSVCommentsAndBlanks: a path not ending in .csv loads as
// tab-separated integers, skipping '#' comment lines and blank lines.
func TestLoadFileTSVCommentsAndBlanks(t *testing.T) {
	src := "# comment\nA\tB\n\n1\t2\n# more\n3\t4\n"
	for _, name := range []string{"r.tsv", "r.txt"} {
		r, err := NewDB().LoadFile(writeFile(t, name, src), "R")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Len() != 2 || r.Attrs()[1] != "B" || !r.Contains(Tuple{3, 4}) {
			t.Fatalf("%s parsed: %v %v", name, r, r.Tuples())
		}
	}
}

func TestLoadFileTSVErrors(t *testing.T) {
	for _, c := range []struct{ what, src string }{
		{"empty input", ""},
		{"field count mismatch", "A\tB\n1\n"},
		{"non-integer", "A\nx\n"},
	} {
		if _, err := NewDB().LoadFile(writeFile(t, "r.tsv", c.src), "R"); err == nil {
			t.Fatalf("%s must fail", c.what)
		}
	}
	if _, err := NewDB().LoadFile(filepath.Join(t.TempDir(), "missing.tsv"), "R"); err == nil {
		t.Fatal("missing file must fail")
	}
}

// cancelQuery builds a pathological product query whose full
// enumeration is far too large to finish: K(x,y) is a complete
// bipartite graph joined as a 4-variable product with ~26G results.
func cancelQuery(t testing.TB, db *DB, opts Options) *PreparedQuery {
	t.Helper()
	src := "Q(A,B,C,D) :- K(A,B), K(B,C), K(C,D)"
	pq, err := db.Prepare(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

func cancelDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	b := NewRelationBuilder("K", "x", "y")
	for i := 0; i < 150; i++ {
		for j := 0; j < 150; j++ {
			b.Add(Value(i), Value(j))
		}
	}
	if err := db.Register(b.Build()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCancellableRunsSpawnNoGoroutines: a cancellable context costs a
// serial run no goroutine — the stop flag is linked with
// context.AfterFunc — so prepared runs under a live cancellable
// context leave runtime.NumGoroutine at its baseline, during a run and
// after one.
func TestCancellableRunsSpawnNoGoroutines(t *testing.T) {
	db := cancelDB(t)
	pq := cancelQuery(t, db, Options{Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, _, err := pq.Count(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after 50 counts, baseline %d", g, base)
	}
	errEnough := errors.New("enough")
	n := 0
	_, err := pq.ExecuteFunc(ctx, func(Tuple) error {
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("%d goroutines during a serial run, baseline %d", g, base)
		}
		if n++; n == 100 {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// TestPreparedCancellation: a cancelled context stops serial and
// sharded runs promptly — long enumerations were unabortable before
// the stop flag reached the workers.
func TestPreparedCancellation(t *testing.T) {
	db := cancelDB(t)
	for _, par := range []int{1, 4} {
		for _, a := range algoAxis {
			algo, name := a.algo, fmt.Sprintf("%s/p=%d", a.name, par)
			t.Run("count/"+name, func(t *testing.T) {
				// DisablePushdown keeps this a long enumeration: the
				// default pushdown count finishes this product query in
				// microseconds, leaving nothing to cancel.
				pq := cancelQuery(t, db, Options{Algorithm: algo, Parallelism: par, DisablePushdown: true})
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, _, err := pq.Count(ctx)
				elapsed := time.Since(start)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
				if elapsed > 5*time.Second {
					t.Fatalf("cancellation took %v", elapsed)
				}
			})
			t.Run("stream/"+name, func(t *testing.T) {
				pq := cancelQuery(t, db, Options{Algorithm: algo, Parallelism: par})
				if par == 1 {
					// Serial emit is direct: cancelling from inside emit
					// unwinds the search at the next tuple.
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					n := 0
					_, err := pq.ExecuteFunc(ctx, func(Tuple) error {
						n++
						if n == 1000 {
							cancel()
						}
						return nil
					})
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want canceled", err)
					}
					return
				}
				// Sharded emit is replayed per completed chunk, and no
				// chunk of this workload ever completes — exactly the
				// "unabortable long enumeration" the stop-flag polls fix:
				// the deadline must unwind the workers mid-chunk.
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, err := pq.ExecuteFunc(ctx, func(Tuple) error { return nil })
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("cancellation took %v", elapsed)
				}
			})
		}
	}
	// Pre-cancelled contexts never start the search.
	pq := cancelQuery(t, db, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pq.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Execute: %v", err)
	}
	if _, _, err := pq.Exists(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Exists: %v", err)
	}
}

// TestDBTrieStoreIsolation: a DB counts the trie lookups of its own
// queries only — a second DB that never executed counts none, and a
// one-shot call over a DB's relations builds and discards its tries,
// counting nothing and memoizing nothing on the relations.
func TestDBTrieStoreIsolation(t *testing.T) {
	db1 := testDB(t)
	db2 := testDB(t)
	src := "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	if _, _, err := db1.Query(context.Background(), src, Options{}); err != nil {
		t.Fatal(err)
	}
	s1, s2 := db1.Stats(), db2.Stats()
	if s1.TrieMisses == 0 {
		t.Fatal("db1 built no tries executing")
	}
	if s2.TrieHits+s2.TrieMisses != 0 {
		t.Fatalf("db2 counted %d/%d trie lookups without executing", s2.TrieHits, s2.TrieMisses)
	}
	q, err := db1.Bind(src)
	if err != nil {
		t.Fatal(err)
	}
	reversed := Options{Order: []string{"C", "B", "A"}}
	if _, _, err := Count(q, reversed); err != nil {
		t.Fatal(err)
	}
	if s := db1.Stats(); s.TrieHits != s1.TrieHits || s.TrieMisses != s1.TrieMisses {
		t.Fatalf("one-shot Count touched the DB counters: %+v -> %+v", s1, s)
	}
	// The one-shot call memoized nothing: the DB still builds the
	// reversed order's tries (S and T read their columns reversed).
	if _, _, err := db1.Query(context.Background(), src, reversed); err != nil {
		t.Fatal(err)
	}
	if s := db1.Stats(); s.TrieMisses <= s1.TrieMisses {
		t.Fatalf("reversed order built nothing after the one-shot call: %+v -> %+v", s1, s)
	}
}

// TestWarm: warming builds plans ahead of traffic.
func TestWarm(t *testing.T) {
	db := testDB(t)
	if err := db.Warm("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "Q(A,B) :- E(A,B)"); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.PlansCached != 2 || s.TrieMisses == 0 {
		t.Fatalf("after Warm: %+v", s)
	}
	if err := db.Warm("Q(A) :- Missing(A)"); err == nil {
		t.Fatal("warming an unbindable query succeeded")
	}
}

// TestStatsSnapshotsEveryField drives a DB through every counter its
// snapshots report — registration, a plan miss and hit, trie builds
// and hits, inserts and deletes with and without effect, a compaction,
// a delta left after it, a materialized view — and checks by
// reflection that DB.Stats and PreparedQuery.Stats populate every
// field. A field left out of either snapshot's literal reads zero here.
func TestStatsSnapshotsEveryField(t *testing.T) {
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"src", "dst"}, []Tuple{{1, 2}, {2, 3}, {1, 3}})); err != nil {
		t.Fatal(err)
	}
	const src = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	pq, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pq, err = db.Prepare(src, Options{}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, _, err := pq.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Apply(NewBatch().Insert("E", Tuple{3, 4}, Tuple{1, 2}).Delete("E", Tuple{2, 3}, Tuple{7, 8})); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact("E"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("E", Tuple{4, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(src, MaterializeOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, snap := range []any{db.Stats(), pq.Stats()} {
		v := reflect.ValueOf(snap)
		for i := range v.NumField() {
			if v.Field(i).IsZero() {
				t.Errorf("%T.%s is zero: %+v", snap, v.Type().Field(i).Name, snap)
			}
		}
	}
}
