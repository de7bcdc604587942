package wcoj

// Serial vs parallel equivalence for the sharded execution engine.
// Every query integration_test.go exercises is re-run here at several
// worker counts; results must be byte-identical (same Relation, same
// Count, same ExecuteFunc emission sequence) at every setting. Run with
// -race: the engine must be free of shared mutable state.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
)

// parallelisms covers the edge cases the engine normalizes: 1 (forced
// serial), 0 (default, the core budget), a small explicit count, and a
// count far larger than any depth-0 intersection in these workloads.
var parallelisms = []int{1, 0, 3, 1 << 20}

// parallelQueries builds every query shape the integration suite runs.
func parallelQueries(t testing.TB) map[string]*Query {
	t.Helper()
	qs := make(map[string]*Query)

	tri := dataset.TriangleSkew(400)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["triangle-skew"] = q

	d := dataset.NewExample1(800, 3, 3, 0.3, 5)
	q, err = core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: d.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: d.S},
		{Name: "T", Vars: []string{"C", "D"}, Rel: d.T},
		{Name: "W", Vars: []string{"A", "C", "D"}, Rel: d.W},
		{Name: "V", Vars: []string{"A", "B", "D"}, Rel: d.V},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["example1"] = q

	c := dataset.NewChain63(30, 3, 3, 3, 9)
	q, err = core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A"}, Rel: c.R},
		{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
		{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
		{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["chain63"] = q

	e := dataset.RandomGraph(500, 2000, 11)
	db := NewDatabase()
	db.Put(e)
	q, err = MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["4cycle"] = q

	// Empty join: two disjoint edge sets share no B value, so the
	// depth-0 intersection under order B-first can be empty and the
	// output always is.
	lo := NewRelationBuilder("L", "a", "b")
	hi := NewRelationBuilder("H", "b", "c")
	for i := 0; i < 50; i++ {
		if err := lo.Add(Value(i), Value(i)); err != nil {
			t.Fatal(err)
		}
		if err := hi.Add(Value(i+1000), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	db = NewDatabase()
	db.Put(lo.Build())
	db.Put(hi.Build())
	q, err = MustParse("Q(A,B,C) :- L(A,B), H(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["empty"] = q

	return qs
}

// TestParallelMatchesSerial asserts Execute and Count agree with the
// serial run for every query and worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for name, q := range parallelQueries(t) {
		serialOut, serialStats, err := Execute(q, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		serialN, serialCountStats, err := Count(q, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial count: %v", name, err)
		}
		if serialN != serialOut.Len() {
			t.Fatalf("%s: serial Count %d vs Execute %d", name, serialN, serialOut.Len())
		}
		for _, p := range parallelisms {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				opts := Options{Parallelism: p}
				out, stats, err := Execute(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Equal(serialOut) {
					t.Fatalf("parallel Execute disagrees: %d rows vs %d", out.Len(), serialOut.Len())
				}
				if *stats != *serialStats {
					t.Errorf("stats diverge: parallel %+v vs serial %+v", *stats, *serialStats)
				}
				n, cstats, err := Count(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n != serialOut.Len() {
					t.Fatalf("parallel Count %d vs %d", n, serialOut.Len())
				}
				if *cstats != *serialCountStats {
					t.Errorf("count stats diverge: %+v vs %+v", *cstats, *serialCountStats)
				}
			})
		}
	}
}

// TestExecuteFuncOrder asserts the streaming API emits the exact
// serial tuple sequence at every worker count.
func TestExecuteFuncOrder(t *testing.T) {
	for name, q := range parallelQueries(t) {
		var want []Value
		_, err := ExecuteFunc(q, Options{Parallelism: 1}, func(tu Tuple) error {
			want = append(want, tu...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, p := range parallelisms[1:] {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				var got []Value
				stats, err := ExecuteFunc(q, Options{Parallelism: p}, func(tu Tuple) error {
					got = append(got, tu...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("emitted %d values, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("emission sequence diverges at flat index %d", i)
					}
				}
				if stats.Output*len(q.Vars) != len(got) {
					t.Fatalf("stats.Output %d inconsistent with %d emitted values", stats.Output, len(got))
				}
			})
		}
	}
}

// TestExecuteFuncEmitError asserts an emit error aborts the run and
// propagates at every worker count.
func TestExecuteFuncEmitError(t *testing.T) {
	qs := parallelQueries(t)
	q := qs["triangle-skew"]
	sentinel := errors.New("stop")
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		for _, p := range []int{1, 4} {
			seen := 0
			_, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: p}, func(Tuple) error {
				seen++
				if seen == 3 {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("%v/p=%d: got %v, want sentinel", algo, p, err)
			}
			if seen != 3 {
				t.Fatalf("%v/p=%d: emit called %d times after error", algo, p, seen)
			}
		}
	}
}

// TestStoppedExecuteFuncKeepsStats: a consumer that stops a run after
// 10 tuples gets the run's Stats with its error, serial and sharded,
// one-shot and prepared: Output counts the 10 tuples emit was handed,
// the counters the work done, and a prepared query's Tuples advances by
// the 10.
func TestStoppedExecuteFuncKeepsStats(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.PowerLawGraph(1000, 5000, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	const src = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	q, err := db.Bind(src)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("limit reached")
	for _, p := range []int{1, 2} {
		seen := 0
		emit := func(Tuple) error {
			if seen++; seen == 10 {
				return stop
			}
			return nil
		}
		check := func(name string, st *Stats, err error) {
			t.Helper()
			if !errors.Is(err, stop) || st == nil || st.Output != 10 || st.Recursions == 0 {
				t.Errorf("%s/p=%d: err %v, Stats %+v; want the stop, Output 10 and the work done", name, p, err, st)
			}
		}
		st, err := ExecuteFunc(q, Options{Parallelism: p}, emit)
		check("one-shot", st, err)
		pq, err := db.Prepare(src, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		before := pq.Stats().Tuples
		seen = 0
		st, err = pq.ExecuteFunc(context.Background(), emit)
		check("prepared", st, err)
		if got := pq.Stats().Tuples - before; got != 10 {
			t.Errorf("prepared/p=%d: PreparedStats.Tuples advanced by %d, want 10", p, got)
		}
	}
}

// TestExecuteFuncLimitStopsEarly: a consumer that stops after 10 tuples
// (a LIMIT) costs a sharded run a sliver of the join. The ordered
// runner sees the stop only when the chunk it came from is replayed,
// and every chunk issued by then runs on, so its first chunks must be
// small: the run has to finish within a node budget of a twentieth of
// the full enumeration's search nodes.
func TestExecuteFuncLimitStopsEarly(t *testing.T) {
	db := NewDatabase()
	db.Put(dataset.RandomGraph(1000, 60000, 7))
	q, err := MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	limit := errors.New("limit reached")
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
		full, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: 1}, func(Tuple) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(full.Recursions / 20)
		seen := 0
		_, err = ExecuteFunc(q, Options{
			Algorithm:   algo,
			Parallelism: 2,
			Context:     WithNodeBudget(context.Background(), budget),
		}, func(Tuple) error {
			if seen++; seen == 10 {
				return limit
			}
			return nil
		})
		if !errors.Is(err, limit) {
			t.Errorf("%v: stopping after 10 of %d tuples under a budget of %d of %d nodes: err = %v, want the consumer's stop",
				algo, full.Output, budget, full.Recursions, err)
		}
	}
}

// TestLateCancelKeepsAnswer: a consumer that cancels the context on the
// final tuple has the whole answer, so the run returns nil at every
// worker count, as a serial run does. A sharded run replays the last
// chunk only once every chunk has finished, so nothing is left for the
// cancellation to cut short. A serial search polls the stop flag every
// 256 nodes and could still see it after the final tuple, so the
// fixture's serial search stays below one poll.
func TestLateCancelKeepsAnswer(t *testing.T) {
	q := parallelQueries(t)["chain63"]
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
		var want []Value
		serial, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: 1}, func(tu Tuple) error {
			want = append(want, tu...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Output == 0 || serial.Recursions >= 256 {
			t.Fatalf("%v: the fixture's serial search has %d tuples over %d nodes; want some, below one poll",
				algo, serial.Output, serial.Recursions)
		}
		for _, p := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var got []Value
			_, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: p, Context: ctx}, func(tu Tuple) error {
				if got = append(got, tu...); len(got) == len(want) {
					cancel()
				}
				return nil
			})
			cancel()
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("%v/p=%d: cancelled on the final tuple: err = %v, %d of %d values emitted in order: %v",
					algo, p, err, len(got), len(want), slices.Equal(got, want))
			}
		}
	}
}

// TestExecuteFuncAllAlgorithms asserts every algorithm's streaming
// output equals its materialized output.
func TestExecuteFuncAllAlgorithms(t *testing.T) {
	q := parallelQueries(t)["triangle-skew"]
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		want, _, err := Execute(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		b := NewRelationBuilder("Q", q.Vars...)
		stats, err := ExecuteFunc(q, Options{Algorithm: algo}, func(tu Tuple) error {
			return b.Add(tu...)
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got := b.Build()
		if !got.Equal(want) {
			t.Fatalf("%v: streaming result disagrees with Execute", algo)
		}
		if stats.Output != want.Len() {
			t.Fatalf("%v: stats.Output %d, want %d", algo, stats.Output, want.Len())
		}
	}
}

// TestParallelismDefault pins the budget rule behind the 0 default:
// min(GOMAXPROCS, NumCPU), so a spare P beyond the CPU count (wcojd
// runs one for its network poller) never runs a search.
func TestParallelismDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cpus := runtime.NumCPU()
	for _, procs := range []int{1, cpus, cpus + 1} {
		runtime.GOMAXPROCS(procs)
		if w, want := (Options{}).workers(), min(procs, cpus); w != want || core.Cores() != want {
			t.Fatalf("GOMAXPROCS %d on %d CPUs: default workers %d, budget %d, want %d", procs, cpus, w, core.Cores(), want)
		}
	}
	if w := (Options{Parallelism: 7}).workers(); w != 7 {
		t.Fatalf("explicit workers %d, want 7", w)
	}
}

// TestHugeParallelism: a Parallelism whose product with the chunk
// oversplit factor overflows an int partitions like any count past the
// depth-0 intersection, so every entry point answers as the serial run
// does — Count, Exists, ExecuteFunc, and a view's initial computation
// and maintenance.
func TestHugeParallelism(t *testing.T) {
	const n = 50
	b := NewRelationBuilder("E", "src", "dst")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := b.Add(Value(i), Value(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	db := NewDB()
	if err := db.Register(b.Build()); err != nil {
		t.Fatal(err)
	}
	const src = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	q, err := db.Bind(src)
	if err != nil {
		t.Fatal(err)
	}
	serial := Options{Parallelism: 1}
	want, _, err := Count(q, serial)
	if err != nil || want != n*(n-1)*(n-2) {
		t.Fatalf("serial count %d, %v; want %d", want, err, n*(n-1)*(n-2))
	}
	var wantSeq []Value
	if _, err := ExecuteFunc(q, serial, func(tu Tuple) error { wantSeq = append(wantSeq, tu...); return nil }); err != nil {
		t.Fatal(err)
	}
	serialView, err := db.Materialize(src, MaterializeOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var views []*MaterializedQuery
	for _, p := range []int{1 << 61, 1 << 62, math.MaxInt64} {
		opts := Options{Parallelism: p}
		if got, _, err := Count(q, opts); err != nil || got != want {
			t.Errorf("p=%d: Count = %d, %v; want %d", p, got, err, want)
		}
		if ok, _, err := Exists(q, opts); err != nil || !ok {
			t.Errorf("p=%d: Exists = %v, %v; want true", p, ok, err)
		}
		var seq []Value
		if _, err := ExecuteFunc(q, opts, func(tu Tuple) error { seq = append(seq, tu...); return nil }); err != nil || !slices.Equal(seq, wantSeq) {
			t.Errorf("p=%d: ExecuteFunc emitted %d values, %v; want the serial sequence of %d", p, len(seq), err, len(wantSeq))
		}
		mq, err := db.Materialize(src, MaterializeOptions{Parallelism: p})
		if err != nil {
			t.Fatalf("p=%d: Materialize: %v", p, err)
		}
		if got := mq.Count(); got != int64(want) {
			t.Errorf("p=%d: view count %d, want %d", p, got, want)
		}
		views = append(views, mq)
	}
	// Deleting vertex 0's edges runs every view's differential terms.
	del := NewBatch()
	for j := 1; j < n; j++ {
		del.Delete("E", Tuple{0, Value(j)}).Delete("E", Tuple{Value(j), 0})
	}
	if _, err := db.Apply(del); err != nil {
		t.Fatal(err)
	}
	if got := serialView.Count(); got != (n-1)*(n-2)*(n-3) {
		t.Fatalf("serial view count after delete %d, want %d", got, (n-1)*(n-2)*(n-3))
	}
	for i, mq := range views {
		if got := mq.Count(); got != serialView.Count() {
			t.Errorf("view %d: count after delete %d, want %d", i, got, serialView.Count())
		}
	}
}
