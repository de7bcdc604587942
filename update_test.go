package wcoj

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/delta"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// freshEquivalent registers the current effective tuple sets of src's
// relations into a brand-new DB — the from-scratch rebuild every
// incremental result is compared against.
func freshEquivalent(t testing.TB, src *DB) *DB {
	t.Helper()
	fresh := NewDB()
	for _, name := range src.Names() {
		r, ok := src.Relation(name)
		if !ok {
			t.Fatalf("relation %q vanished", name)
		}
		b := NewRelationBuilder(name, r.Attrs()...)
		for i := 0; i < r.Len(); i++ {
			if err := b.Add(r.Tuple(i, nil)...); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.Register(b.Build()); err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

// assertUpdatedMatchesFresh checks that every execution mode of the
// incrementally updated DB is byte-identical to a from-scratch rebuild,
// serial and parallel.
func assertUpdatedMatchesFresh(t *testing.T, updated *DB, queries []string) {
	t.Helper()
	ctx := context.Background()
	fresh := freshEquivalent(t, updated)
	for _, src := range queries {
		for _, par := range []int{1, 4} {
			opts := Options{Parallelism: par}
			upq, err := updated.Prepare(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			fpq, err := fresh.Prepare(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			uRel, _, err := upq.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fRel, _, err := fpq.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !uRel.Equal(fRel) {
				t.Fatalf("%s p=%d: incremental result differs from rebuild (%d vs %d tuples)",
					src, par, uRel.Len(), fRel.Len())
			}
			un, _, err := upq.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if un != fRel.Len() {
				t.Fatalf("%s p=%d: Count %d, want %d", src, par, un, fRel.Len())
			}
			uex, _, err := upq.Exists(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if uex != (fRel.Len() > 0) {
				t.Fatalf("%s p=%d: Exists %v, want %v", src, par, uex, fRel.Len() > 0)
			}
		}
	}
}

func TestUpdateEquivalence(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(40, 300, 5)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"Q(A,B) :- E(A,B)",
		"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
		"Q(A,B,C) :- E(A,B), E(B,C)",
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 8; step++ {
		batch := NewBatch()
		for i := 0; i < 30; i++ {
			tu := Tuple{Value(rng.Intn(45)), Value(rng.Intn(45))}
			if rng.Intn(2) == 0 {
				batch.Insert("E", tu)
			} else {
				batch.Delete("E", tu)
			}
		}
		if _, err := db.Apply(batch); err != nil {
			t.Fatal(err)
		}
		assertUpdatedMatchesFresh(t, db, queries)
	}
	if st := db.Stats(); st.Batches != 8 || st.Epoch == 0 {
		t.Fatalf("update stats: %+v", st)
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(20, 60, 1)); err != nil {
		t.Fatal(err)
	}
	queries := []string{"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"}

	// insert -> delete -> insert of the same fresh tuples must land on
	// the same state as registering from scratch with them present.
	novel := []Tuple{{100, 101}, {101, 102}, {100, 102}}
	if _, err := db.Insert("E", novel...); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("E", novel...); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.DeltaTuples != 0 {
		t.Fatalf("insert+delete must cancel in the delta log, depth %d", st.DeltaTuples)
	}
	if _, err := db.Insert("E", novel...); err != nil {
		t.Fatal(err)
	}
	assertUpdatedMatchesFresh(t, db, queries)

	// The re-inserted triangle must be visible.
	pq, err := db.Prepare(queries[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := pq.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("re-inserted triangle not found")
	}
}

func TestUpdateNoopSemantics(t *testing.T) {
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}, {3, 4}})); err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Duplicate insert and absent delete: exact no-op counters, no
	// delta growth, no epoch advance, unchanged results.
	before := db.Stats()
	us, err := db.Apply(NewBatch().
		Insert("E", Tuple{1, 2}).
		Delete("E", Tuple{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if us.Inserted != 0 || us.Deleted != 0 || us.InsertNoops != 1 || us.DeleteNoops != 1 {
		t.Fatalf("noop batch stats: %+v", us)
	}
	after := db.Stats()
	if after.Epoch != before.Epoch {
		t.Fatal("pure-noop batch must not advance the update epoch")
	}
	if after.DeltaTuples != 0 {
		t.Fatalf("noops corrupted the delta log: depth %d", after.DeltaTuples)
	}
	if after.InsertNoops != 1 || after.DeleteNoops != 1 || after.Batches != 1 {
		t.Fatalf("lifetime counters: %+v", after)
	}
	if n, _, _ := pq.Count(ctx); n != 2 {
		t.Fatalf("count after noop batch: %d", n)
	}

	// Mixed batch: the effective half lands, the noop half is counted.
	us, err = db.Apply(NewBatch().
		Insert("E", Tuple{5, 6}, Tuple{1, 2}).
		Delete("E", Tuple{3, 4}, Tuple{7, 7}))
	if err != nil {
		t.Fatal(err)
	}
	if us.Inserted != 1 || us.InsertNoops != 1 || us.Deleted != 1 || us.DeleteNoops != 1 {
		t.Fatalf("mixed batch stats: %+v", us)
	}
	if n, _, _ := pq.Count(ctx); n != 2 {
		t.Fatalf("count after mixed batch: %d", n)
	}
	if st := db.Stats(); st.Tuples != 2 || st.DeltaTuples != 2 {
		t.Fatalf("stats after mixed batch: %+v", st)
	}
}

func TestUpdateErrors(t *testing.T) {
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("missing", Tuple{1, 2}); err == nil {
		t.Fatal("insert into unknown relation must fail")
	}
	if _, err := db.Insert("E", Tuple{1}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	// A failing batch must publish nothing, even for the valid part.
	before := db.Stats()
	if _, err := db.Apply(NewBatch().Insert("E", Tuple{8, 8}).Insert("E", Tuple{1, 2, 3})); err == nil {
		t.Fatal("batch with arity error must fail")
	}
	after := db.Stats()
	if after.Epoch != before.Epoch || after.Tuples != before.Tuples || after.DeltaTuples != 0 {
		t.Fatalf("failed batch leaked state: %+v -> %+v", before, after)
	}
	if r, _ := db.Relation("E"); r.Contains(Tuple{8, 8}) {
		t.Fatal("failed batch published its valid half")
	}
	// Empty/nil batches are fine.
	if _, err := db.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(NewBatch()); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedSurvivesUpdates(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(30, 200, 7)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	pq, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	orderBefore := pq.Order()
	missesBefore := db.Stats().PlanMisses

	if _, err := db.Insert("E", Tuple{200, 201}, Tuple{201, 202}, Tuple{200, 202}); err != nil {
		t.Fatal(err)
	}

	// The held handle follows the update without replanning: same
	// variable order (the plan skeleton was re-versioned, not rebuilt)
	// and the new triangle is visible.
	out, _, err := pq.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tu := range out.Tuples() {
		if tu[0] == 200 || tu[1] == 200 || tu[2] == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("prepared query did not observe the inserted triangle")
	}
	orderAfter := pq.Order()
	if len(orderAfter) != len(orderBefore) {
		t.Fatalf("order changed shape: %v -> %v", orderBefore, orderAfter)
	}
	for i := range orderAfter {
		if orderAfter[i] != orderBefore[i] {
			t.Fatalf("update replanned the variable order: %v -> %v", orderBefore, orderAfter)
		}
	}
	// Re-preparing still hits the plan cache: updates never invalidate.
	if _, err := db.Prepare(src, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().PlanMisses; got != missesBefore {
		t.Fatalf("updates invalidated the plan cache: misses %d -> %d", missesBefore, got)
	}
}

func TestRegisterThenUpdateConverges(t *testing.T) {
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pq, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Register keeps snapshot semantics for the held handle...
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}, {3, 4}})); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := pq.Count(ctx); n != 1 {
		t.Fatalf("held handle must keep its snapshot across Register, got %d", n)
	}
	// ...until the next update batch, which converges it to the head.
	if _, err := db.Insert("E", Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := pq.Count(ctx); n != 3 {
		t.Fatalf("held handle must converge after an update, got %d", n)
	}
	// A Register that changes the arity leaves the handle's plan without
	// a relation it fits: once an update converges it, it must say so.
	if err := db.Register(NewRelation("E", []string{"x", "y", "z"}, []Tuple{{1, 2, 3}})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("E", Tuple{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := pq.Count(ctx); err == nil {
		t.Fatalf("held handle over a re-shaped relation counted %d, want an error", n)
	}
}

// TestSnapshotIsolation hammers a DB with batches that each delete one
// present tuple and insert one absent tuple — every consistent
// snapshot has exactly N tuples — while readers execute prepared
// queries concurrently. Any reader observing N±1 caught a
// half-applied batch. Run with -race.
func TestSnapshotIsolation(t *testing.T) {
	const n = 200
	db := NewDB()
	eb := NewRelationBuilder("E", "x", "y")
	sb := NewRelationBuilder("S", "x")
	present := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		if err := eb.Add(Value(i), Value(i)); err != nil {
			t.Fatal(err)
		}
		present = append(present, Tuple{Value(i), Value(i)})
	}
	// S covers every x the writer will ever use, so the join count
	// equals |E| at every consistent snapshot.
	for i := 0; i < 4*n; i++ {
		if err := sb.Add(Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register(eb.Build(), sb.Build()); err != nil {
		t.Fatal(err)
	}

	single, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	join, err := db.Prepare("Q(A,B) :- E(A,B), S(A)", Options{})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writer: swap one tuple per batch, atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(123))
		next := Value(n)
		for i := 0; !stop.Load(); i++ {
			victim := rng.Intn(len(present))
			batch := NewBatch().
				Delete("E", present[victim]).
				Insert("E", Tuple{next, next})
			us, err := db.Apply(batch)
			if err != nil {
				report(err)
				return
			}
			if us.Inserted != 1 || us.Deleted != 1 {
				report(fmt.Errorf("swap batch was not fully effective: %+v", us))
				return
			}
			present[victim] = Tuple{next, next}
			next++
			if next >= 4*n {
				return // universe exhausted; readers keep checking
			}
		}
	}()

	ctx := context.Background()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300 && !stop.Load(); i++ {
				var got int
				var err error
				switch i % 3 {
				case 0:
					got, _, err = single.Count(ctx)
				case 1:
					got, _, err = join.Count(ctx)
				default:
					var out *Relation
					out, _, err = single.Execute(ctx)
					if err == nil {
						got = out.Len()
					}
				}
				if err != nil {
					report(err)
					return
				}
				if got != n {
					report(fmt.Errorf("reader %d saw a torn snapshot: count %d, want %d", r, got, n))
					stop.Store(true)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestCompaction(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(30, 150, 3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Build up a delta, then fold it synchronously.
	var novel []Tuple
	for i := 0; i < 50; i++ {
		novel = append(novel, Tuple{Value(1000 + i), Value(2000 + i)})
	}
	if _, err := db.Insert("E", novel...); err != nil {
		t.Fatal(err)
	}
	wantAfter, _, err := pq.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wantAfter != want {
		t.Fatalf("isolated edges changed the triangle count: %d -> %d", want, wantAfter)
	}
	if st := db.Stats(); st.DeltaTuples != 50 {
		t.Fatalf("delta depth %d, want 50", st.DeltaTuples)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.DeltaTuples != 0 || st.Compactions == 0 {
		t.Fatalf("after Compact: %+v", st)
	}
	// Results and plans are unchanged by compaction (same epoch, same
	// effective set — the prepared query does not even refresh).
	got, _, err := pq.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("compaction changed the count: %d -> %d", want, got)
	}
	if err := db.Compact("E"); err != nil {
		t.Fatal(err) // empty delta: no-op
	}
	if err := db.Compact("missing"); err == nil {
		t.Fatal("compacting an unknown relation must fail")
	}
}

// TestBackgroundCompaction: Apply compacts a relation whose delta
// crossed the threshold before it returns.
func TestBackgroundCompaction(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(50, 400, 17)); err != nil {
		t.Fatal(err)
	}
	// Ratio 0 compacts after every effective batch (against the
	// minimum base floor the threshold is ratio*minBase = 0).
	db.SetCompactionThreshold(0)
	if _, err := db.Insert("E", Tuple{900, 901}, Tuple{901, 902}); err != nil {
		t.Fatal(err)
	}
	// Apply compacts inline: the fold is installed before it returns.
	if st := db.Stats(); st.Compactions != 1 || st.DeltaTuples != 0 {
		t.Fatalf("Apply returned without compacting: %+v", st)
	}
	if r, _ := db.Relation("E"); !r.Contains(Tuple{900, 901}) {
		t.Fatal("compaction lost an inserted tuple")
	}
}

// TestConcurrentUpdateExecuteRace interleaves inserts, deletes,
// compactions and every prepared execution mode from many goroutines;
// correctness of counts is covered elsewhere — this is the -race probe
// for the snapshot machinery itself.
func TestConcurrentUpdateExecuteRace(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(40, 300, 21)); err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(0.01)
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	pqCount, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				tu := Tuple{Value(rng.Intn(60)), Value(rng.Intn(60))}
				var err error
				if rng.Intn(2) == 0 {
					_, err = db.Insert("E", tu)
				} else {
					_, err = db.Delete("E", tu)
				}
				if err != nil {
					report(err)
					return
				}
			}
		}(int64(w) + 50)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var err error
				switch i % 4 {
				case 0:
					_, _, err = pq.Execute(ctx)
				case 1:
					_, _, err = pq.Count(ctx)
				case 2:
					_, _, err = pqCount.Exists(ctx)
				default:
					_, _, err = pqCount.Count(ctx)
				}
				if err != nil {
					report(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Final state still agrees with a from-scratch rebuild.
	assertUpdatedMatchesFresh(t, db, []string{"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"})
}

// TestBatchEmptySideNoDoubleApply: registering a relation with an
// empty tuple list (ApplyDeltaCSV always queues both sides) must not
// enter it in the batch order twice — that applied the ops twice and
// double-counted every stat.
func TestBatchEmptySideNoDoubleApply(t *testing.T) {
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	us, err := db.Apply(NewBatch().
		Delete("E"). // empty side first, the ApplyDeltaCSV shape
		Insert("E", Tuple{3, 4}, Tuple{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if us.Inserted != 1 || us.InsertNoops != 1 || us.Deleted != 0 {
		t.Fatalf("empty-side batch double-applied: %+v", us)
	}
	if st := db.Stats(); st.Inserted != 1 || st.InsertNoops != 1 {
		t.Fatalf("lifetime counters double-applied: %+v", st)
	}
	// The delta-file path that triggers this shape end to end.
	us, err = db.ApplyDeltaCSV(strings.NewReader("+,5,6\n+,3,4\n"), "E", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if us.Inserted != 1 || us.InsertNoops != 1 {
		t.Fatalf("insert-only delta file double-applied: %+v", us)
	}
}

// TestApplyWidensNarrowedTrie pins a silent-wrong-answer risk of
// uint32-narrowed tries: R and S hold only small values, so their
// tries are narrowed, and then R receives values ≥ 2^32 through Apply.
// The merged snapshot tries of R must come out wide in both column
// orders, and joins mixing R with the still-narrowed S — a two-relation
// path — and with itself — a 2-cycle — must return the oracle's answer
// at p=1 and p=2, through Count and Execute.
func TestApplyWidensNarrowedTrie(t *testing.T) {
	const huge = Value(math.MaxUint32) + 1
	var r, s []Tuple
	rb, sb := NewRelationBuilder("R", "x", "y"), NewRelationBuilder("S", "x", "y")
	for i := Value(0); i < 50; i++ {
		r = append(r, Tuple{i, (i*7 + 1) % 50})
		s = append(s, Tuple{i, (i * 3) % 11})
	}
	for _, tu := range r {
		rb.Add(tu...)
	}
	for _, tu := range s {
		sb.Add(tu...)
	}
	base := rb.Build()
	if tr, err := trie.Build(base, base.Attrs()); err != nil || !tr.Narrowed() {
		t.Fatalf("fixture: R's base trie must be narrowed (err %v)", err)
	}
	db := NewDB()
	if err := db.Register(base, sb.Build()); err != nil {
		t.Fatal(err)
	}
	// Wide sources into narrowed targets, a wide 2-cycle, a wide self-loop.
	wide := []Tuple{{huge, 3}, {huge + 5, 8}, {4, huge}, {huge + 9, 12}, {12, huge + 9}, {huge + 2, huge + 2}}
	if _, err := db.Apply(NewBatch().Insert("R", wide...)); err != nil {
		t.Fatal(err)
	}
	r = append(r, wide...)

	db.mu.RLock()
	ver := db.versions["R"]
	db.mu.RUnlock()
	eff := ver.Effective()
	src := snapshotSource{memo: &db.tries, vers: map[*relation.Relation]*delta.Version{eff: ver}}
	for _, order := range [][]string{{"A", "B"}, {"B", "A"}} {
		tr, err := src.Get(core.Atom{Name: "R", Vars: []string{"A", "B"}, Rel: eff}, order)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Narrowed() {
			t.Fatalf("merged trie of R in order %v stayed narrowed after wide inserts", order)
		}
	}

	// The oracle: nested loops over the tuple lists.
	var path, cycle []Tuple
	for _, a := range r {
		for _, b := range s {
			if a[1] == b[0] {
				path = append(path, Tuple{a[0], a[1], b[1]})
			}
		}
		for _, b := range r {
			if a[1] == b[0] && b[1] == a[0] {
				cycle = append(cycle, Tuple{a[0], a[1]})
			}
		}
	}
	if len(cycle) == 0 {
		t.Fatal("fixture: the 2-cycle must have answers")
	}
	ctx := context.Background()
	for _, c := range []struct {
		query string
		want  []Tuple
	}{
		{"Q(A,B,C) :- R(A,B), S(B,C)", path},
		{"Q(A,B) :- R(A,B), R(B,A)", cycle},
	} {
		slices.SortFunc(c.want, func(a, b Tuple) int { return slices.Compare(a, b) })
		for _, p := range []int{1, 2} {
			pq, err := db.Prepare(c.query, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			n, _, err := pq.Count(ctx)
			if err != nil || n != len(c.want) {
				t.Fatalf("%s p=%d: Count = %d, %v; oracle %d", c.query, p, n, err, len(c.want))
			}
			got, _, err := pq.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if tuples := got.Tuples(); !slices.EqualFunc(tuples, c.want, slices.Equal) {
				t.Fatalf("%s p=%d: Execute = %v; oracle %v", c.query, p, tuples, c.want)
			}
		}
	}
}
