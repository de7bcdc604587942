package wcoj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/core"
	"wcoj/internal/dataset"
)

// matRandomBatch builds a batch of n random edge inserts/deletes over a
// small domain, so deletes regularly hit live tuples and batches carry
// no-ops, churn and resurrections.
func matRandomBatch(r *rand.Rand, rel string, n, domain int) *Batch {
	b := NewBatch()
	for i := 0; i < n; i++ {
		t := Tuple{Value(r.Intn(domain)), Value(r.Intn(domain))}
		if r.Intn(2) == 0 {
			b.Insert(rel, t)
		} else {
			b.Delete(rel, t)
		}
	}
	return b
}

// matViewSpec pairs one maintained view with the checker that compares
// it against a from-scratch Prepare of the same query.
type matViewSpec struct {
	name  string
	query string
	opts  MaterializeOptions
}

// checkAgainstRecompute asserts the maintained value is byte-identical
// to a from-scratch evaluation of the same query at the current
// snapshot, and that its epoch matches the DB's.
func checkAgainstRecompute(t *testing.T, db *DB, mq *MaterializedQuery, spec matViewSpec) {
	t.Helper()
	ctx := context.Background()
	res := mq.Result()
	if res.Err != nil {
		t.Fatalf("%s: maintained result stale: %v", spec.name, res.Err)
	}
	if got, want := res.Epoch, db.Stats().Epoch; got != want {
		t.Fatalf("%s: result epoch %d, DB epoch %d", spec.name, got, want)
	}
	opts := Options{Parallelism: spec.opts.Parallelism, Project: spec.opts.Project}
	pq, err := db.Prepare(spec.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	switch spec.opts.Mode {
	case MaterializeCount, MaterializeExists:
		want, _, err := pq.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(want) {
			t.Fatalf("%s: maintained count %d, recompute %d", spec.name, res.Count, want)
		}
		if spec.opts.Mode == MaterializeExists && mq.Exists() != (want != 0) {
			t.Fatalf("%s: maintained exists %t, recompute %t", spec.name, mq.Exists(), want != 0)
		}
	case MaterializeRows:
		want, _, err := pq.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows == nil || !res.Rows.Equal(want) {
			got := -1
			if res.Rows != nil {
				got = res.Rows.Len()
			}
			t.Fatalf("%s: maintained rows differ from recompute (%d vs %d tuples)", spec.name, got, want.Len())
		}
		if res.Count != int64(want.Len()) {
			t.Fatalf("%s: maintained count %d, rows %d", spec.name, res.Count, want.Len())
		}
	}
}

// TestMaterializeEquivalence drives a randomized insert/delete stream
// through a DB carrying one maintained view per (mode, engine,
// parallelism, projection) combination and asserts, after every batch,
// that each maintained value is byte-identical to a from-scratch
// evaluation at that snapshot.
func TestMaterializeEquivalence(t *testing.T) {
	const domain = 30
	specs := []matViewSpec{
		{name: "count-gj", query: "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			opts: MaterializeOptions{Mode: MaterializeCount}},
		{name: "count-par", query: "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			opts: MaterializeOptions{Mode: MaterializeCount, Parallelism: 4}},
		{name: "count-project", query: "P(A,B,C) :- E(A,B), F(B,C)",
			opts: MaterializeOptions{Mode: MaterializeCount, Project: []string{"A", "C"}}},
		{name: "exists", query: "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			opts: MaterializeOptions{Mode: MaterializeExists, Parallelism: 2}},
		{name: "rows", query: "P(A,B,C) :- E(A,B), F(B,C)",
			opts: MaterializeOptions{Mode: MaterializeRows}},
		{name: "rows-project", query: "P(A,B,C) :- E(A,B), F(B,C)",
			opts: MaterializeOptions{Mode: MaterializeRows, Project: []string{"A", "C"}}},
	}

	db := NewDB()
	if err := db.Register(dataset.RandomGraph(domain, 120, 11)); err != nil {
		t.Fatal(err)
	}
	f := dataset.RandomGraph(domain, 100, 12)
	fr, err := f.Rename("F", f.Attrs()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(fr); err != nil {
		t.Fatal(err)
	}

	views := make([]*MaterializedQuery, len(specs))
	for i, spec := range specs {
		mq, err := db.Materialize(spec.query, spec.opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		views[i] = mq
		checkAgainstRecompute(t, db, mq, spec)
	}
	if got := db.Stats().MaterializedViews; got != len(specs) {
		t.Fatalf("MaterializedViews = %d, want %d", got, len(specs))
	}

	r := rand.New(rand.NewSource(42))
	for step := 0; step < 60; step++ {
		b := NewBatch()
		// Alternate between single-relation and cross-relation batches so
		// the differential exercises both the untouched-occurrence skip
		// and the post/pre split across relations.
		switch step % 3 {
		case 0:
			b = matRandomBatch(r, "E", 1+r.Intn(20), domain)
		case 1:
			b = matRandomBatch(r, "F", 1+r.Intn(20), domain)
		default:
			for _, op := range matRandomBatch(r, "E", 1+r.Intn(10), domain).ops["E"] {
				if op.Del {
					b.Delete("E", op.T)
				} else {
					b.Insert("E", op.T)
				}
			}
			for _, op := range matRandomBatch(r, "F", 1+r.Intn(10), domain).ops["F"] {
				if op.Del {
					b.Delete("F", op.T)
				} else {
					b.Insert("F", op.T)
				}
			}
		}
		if _, err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			checkAgainstRecompute(t, db, views[i], spec)
		}
	}
}

// TestMaterializeUntouchedRelation checks that a batch over one
// relation advances a view over another by the cheap epoch-copy path,
// with the value unchanged.
func TestMaterializeUntouchedRelation(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(20, 80, 3)); err != nil {
		t.Fatal(err)
	}
	other := NewRelationBuilder("G", "X", "Y")
	if err := other.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(other.Build()); err != nil {
		t.Fatal(err)
	}
	mq, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := mq.Result()
	if _, err := db.Insert("G", Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}
	after := mq.Result()
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d after unrelated batch, want %d", after.Epoch, before.Epoch+1)
	}
	if after.Count != before.Count || after.Err != nil {
		t.Fatalf("count changed across unrelated batch: %+v vs %+v", after, before)
	}
}

// TestMaterializeRegisterRecompute checks that Register — which
// replaces a relation wholesale, with no batch delta to fold —
// recomputes maintained views before returning, and that a Register
// that breaks a view (arity change) marks it stale-with-error until a
// later Register heals it.
func TestMaterializeRegisterRecompute(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(20, 80, 7)); err != nil {
		t.Fatal(err)
	}
	mq, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Replace E with a known 3-cycle: exactly one triangle, counted 3
	// times (once per rotation of the cycle through the variable roles).
	cyc := NewRelationBuilder("E", "src", "dst")
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		if err := cyc.Add(Value(e[0]), Value(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register(cyc.Build()); err != nil {
		t.Fatal(err)
	}
	if res := mq.Result(); res.Err != nil || res.Count != 3 {
		t.Fatalf("after Register: %+v, want count 3", res)
	}

	// Replace E with the wrong arity: the view cannot be recomputed and
	// must go stale (loudly), keeping the last good count.
	bad := NewRelationBuilder("E", "x", "y", "z")
	if err := bad.Add(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(bad.Build()); err != nil {
		t.Fatal(err)
	}
	if res := mq.Result(); res.Err == nil || res.Count != 3 {
		t.Fatalf("after arity-breaking Register: %+v, want stale with count 3", res)
	}

	// Healing Register: the view recomputes and drops the error.
	empty := NewRelationBuilder("E", "src", "dst")
	if err := db.Register(empty.Build()); err != nil {
		t.Fatal(err)
	}
	if res := mq.Result(); res.Err != nil || res.Count != 0 {
		t.Fatalf("after healing Register: %+v, want count 0", res)
	}

	// And the next batch maintains differentially again.
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		if _, err := db.Insert("E", Tuple{Value(e[0]), Value(e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if res := mq.Result(); res.Err != nil || res.Count != 3 {
		t.Fatalf("after re-inserting the cycle: %+v, want count 3", res)
	}
}

// TestMaterializeCountOverflow: a maintained COUNT whose value passes
// 2^63−1 goes stale with agg.ErrCountOverflow, as a prepared Count of
// the same query does, instead of wrapping; once the data shrinks back
// the self-heal recompute clears the error. Six atoms sharing A over
// one vertex's k out-edges count k^6: 1400^6 fits int64, 1700^6 does
// not.
func TestMaterializeCountOverflow(t *testing.T) {
	edges := func(lo, hi int) []Tuple {
		var ts []Tuple
		for y := lo; y < hi; y++ {
			ts = append(ts, Tuple{1, Value(y)})
		}
		return ts
	}
	db := NewDB()
	if err := db.Register(NewRelation("E", []string{"x", "y"}, edges(0, 1400))); err != nil {
		t.Fatal(err)
	}
	const src = "Q(A,B,C,D,E,F,G) :- E(A,B), E(A,C), E(A,D), E(A,E), E(A,F), E(A,G)"
	mq, err := db.Materialize(src, MaterializeOptions{Mode: MaterializeCount})
	if err != nil {
		t.Fatal(err)
	}
	const fits = int64(1400 * 1400 * 1400 * 1400 * 1400 * 1400)
	if res := mq.Result(); res.Err != nil || res.Count != fits {
		t.Fatalf("registered view: %+v, want count %d", res, fits)
	}
	if _, err := db.Insert("E", edges(1400, 1700)...); err != nil {
		t.Fatal(err)
	}
	if res := mq.Result(); !errors.Is(res.Err, agg.ErrCountOverflow) || res.Count != fits {
		t.Fatalf("after growing past 2^63: %+v, want stale with ErrCountOverflow and count %d", res, fits)
	}
	pq, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := pq.Count(context.Background()); !errors.Is(err, agg.ErrCountOverflow) {
		t.Fatalf("prepared Count = %d, %v, want ErrCountOverflow", n, err)
	}
	if _, err := db.Delete("E", edges(1400, 1700)...); err != nil {
		t.Fatal(err)
	}
	if res := mq.Result(); res.Err != nil || res.Count != fits {
		t.Fatalf("after shrinking back: %+v, want healed count %d", res, fits)
	}
}

// TestMaterializeClose checks Close stops maintenance, keeps the last
// value readable, and unregisters the view.
func TestMaterializeClose(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(15, 50, 9)); err != nil {
		t.Fatal(err)
	}
	mq, err := db.Materialize("P(A,B,C) :- E(A,B), E(B,C)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := mq.Result()
	if err := mq.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mq.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, ok := db.Materialized(mq.ID()); ok {
		t.Fatal("closed view still registered")
	}
	if got := db.Stats().MaterializedViews; got != 0 {
		t.Fatalf("MaterializedViews = %d after Close", got)
	}
	if _, err := db.Insert("E", Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := mq.Result(); got.Epoch != last.Epoch || got.Count != last.Count {
		t.Fatalf("closed view moved: %+v vs %+v", got, last)
	}
}

// TestMaterializeValidation covers the option and state errors.
func TestMaterializeValidation(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(10, 30, 1)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		query string
		opts  MaterializeOptions
		want  string
	}{
		{"bad-mode", "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			MaterializeOptions{Mode: MaterializeMode(9)}, "unknown mode"},
		{"exists-project", "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			MaterializeOptions{Mode: MaterializeExists, Project: []string{"A"}}, "EXISTS"},
		{"bad-project", "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
			MaterializeOptions{Project: []string{"Z"}}, "Z"},
		{"no-relation", "Q(A,B) :- Nope(A,B)", MaterializeOptions{}, "Nope"},
		{"parse", "nope(", MaterializeOptions{}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := db.Materialize(tc.query, tc.opts)
			if err == nil {
				t.Fatalf("Materialize(%q, %+v) succeeded", tc.query, tc.opts)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := ParseMaterializeMode("rows"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMaterializeMode("nope"); err == nil {
		t.Fatal("ParseMaterializeMode accepted garbage")
	}
	for _, m := range []MaterializeMode{MaterializeCount, MaterializeExists, MaterializeRows} {
		back, err := ParseMaterializeMode(m.String())
		if err != nil || back != m {
			t.Fatalf("mode %v does not round-trip: %v, %v", m, back, err)
		}
	}
}

// TestMaterializeConcurrentReaders hammers a maintained view with
// concurrent readers while a writer applies batches — the race
// detector's view of the publish path — and asserts every observed
// value is one the writer actually published for that epoch.
func TestMaterializeConcurrentReaders(t *testing.T) {
	const domain = 20
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(domain, 60, 21)); err != nil {
		t.Fatal(err)
	}
	mq, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The writer records the count it published at each epoch; readers
	// check any (epoch, count) pair they observe against that record.
	var mu sync.Mutex
	published := map[uint64]int64{db.Stats().Epoch: mq.Count()}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := mq.Result()
				mu.Lock()
				want, ok := published[res.Epoch]
				mu.Unlock()
				if ok && want != res.Count {
					t.Errorf("epoch %d: read count %d, writer published %d", res.Epoch, res.Count, want)
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 40; step++ {
		if _, err := db.Apply(matRandomBatch(r, "E", 1+r.Intn(8), domain)); err != nil {
			t.Fatal(err)
		}
		res := mq.Result()
		mu.Lock()
		published[res.Epoch] = res.Count
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}

// TestMaterializeWALRecovery checks the durability story: views
// survive a close/reopen (including through a log rotation), closed
// views stay gone, recovered views keep their ids and values, resume
// differential maintenance, and new views get fresh ids.
func TestMaterializeWALRecovery(t *testing.T) {
	const domain = 25
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(domain, 100, 31)); err != nil {
		t.Fatal(err)
	}
	keep, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Materialize("P(A,B,C) :- E(A,B), E(B,C)", MaterializeOptions{Mode: MaterializeRows, Project: []string{"A", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := db.Materialize("X(A,B) :- E(A,B)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		if _, err := db.Apply(matRandomBatch(r, "E", 1+r.Intn(10), domain)); err != nil {
			t.Fatal(err)
		}
	}
	// Force a snapshot + rotation: the fresh generation must re-log the
	// live registrations. Closing a view afterwards logs the retirement
	// into the new generation, which must keep its id off the reissue
	// floor.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Apply(matRandomBatch(r, "E", 1+r.Intn(10), domain)); err != nil {
			t.Fatal(err)
		}
	}
	wantKeep, wantRows := keep.Result(), rows.Result()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Materialized(gone.ID()); ok {
		t.Fatal("closed view resurrected by recovery")
	}
	rk, ok := re.Materialized(keep.ID())
	if !ok {
		t.Fatalf("view %s not re-armed", keep.ID())
	}
	rr, ok := re.Materialized(rows.ID())
	if !ok {
		t.Fatalf("view %s not re-armed", rows.ID())
	}
	if got := rk.Result(); got.Err != nil || got.Count != wantKeep.Count || got.Epoch != wantKeep.Epoch {
		t.Fatalf("recovered count view %+v, want %+v", got, wantKeep)
	}
	if got := rr.Result(); got.Err != nil || got.Count != wantRows.Count || !got.Rows.Equal(wantRows.Rows) {
		t.Fatalf("recovered rows view differs: %+v vs %+v", got, wantRows)
	}
	if rk.Source() != keep.Source() || rk.Mode() != keep.Mode() {
		t.Fatalf("recovered view lost its definition: %q %v", rk.Source(), rk.Mode())
	}

	// Ids continue past the recovered ones.
	fresh, err := re.Materialize("Y(A,B) :- E(A,B)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{keep.ID(), rows.ID(), gone.ID()} {
		if fresh.ID() == old {
			t.Fatalf("fresh view reused id %s", old)
		}
	}

	// Maintenance still runs differentially after recovery.
	for i := 0; i < 5; i++ {
		if _, err := re.Apply(matRandomBatch(r, "E", 1+r.Intn(10), domain)); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, re, rk, matViewSpec{name: "recovered-count",
			query: "T(A,B,C) :- E(A,B), E(B,C), E(C,A)", opts: MaterializeOptions{}})
		checkAgainstRecompute(t, re, rr, matViewSpec{name: "recovered-rows",
			query: "P(A,B,C) :- E(A,B), E(B,C)",
			opts:  MaterializeOptions{Mode: MaterializeRows, Project: []string{"A", "C"}}})
	}
}

// TestMaterializeRetiredIDAfterRotation: a view retired before a log
// rotation keeps its id off the reissue floor even when it was the
// highest id and no live view remembers it.
func TestMaterializeRetiredIDAfterRotation(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(10, 30, 7)); err != nil {
		t.Fatal(err)
	}
	var views []*MaterializedQuery
	for i := 0; i < 2; i++ {
		mq, err := db.Materialize("X(A,B) :- E(A,B)", MaterializeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, mq)
	}
	if views[1].ID() != "m1" {
		t.Fatalf("second view id %s, want m1", views[1].ID())
	}
	if err := views[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(NewBatch().Insert("E", Tuple{100, 101})); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	fresh, err := re.Materialize("Y(A,B) :- E(A,B)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "m2" {
		t.Fatalf("fresh view after rotation got id %s, want m2", fresh.ID())
	}
}

// TestMaterializeClosedDB checks that a closed durable DB rejects new
// registrations (writers must fail rather than continue non-durably).
func TestMaterializeClosedDB(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(10, 30, 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("X(A,B) :- E(A,B)", MaterializeOptions{}); err == nil {
		t.Fatal("Materialize succeeded on a closed DB")
	}
}

// TestMaterializeViewsList checks registration-order listing.
func TestMaterializeViewsList(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(10, 30, 4)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 12; i++ {
		mq, err := db.Materialize("X(A,B) :- E(A,B)", MaterializeOptions{Mode: MaterializeMode(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, mq.ID())
	}
	got := db.MaterializedViews()
	if len(got) != len(want) {
		t.Fatalf("listed %d views, want %d", len(got), len(want))
	}
	for i, mq := range got {
		if mq.ID() != want[i] {
			t.Fatalf("view %d listed as %s, want %s (registration order)", i, mq.ID(), want[i])
		}
	}
}

// TestMaterializeChurnBatch pins the per-batch delta semantics end to
// end: a batch whose operations cancel (insert then delete of the same
// novel tuple) must leave the maintained value unchanged, while
// resurrection (delete then insert of a live tuple) must too.
func TestMaterializeChurnBatch(t *testing.T) {
	db := NewDB()
	e := NewRelationBuilder("E", "src", "dst")
	for _, ed := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		if err := e.Add(Value(ed[0]), Value(ed[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register(e.Build()); err != nil {
		t.Fatal(err)
	}
	mq, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mq.Count() != 3 {
		t.Fatalf("initial count %d, want 3", mq.Count())
	}

	// Net-nothing churn: a novel edge inserted and deleted in one batch,
	// and a live edge deleted and re-inserted.
	b := NewBatch().
		Insert("E", Tuple{7, 8}).Delete("E", Tuple{7, 8}).
		Delete("E", Tuple{1, 2}).Insert("E", Tuple{1, 2})
	us, err := db.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	res := mq.Result()
	if res.Err != nil || res.Count != 3 {
		t.Fatalf("after churn batch: %+v, want count 3", res)
	}
	if res.Epoch != us.Epoch {
		t.Fatalf("view epoch %d, batch epoch %d", res.Epoch, us.Epoch)
	}

	// Breaking the cycle in the same batch that builds a new one.
	b = NewBatch().
		Delete("E", Tuple{3, 1}).
		Insert("E", Tuple{3, 4}).Insert("E", Tuple{4, 1})
	if _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := mq.Count(); got != 0 {
		t.Fatalf("after breaking the 3-cycle into a 4-path: count %d, want 0", got)
	}
	if _, err := db.Insert("E", Tuple{1, 3}); err != nil {
		t.Fatal(err)
	}
	// 1→3→4→1 is a triangle via edges (3,4),(4,1),(1,3): 3 rotations.
	if got := mq.Count(); got != 3 {
		t.Fatalf("after closing the new cycle: count %d, want 3", got)
	}
}

// TestMaterializeID sanity-checks the id formatting the WAL replay
// parses back.
func TestMaterializeID(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(10, 30, 6)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mq, err := db.Materialize("X(A,B) :- E(A,B)", MaterializeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%d", i); mq.ID() != want {
			t.Fatalf("view id %q, want %q", mq.ID(), want)
		}
	}
}

// TestMaterializeWriterSlot: a p=2 maintained triangle COUNT equals a
// from-scratch recompute after every batch while Apply holds its core
// slot and its maintenance terms search on it, with p=2 readers
// sharding beside the writer (their workers yield to it), and every
// slot is back once the writes and reads are done.
func TestMaterializeWriterSlot(t *testing.T) {
	const domain = 40
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(domain, 300, 21)); err != nil {
		t.Fatal(err)
	}
	spec := matViewSpec{name: "count-p2", query: "T(A,B,C) :- E(A,B), E(B,C), E(C,A)",
		opts: MaterializeOptions{Mode: MaterializeCount, Parallelism: 2}}
	mq, err := db.Materialize(spec.query, spec.opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, mq, spec)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			pq, err := db.Prepare(spec.query, Options{Parallelism: 2})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := pq.Count(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 40; step++ {
		if _, err := db.Apply(matRandomBatch(r, "E", 1+r.Intn(30), domain)); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, db, mq, spec)
	}
	close(done)
	readers.Wait()
	if b := core.CoresBusy(); b != 0 {
		t.Fatalf("%d core slots still held after the writes and reads", b)
	}
}
