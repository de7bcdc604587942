package wcoj

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/wal"
)

// sameState asserts two DBs agree on update epoch, relation names and
// effective tuple sets.
func sameState(t *testing.T, got, want *DB) {
	t.Helper()
	if ge, we := got.Stats().Epoch, want.Stats().Epoch; ge != we {
		t.Fatalf("epoch %d, want %d", ge, we)
	}
	names := want.Names()
	if gn := got.Names(); len(gn) != len(names) {
		t.Fatalf("relations %v, want %v", gn, names)
	}
	for _, name := range names {
		gr, ok := got.Relation(name)
		if !ok {
			t.Fatalf("relation %q missing after recovery", name)
		}
		wr, _ := want.Relation(name)
		if !gr.Equal(wr) {
			t.Fatalf("relation %q diverged after recovery: %d tuples, want %d", name, gr.Len(), wr.Len())
		}
	}
}

func TestOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(30, 200, 3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5; step++ {
		b := NewBatch()
		for i := 0; i < 40; i++ {
			tu := Tuple{Value(rng.Intn(35)), Value(rng.Intn(35))}
			if rng.Intn(3) == 0 {
				b.Delete("E", tu)
			} else {
				b.Insert("E", tu)
			}
		}
		if _, err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameState(t, re, db)

	// The recovered DB answers queries and accepts further updates.
	pq, err := re.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Apply(NewBatch().Insert("E", Tuple{500, 501})); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirDictSurvives(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := db.Dict()
	alice, bob := d.ID("alice"), d.ID("bob")
	if err := db.Register(NewRelation("Likes", []string{"a", "b"}, []Tuple{{alice, bob}})); err != nil {
		t.Fatal(err)
	}
	carol := d.ID("carol")
	if _, err := db.Apply(NewBatch().Insert("Likes", Tuple{bob, carol})); err != nil {
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
	rd := re.Dict()
	if rd.Len() != d.Len() {
		t.Fatalf("dict length %d, want %d", rd.Len(), d.Len())
	}
	for _, s := range []string{"alice", "bob", "carol"} {
		if rd.ID(s) != d.ID(s) {
			t.Fatalf("dict id for %q diverged after recovery", s)
		}
	}
	sameState(t, re, db)
}

// TestOpenDirCompaction checks the snapshot+rotation path: after
// Compact, recovery must come from the new-generation snapshot (old
// log pruned) and still land on the identical state; post-compaction
// batches replay on top of it.
func TestOpenDirCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(20, 80, 11)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	mutate := func(n int) {
		t.Helper()
		for step := 0; step < n; step++ {
			b := NewBatch()
			for i := 0; i < 20; i++ {
				tu := Tuple{Value(rng.Intn(25)), Value(rng.Intn(25))}
				if rng.Intn(3) == 0 {
					b.Delete("E", tu)
				} else {
					b.Insert("E", tu)
				}
			}
			if _, err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate(4)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000001.snap")); err != nil {
		t.Fatalf("no generation-1 snapshot after Compact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000000000000.log")); !os.IsNotExist(err) {
		t.Fatalf("generation-0 log survived Compact: %v", err)
	}
	mutate(3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameState(t, re, db)
}

func TestClosedDBRejectsWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(NewBatch().Insert("E", Tuple{3, 4})); err == nil {
		t.Fatal("Apply on a closed durable DB succeeded")
	}
	if err := db.Register(NewRelation("S", []string{"x"}, nil)); err == nil {
		t.Fatal("Register on a closed durable DB succeeded")
	}
	// Reads stay up: closing releases the log, not the snapshot state.
	if r, ok := db.Relation("E"); !ok || r.Len() != 1 {
		t.Fatal("reads broken after Close")
	}
	// Close is idempotent, including on a memory-only DB.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := NewDB().Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "new")
	db, err := OpenDir(dir)
	if err != nil {
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
	if re.Stats().Epoch != 0 || len(re.Names()) != 0 {
		t.Fatalf("empty dir recovered non-empty state: %+v", re.Stats())
	}
}

// TestSnapshotIsolationWAL is TestSnapshotIsolation on a durable DB:
// swap batches (delete one present tuple, insert one absent one — a
// consistent snapshot always holds exactly n tuples) race against
// prepared readers while explicit compactions rotate the WAL
// underneath them. Any reader seeing n±1 caught a half-applied batch;
// any writer error caught the log tripping over its own rotation.
// After the storm the directory must recover to the final state
// exactly. Run with -race.
func TestSnapshotIsolationWAL(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eb := NewRelationBuilder("E", "x", "y")
	present := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		if err := eb.Add(Value(i), Value(i)); err != nil {
			t.Fatal(err)
		}
		present = append(present, Tuple{Value(i), Value(i)})
	}
	if err := db.Register(eb.Build()); err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B) :- E(A,B)", Options{})
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

	const swaps = 240
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(321))
		next := Value(n)
		for i := 0; i < swaps && !stop.Load(); i++ {
			victim := rng.Intn(len(present))
			us, err := db.Apply(NewBatch().
				Delete("E", present[victim]).
				Insert("E", Tuple{next, next}))
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
			if i%32 == 31 {
				if err := db.Compact(); err != nil {
					report(err)
					return
				}
			}
		}
	}()

	ctx := context.Background()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200 && !stop.Load(); i++ {
				var got int
				var err error
				if i%2 == 0 {
					got, _, err = pq.Count(ctx)
				} else {
					var out *Relation
					out, _, err = pq.Execute(ctx)
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

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("recovery after concurrent WAL traffic: %v", err)
	}
	defer re.Close()
	sameState(t, re, db)
}

// TestOpenDirIgnoresRetiredViewAlgorithm: a view record's MatAlgo byte
// is a retired option, written as 0 and ignored on replay. A log whose
// view was registered with MatAlgo = 1 (Leapfrog Triejoin, when views
// had an algorithm) recovers that view with its count unchanged,
// whatever Algorithm 1 names today.
func TestOpenDirIgnoresRetiredViewAlgorithm(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(dataset.RandomGraph(30, 200, 3)); err != nil {
		t.Fatal(err)
	}
	const src = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	pq, err := db.Prepare(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Count(context.Background())
	if err != nil || want == 0 {
		t.Fatalf("Count = %d, %v: the case must have triangles", want, err)
	}
	epoch := db.Stats().Epoch
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{Kind: wal.KindMaterialize, Epoch: epoch, MatID: "m0", MatSrc: src,
		MatMode: uint8(MaterializeCount), MatAlgo: 1}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("recovery of a view logged with MatAlgo 1: %v", err)
	}
	defer re.Close()
	mq, ok := re.Materialized("m0")
	if !ok || mq.Count() != int64(want) {
		t.Fatalf("recovered view m0 (found %v), want it counting %d", ok, want)
	}
}
