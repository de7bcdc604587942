package wcoj

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/trie"
)

// TestTrieMemoAlphaRenamed: tries are keyed by (relation, column
// permutation), so alpha-renamed queries and every atom of a self-join
// over one binary relation share its at most two tries.
func TestTrieMemoAlphaRenamed(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(80, 600, 9)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, src := range []string{
		"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
		"Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)",
		"Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)",
		"Q(P,R,S,U) :- E(P,R), E(R,S), E(S,U)",
		"Q(A,B) :- E(A,B), E(B,A)",
	} {
		for _, opts := range []Options{{}, {Algorithm: AlgoLeapfrog}} {
			pq, err := db.Prepare(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := pq.Execute(ctx); err != nil {
				t.Fatal(err)
			}
			if _, _, err := pq.Count(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := db.Stats(); st.TrieMisses > 2 || st.TrieHits == 0 {
		t.Fatalf("one binary relation: %d builds, %d hits; want <= 2 builds", st.TrieMisses, st.TrieHits)
	}
}

// TestTrieMemoCollected: a merged snapshot trie is memoized on its
// version's effective relation, so it is collected once a later batch
// has superseded that version and no plan holds it — no cache entry
// outlives its data.
func TestTrieMemoCollected(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(60, 400, 5)); err != nil {
		t.Fatal(err)
	}
	db.SetCompactionThreshold(1e9) // keep the delta: reads merge it
	// Under C,B,A the atom E(A,B) reads E's columns reversed, so its
	// trie after a write is a trie.Merge result, not E's own storage.
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{Order: []string{"C", "B", "A"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var collected atomic.Bool
	func() {
		if _, err := db.Insert("E", Tuple{1000, 1001}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pq.Count(ctx); err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		eff := db.versions["E"].Effective()
		db.mu.RUnlock()
		ix, ok := eff.Index([]int{1, 0})
		if !ok {
			t.Fatal("no merged trie memoized on the effective relation")
		}
		runtime.SetFinalizer(ix.(*trie.Trie), func(*trie.Trie) { collected.Store(true) })
	}()
	if _, err := db.Insert("E", Tuple{1001, 1002}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.Count(ctx); err != nil { // moves the plan to the new version
		t.Fatal(err)
	}
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !collected.Load() {
		t.Fatal("the superseded version's merged trie was never collected")
	}
}
