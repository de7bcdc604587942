package wcoj

import (
	"context"
	"fmt"
	"testing"

	"wcoj/internal/dataset"
)

// TestCountAllocs: a prepared query's serial enumerating Count of the
// triangle over a power-law graph makes a bounded number of
// allocations at 5k and at 20k edges — the searcher and its per-depth
// buffers, nothing per level or per value — under both trie
// algorithms.
func TestCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, m := range []int{5000, 20000} {
		db := NewDB()
		if err := db.Register(dataset.PowerLawGraph(m/5, m, 1.0, 1)); err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			t.Run(fmt.Sprintf("E=%d/%v", m, algo), func(t *testing.T) {
				pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
					Options{Algorithm: algo, Parallelism: 1, DisablePushdown: true})
				if err != nil {
					t.Fatal(err)
				}
				if n, _, err := pq.Count(context.Background()); err != nil || n == 0 {
					t.Fatalf("Count = %d, %v: the case must have triangles", n, err)
				}
				a := testing.AllocsPerRun(3, func() {
					if _, _, err := pq.Count(context.Background()); err != nil {
						t.Fatal(err)
					}
				})
				if a > 64 {
					t.Errorf("%v allocations per Count, want <= 64", a)
				}
			})
		}
	}
}
