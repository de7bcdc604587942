package wcoj

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"wcoj/internal/dataset"
)

// TestExistsAllocs: a prepared query's serial Exists of the triangle
// over a power-law graph allocates as much at 4|E| edges as at |E|: its
// levels stream, so it pays for the witness it finds, not for a
// materialized level 0.
func TestExistsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	measure := func(m int) (allocs, bytes float64) {
		db := NewDB()
		if err := db.Register(dataset.PowerLawGraph(m/5, m, 1.0, 1)); err != nil {
			t.Fatal(err)
		}
		pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if found, _, err := pq.Exists(context.Background()); err != nil || !found {
				t.Fatalf("Exists = %v, %v: the case must have triangles", found, err)
			}
		}
		run()
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const m = 25000
	a1, b1 := measure(m)
	a4, b4 := measure(4 * m)
	if a4 != a1 || b4 > b1+256 {
		t.Errorf("Exists allocates %v times, %.0f B at |E| = %d, and %v times, %.0f B at 4|E|: want the same", a1, b1, m, a4, b4)
	}
	t.Logf("%v allocations, %.0f B per Exists", a1, b1)
}

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
		for _, a := range algoAxis {
			t.Run(fmt.Sprintf("E=%d/%s", m, a.name), func(t *testing.T) {
				pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
					Options{Algorithm: a.algo, Parallelism: 1, DisablePushdown: true})
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
