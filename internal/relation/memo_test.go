package relation_test

import (
	"sync"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
	"wcoj/internal/stats"
)

// TestForPlannerMeasuresOnce: the three atoms of a self-join triangle
// and an alpha-renamed copy of the query share one measurement of G,
// because statistics are memoized on the relation, not per atom or per
// variable naming.
func TestForPlannerMeasuresOnce(t *testing.T) {
	g := dataset.RandomGraph(60, 500, 1)
	triangle := func(a, b, c string) *core.Query {
		q, err := core.NewQuery([]string{a, b, c}, []core.Atom{
			{Name: "G", Vars: []string{a, b}, Rel: g},
			{Name: "G", Vars: []string{b, c}, Rel: g},
			{Name: "G", Vars: []string{a, c}, Rel: g},
		})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if _, err := stats.ForPlanner(triangle("A", "B", "C"), 2); err != nil {
		t.Fatal(err)
	}
	// A binary relation has five (X ⊂ Y) pairs: (∅,{0}), (∅,{1}),
	// (∅,{0,1}), ({0},{0,1}), ({1},{0,1}).
	if n := relation.DegreeMemoLen(g); n != 5 {
		t.Fatalf("G holds %d memoized statistics, want 5", n)
	}
	// Overwrite the memoized |G|: if every atom of the renamed query
	// reads the memo, all three degree constraints (∅, Y) with |Y| = 2
	// report the overwritten value (the cardinality constraints read
	// Len and keep 500).
	relation.SetDegree(g, 0, 0b11, 12345)
	renamed, err := stats.ForPlanner(triangle("U", "V", "W"), 2)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, c := range renamed {
		if c.N == 12345 {
			hits++
		}
	}
	if hits != 3 || relation.DegreeMemoLen(g) != 5 {
		t.Fatalf("%d atoms read the memo (want 3); G holds %d statistics (want 5)", hits, relation.DegreeMemoLen(g))
	}
}

// TestMemoIndexConcurrentReaders: readers scan the published index
// list while first builders publish new entries, for both column
// orders of one relation. Every caller of one order gets the one index
// built for it, and, under -race, a write to a published list after
// its Store is reported here.
func TestMemoIndexConcurrentReaders(t *testing.T) {
	g := dataset.RandomGraph(30, 100, 2)
	perms := [][]int{{0, 1}, {1, 0}}
	got := make([][]any, len(perms))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				k := (w + i) % len(perms)
				ix, _, err := g.MemoIndex(perms[k], func() (any, error) { return new(int), nil })
				if err != nil {
					t.Error(err)
					return
				}
				if again, ok := g.Index(perms[k]); !ok || again != ix {
					t.Errorf("perm %v: Index returned %v after MemoIndex returned %v", perms[k], again, ix)
					return
				}
				mu.Lock()
				got[k] = append(got[k], ix)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for k, ixs := range got {
		for _, ix := range ixs {
			if ix != ixs[0] {
				t.Fatalf("perm %v: two indexes were published", perms[k])
			}
		}
	}
}
