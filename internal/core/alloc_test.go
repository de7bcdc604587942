package core

import (
	"context"
	"fmt"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// TestSearchAllocs: a serial enumeration over a built plan makes a
// bounded number of allocations — its searcher and the growth of its
// per-depth buffers — however large the data, under both level
// strategies: the level kernels allocate nothing per call.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, m := range []int{5000, 20000} {
		e := dataset.PowerLawGraph(m/5, m, 1.0, 1)
		q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
			{Name: "E", Vars: []string{"A", "B"}, Rel: e},
			{Name: "E", Vars: []string{"B", "C"}, Rel: e},
			{Name: "E", Vars: []string{"A", "C"}, Rel: e},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPlanSrc(new(TrieMemo), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range strategies {
			t.Run(fmt.Sprintf("E=%d/%s", m, st.name), func(t *testing.T) {
				n := 0
				run := func() {
					_, err := GenericJoinPlanVisit(context.Background(), p, nil, st.lv, 1, &Stats{},
						func(relation.Tuple) error { n++; return nil })
					if err != nil {
						t.Fatal(err)
					}
				}
				run()
				if n == 0 {
					t.Fatal("the case must have triangles")
				}
				if a := testing.AllocsPerRun(3, run); a > 32 {
					t.Errorf("enumerate: %v allocations per run, want <= 32", a)
				}
			})
		}
	}
}
