package core

import (
	"context"
	"fmt"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// TestSearchAllocs: a serial search over a built plan makes a bounded
// number of allocations — its searcher and the growth of its per-depth
// buffers — however large the data: the level kernels allocate nothing
// per call. "materialize" runs the full enumeration and the uncapped
// COUNT, whose levels materialize; "leapfrog" runs the enumeration
// projected on A and the EXISTS, whose capped levels stream. So do
// their sharded runs: the triangle has no level below a separator, so
// its searchers never make a subtree memo or its keys.
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
		plan := func(spec *agg.Spec) (*Plan, *agg.Classification) {
			if spec == nil {
				p, err := BuildPlanSrc(new(TrieMemo), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				return p, nil
			}
			p, cls, err := AggPlanSrc(new(TrieMemo), q, nil, *spec)
			if err != nil {
				t.Fatal(err)
			}
			return p, cls
		}
		for _, c := range []struct {
			name        string
			enum, count *agg.Spec
		}{
			{"materialize", nil, &agg.Spec{Mode: agg.ModeCount}},
			{"leapfrog", &agg.Spec{Mode: agg.ModeEnumerate, Project: []string{"A"}}, &agg.Spec{Mode: agg.ModeExists}},
		} {
			p, cls := plan(c.enum)
			t.Run(fmt.Sprintf("E=%d/%s", m, c.name), func(t *testing.T) {
				n := 0
				run := func() {
					_, err := GenericJoinPlanVisit(context.Background(), p, cls, 1, &Stats{},
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
			cp, ccls := plan(c.count)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("E=%d/%s/count/p=%d", m, c.name, workers), func(t *testing.T) {
					run := func() {
						if _, _, err := GenericJoinAggPlan(context.Background(), cp, ccls, workers); err != nil {
							t.Fatal(err)
						}
					}
					// Each chunk of a sharded run has its own searcher;
					// the chunk count grows with the log of the data.
					limit := 32.0
					if workers > 1 {
						limit = 512
					}
					if a := testing.AllocsPerRun(3, run); a > limit {
						t.Errorf("count: %v allocations per run, want <= %v", a, limit)
					}
				})
			}
		}
	}
}
