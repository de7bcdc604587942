package wcoj

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"wcoj/internal/dataset"
)

// TestNodeBudget checks admission-control budgets across every
// algorithm and serial/parallel execution: a tiny budget must cut every
// execution mode off with ErrNodeBudget, and a generous one must not
// disturb the result.
func TestNodeBudget(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(60, 800, 3)); err != nil {
		t.Fatal(err)
	}
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	for _, a := range withBacktracking() {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", a.name, par), func(t *testing.T) {
				pq, err := db.Prepare(src, Options{Algorithm: a.algo, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				rel, _, err := pq.Execute(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				tiny := WithNodeBudget(context.Background(), 10)
				if _, _, err := pq.Execute(tiny); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("Execute under tiny budget: err=%v, want ErrNodeBudget", err)
				}
				if _, _, err := pq.Count(WithNodeBudget(context.Background(), 10)); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("Count under tiny budget: err=%v, want ErrNodeBudget", err)
				}

				big := WithNodeBudget(context.Background(), 1<<40)
				got, _, err := pq.Execute(big)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(rel) {
					t.Fatal("budgeted run diverged from unbudgeted result")
				}
				if n, _, err := pq.Count(WithNodeBudget(context.Background(), 1<<40)); err != nil || n != rel.Len() {
					t.Fatalf("Count under big budget: n=%d err=%v, want %d", n, err, rel.Len())
				}
			})
		}
	}
}

// TestNodeBudgetProjection exercises the enumerate/exists aggregate
// paths, whose budget exhaustion unwinds through error-less existence
// probes. Every mode polls after counting a node, so a search of a
// handful of nodes fits a small budget (the projected enumeration used
// to poll at node 0, spending 256 nodes before doing any work in every
// serial run and every shard chunk), while a budget the unprojected
// run exhausts must still exhaust the projected one — on a graph large
// enough that the projected search runs past its first 256-node poll.
func TestNodeBudgetProjection(t *testing.T) {
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	for _, row := range []struct {
		name      string
		graph     *Relation
		budget    int64
		exhausted bool
	}{
		{"3-edge/budget=100", NewRelation("E", []string{"x", "y"}, []Tuple{{1, 2}, {2, 3}, {1, 3}}), 100, false},
		{"random/budget=10", dataset.RandomGraph(400, 6000, 5), 10, true},
		{"random/budget=2^40", dataset.RandomGraph(400, 6000, 5), 1 << 40, false},
	} {
		db := NewDB()
		if err := db.Register(row.graph); err != nil {
			t.Fatal(err)
		}
		for _, a := range algoAxis {
			for _, par := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", row.name, a.name, par), func(t *testing.T) {
					budgeted := func() context.Context { return WithNodeBudget(context.Background(), row.budget) }
					pq, err := db.Prepare(src, Options{Algorithm: a.algo, Parallelism: par, Project: []string{"A"}})
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := pq.Execute(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					got, _, execErr := pq.Execute(budgeted())
					n, _, countErr := pq.Count(budgeted())
					if !row.exhausted {
						if execErr != nil || !got.Equal(want) {
							t.Fatalf("projected Execute: err=%v, or diverged from the unbudgeted result", execErr)
						}
						if countErr != nil || n != want.Len() {
							t.Fatalf("projected Count: n=%d err=%v, want %d", n, countErr, want.Len())
						}
						return
					}
					full, err := db.Prepare(src, Options{Algorithm: a.algo, Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := full.Execute(budgeted()); !errors.Is(err, ErrNodeBudget) {
						t.Fatalf("unprojected Execute: err=%v, want ErrNodeBudget", err)
					}
					if !errors.Is(execErr, ErrNodeBudget) || !errors.Is(countErr, ErrNodeBudget) {
						t.Fatalf("projected Execute err=%v, Count err=%v, want ErrNodeBudget", execErr, countErr)
					}
				})
			}
		}
	}
}
