package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
)

// TestMemoSeparatorRule: the memo cannot hit at a bound level without a
// separator above it (agg.Classify's rule), because there the active
// atoms' row ranges fix every bound variable. On random small queries
// and orders, each bound level the rule excludes is turned on alone;
// every such run must make no memo hit and return the unforced count,
// serial and sharded.
func TestMemoSeparatorRule(t *testing.T) {
	ctx := context.Background()
	vars := []string{"A", "B", "C", "D", "E"}
	forced := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(len(vars)-2)
		qv := vars[:nv]
		// A chain through every variable, then random chords, so every
		// variable is in some atom and most are shared.
		var atoms []Atom
		mk := func(a, b string) {
			name := fmt.Sprintf("R%d", len(atoms))
			rb := relation.NewBuilder(name, "x", "y")
			for i := 0; i < 10+rng.Intn(40); i++ {
				rb.Add(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
			}
			atoms = append(atoms, Atom{Name: name, Vars: []string{a, b}, Rel: rb.Build()})
		}
		for i := 1; i < nv; i++ {
			mk(qv[i-1], qv[i])
		}
		for i := rng.Intn(3); i >= 0; i-- {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a != b {
				mk(qv[a], qv[b])
			}
		}
		q, err := NewQuery(qv, atoms)
		if err != nil {
			t.Fatal(err)
		}
		order := append([]string(nil), qv...)
		rng.Shuffle(nv, func(i, j int) { order[i], order[j] = order[j], order[i] })
		spec := agg.Spec{Mode: agg.ModeCount}
		if rng.Intn(3) == 0 {
			spec.Project = order[:1]
		}
		p, cls, err := AggPlanSrc(new(TrieMemo), q, ExplicitOrder(order), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := GenericJoinAggPlan(ctx, p, cls, 1)
		if err != nil {
			t.Fatal(err)
		}
		for d, c := range cls.Classes {
			if c != agg.Bound || cls.MemoDepths[d] {
				continue
			}
			forced++
			one := *cls
			one.MemoDepths = make([]bool, len(cls.MemoDepths))
			one.MemoDepths[d] = true
			for _, workers := range []int{1, 2} {
				got, stats, err := GenericJoinAggPlan(ctx, p, &one, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || stats.AggMemoHits != 0 {
					t.Errorf("seed %d, order %v, %+v, memo at %s only, p=%d: count %d (want %d), %d memo hits (want 0)",
						seed, cls.Order, spec, cls.Order[d], workers, got, want, stats.AggMemoHits)
				}
			}
		}
	}
	if forced < 20 {
		t.Fatalf("only %d excluded bound levels exercised", forced)
	}
}
