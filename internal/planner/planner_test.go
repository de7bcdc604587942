package planner

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/relation"
)

// starQ builds the hub-skewed star Q(A,B,C) :- R(A,B), S(B,C): every
// R edge points at hub 0, S fans the hub out plus distractors.
func starQ(t testing.TB, spokes, fan, noise int) *core.Query {
	t.Helper()
	br := relation.NewBuilder("R", "A", "B")
	for i := 1; i <= spokes; i++ {
		br.Add(relation.Value(i), 0)
	}
	bs := relation.NewBuilder("S", "B", "C")
	base := relation.Value(spokes + 1)
	for j := 0; j < fan; j++ {
		bs.Add(0, base+relation.Value(j))
	}
	for k := 0; k < noise; k++ {
		src := base + relation.Value(fan+2*k)
		bs.Add(src, src+1)
	}
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: br.Build()},
		{Name: "S", Vars: []string{"B", "C"}, Rel: bs.Build()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCostBasedStar asserts the cost model prices the hub variable's
// singleton prefix at 1 tuple and therefore binds it first, and that
// the explanation is internally consistent.
func TestCostBasedStar(t *testing.T) {
	q := starQ(t, 200, 5, 40)
	e, err := Choose(q, Options{Policy: CostBased})
	if err != nil {
		t.Fatal(err)
	}
	if e.Order[0] != "B" {
		t.Fatalf("chose %v, want B first", e.Order)
	}
	if math.Abs(e.LogBounds[0]) > 1e-9 {
		t.Fatalf("prefix {B} bound 2^%v, want 2^0 (R has a single B value)", e.LogBounds[0])
	}
	if !e.Exhaustive || e.Considered != 6 {
		t.Fatalf("3 variables should enumerate 6 orders exhaustively, got %+v", e)
	}
	if e.Worst == nil || e.Worst.Cost < e.Cost {
		t.Fatalf("worst candidate missing or cheaper than chosen: %+v", e.Worst)
	}
	sum := 0.0
	for _, lb := range e.LogBounds {
		sum += math.Exp2(lb)
	}
	if math.Abs(sum-e.Cost) > 1e-6*e.Cost {
		t.Fatalf("cost %v inconsistent with per-level bounds summing to %v", e.Cost, sum)
	}
	for i := 1; i < len(e.Candidates); i++ {
		if e.Candidates[i].Cost < e.Candidates[i-1].Cost {
			t.Fatalf("candidates not sorted best-first: %+v", e.Candidates)
		}
	}
}

// TestBeamSearchWideQuery drives the beam path with a 9-variable
// chain (above the default exhaustive cap) and checks the chosen
// order still evaluates correctly.
func TestBeamSearchWideQuery(t *testing.T) {
	const n = 9
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i)
	}
	var atoms []core.Atom
	for i := 0; i+1 < n; i++ {
		b := relation.NewBuilder(fmt.Sprintf("E%d", i), vars[i], vars[i+1])
		for v := 0; v < 6; v++ {
			b.Add(relation.Value(v), relation.Value((v+1)%6))
			b.Add(relation.Value(v), relation.Value((v+2)%6))
		}
		atoms = append(atoms, core.Atom{Name: fmt.Sprintf("E%d", i), Vars: []string{vars[i], vars[i+1]}, Rel: b.Build()})
	}
	q, err := core.NewQuery(vars, atoms)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Choose(q, Options{Policy: CostBased, MaxDegreeVars: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Exhaustive {
		t.Fatal("9 variables must take the beam path")
	}
	if len(e.Order) != n {
		t.Fatalf("beam order %v incomplete", e.Order)
	}
	// The final beam level must keep multiple complete orders (they
	// share the full variable mask) and report the costliest as Worst.
	if len(e.Candidates) < 2 {
		t.Fatalf("beam kept %d candidates, want several", len(e.Candidates))
	}
	if e.Worst == nil || e.Worst.Cost < e.Candidates[len(e.Candidates)-1].Cost {
		t.Fatalf("beam worst candidate missing or cheaper than kept candidates: %+v", e.Worst)
	}
	for _, cand := range e.Candidates {
		if err := core.CheckOrder(q, cand.Order); err != nil {
			t.Fatalf("beam candidate %v: %v", cand.Order, err)
		}
	}
	if err := core.CheckOrder(q, e.Order); err != nil {
		t.Fatalf("beam produced a non-permutation: %v", err)
	}
	// The chosen order must execute: count with it and with the
	// heuristic and compare.
	count := func(pol core.OrderPolicy) int {
		p, err := core.BuildPlanSrc(core.NewTrieStore(0), q, pol)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := core.GenericJoinPlanCount(context.Background(), p, nil, core.MaterializeLevel, 1)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if nPlanned, nHeur := count(core.ExplicitOrder(e.Order)), count(core.HeuristicOrder()); nPlanned != nHeur {
		t.Fatalf("beam order count %d, heuristic %d", nPlanned, nHeur)
	}
}

// TestPolicies pins the heuristic/explicit paths and their validation.
func TestPolicies(t *testing.T) {
	q := starQ(t, 30, 3, 5)
	e, err := Choose(q, Options{Policy: Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	if e.Policy != Heuristic || len(e.Candidates) != 1 || e.Worst != nil {
		t.Fatalf("heuristic explanation %+v", e)
	}
	if e.Order[0] != "B" {
		t.Fatalf("degree-order heuristic should pick B (degree 2) first, got %v", e.Order)
	}

	e, err = Choose(q, Options{Policy: Explicit, Explicit: []string{"C", "A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(e.Order, "") != "CAB" || len(e.LogBounds) != 3 {
		t.Fatalf("explicit explanation %+v", e)
	}

	if _, err := Choose(q, Options{Policy: Explicit}); err == nil {
		t.Fatal("explicit without an order must fail")
	}
	if _, err := Choose(q, Options{Policy: Explicit, Explicit: []string{"A", "B"}}); err == nil {
		t.Fatal("explicit non-permutation must fail")
	}

	// New adapts Choose to the core.OrderPolicy seam.
	order, err := New(Options{Policy: CostBased}).ResolveOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "B" {
		t.Fatalf("policy adapter order %v", order)
	}
}

// TestCostBasedVariableCap pins the 64-variable guard: prefix sets
// are uint64 masks, so wider queries must be rejected, not silently
// mis-planned.
func TestCostBasedVariableCap(t *testing.T) {
	const n = 65
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i)
	}
	var atoms []core.Atom
	for i := 0; i+1 < n; i++ {
		b := relation.NewBuilder(fmt.Sprintf("E%d", i), vars[i], vars[i+1])
		b.Add(0, 0)
		b.Add(1, 1)
		atoms = append(atoms, core.Atom{Name: fmt.Sprintf("E%d", i), Vars: []string{vars[i], vars[i+1]}, Rel: b.Build()})
	}
	q, err := core.NewQuery(vars, atoms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Choose(q, Options{Policy: CostBased}); err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("65-variable cost-based plan should be rejected, got %v", err)
	}
	// The heuristic policy still explains wide queries.
	if _, err := Choose(q, Options{Policy: Heuristic}); err != nil {
		t.Fatal(err)
	}
}
