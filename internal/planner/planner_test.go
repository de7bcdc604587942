package planner

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
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

// chainQ builds the n-variable chain X0 – X1 – … over distinct
// relations E0, E1, …, each the 6-vertex circulant with offsets 1, 2.
func chainQ(t testing.TB, n int) *core.Query {
	t.Helper()
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
	return q
}

// TestBeamSearchWideQuery drives the beam path with a 9-variable
// chain (above the default exhaustive cap) and checks the chosen
// order still evaluates correctly.
func TestBeamSearchWideQuery(t *testing.T) {
	const n = 9
	q := chainQ(t, n)
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
		p, err := core.BuildPlanSrc(new(core.TrieMemo), q, pol)
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.GenericJoinPlanVisit(context.Background(), p, nil, 1, &core.Stats{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return int(n)
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

// TestChooseGolden pins cost-based decisions (order, per-level log
// bounds, cost, constraint count) to the values the planner produced
// when every statistic was measured by projecting each atom's renamed
// relation. Degree statistics are now memoized positional measurements;
// the decisions must not move.
func TestChooseGolden(t *testing.T) {
	g := dataset.RandomGraph(60, 500, 1)
	selfJoin := func(vars []string, pairs ...[2]int) *core.Query {
		var atoms []core.Atom
		for _, p := range pairs {
			atoms = append(atoms, core.Atom{Name: "G", Vars: []string{vars[p[0]], vars[p[1]]}, Rel: g})
		}
		q, err := core.NewQuery(vars, atoms)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		name string
		q    *core.Query
		opt  Options
		want string
	}{
		{"star", starQ(t, 200, 5, 40), Options{Policy: CostBased},
			"[B C A] [0 2.321928094887362 9.965784284662087] 1006 10"},
		{"star-small", starQ(t, 30, 3, 5), Options{Policy: CostBased},
			"[B C A] [0 1.5849625007211563 6.491853096329675] 94 10"},
		{"chain9-beam", chainQ(t, 9), Options{Policy: CostBased, MaxDegreeVars: 2},
			"[X0 X1 X2 X3 X4 X5 X6 X7 X8] [2.584962500721156 2 3 4 5 6 7 8 9] 1026 40"},
		{"triangle-selfjoin", selfJoin([]string{"A", "B", "C"}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}), Options{Policy: CostBased},
			"[A B C] [5.906890595608519 7.906890595608519 11.813781191217037] 3900.000000000001 15"},
		{"path4-selfjoin", selfJoin([]string{"A", "B", "C", "D"}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), Options{Policy: CostBased, MaxDegreeVars: 3},
			"[A B C D] [5.906890595608519 7.906890595608519 11.813781191217037 15.720671786825555] 57899.999999999985 15"},
	} {
		e, err := Choose(tc.q, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v %v %v %d", e.Order, e.LogBounds, e.Cost, e.Constraints)
		if got != tc.want {
			t.Errorf("%s: explanation %q, want %q", tc.name, got, tc.want)
		}
	}
}
