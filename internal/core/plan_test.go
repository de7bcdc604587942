package core

import (
	"strings"
	"sync"
	"testing"

	"wcoj/internal/relation"
)

func planTestQuery(t testing.TB) *Query {
	t.Helper()
	r := relation.NewBuilder("R", "x", "y")
	s := relation.NewBuilder("S", "y", "z")
	for i := 0; i < 8; i++ {
		if err := r.Add(relation.Value(i), relation.Value(i%3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(relation.Value(i%3), relation.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: r.Build()},
		{Name: "S", Vars: []string{"B", "C"}, Rel: s.Build()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestBuildPlanOrderErrors pins the descriptive errors BuildPlanSrc
// returns for malformed explicit orders: every failure names the
// offending variable.
func TestBuildPlanOrderErrors(t *testing.T) {
	q := planTestQuery(t)
	memo := new(TrieMemo)
	cases := []struct {
		name  string
		order []string
		want  string // substring the error must contain
	}{
		{"missing one", []string{"A", "B"}, `missing query variable "C"`},
		{"missing several names first", []string{"B"}, `missing query variable "A"`},
		{"duplicate", []string{"A", "B", "B"}, `repeats variable "B"`},
		{"duplicate with full cover", []string{"A", "B", "C", "A"}, `repeats variable "A"`},
		{"unknown variable", []string{"A", "B", "D"}, `names "D"`},
		{"unknown replaces known", []string{"A", "D", "C"}, `names "D"`},
		{"empty order", []string{}, `missing query variable "A"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildPlanSrc(memo, q, orderOf(tc.order))
			if err == nil {
				t.Fatalf("BuildPlanSrc(%v) succeeded, want error containing %q", tc.order, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("BuildPlanSrc(%v) error %q, want substring %q", tc.order, err, tc.want)
			}
		})
	}
	// Valid permutations still plan.
	for _, order := range [][]string{{"A", "B", "C"}, {"C", "B", "A"}, nil} {
		if _, err := BuildPlanSrc(memo, q, orderOf(order)); err != nil {
			t.Fatalf("BuildPlanSrc(%v): %v", order, err)
		}
	}
}

// TestBuildPlanWithPolicy exercises the pluggable OrderPolicy seam:
// explicit and heuristic policies plan, a failing policy propagates
// its error, and a policy returning a bad order is caught.
func TestBuildPlanWithPolicy(t *testing.T) {
	q := planTestQuery(t)
	memo := new(TrieMemo)
	p, err := BuildPlanSrc(memo, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.Order, ",") != "B,A,C" {
		t.Fatalf("explicit policy order %v", p.Order)
	}
	if p, err = BuildPlanSrc(memo, q, nil); err != nil || len(p.Order) != 3 {
		t.Fatalf("nil policy should fall back to the heuristic: %v %v", p, err)
	}
	if _, err = BuildPlanSrc(memo, q, OrderFunc(func(*Query) ([]string, error) {
		return []string{"A", "A", "A"}, nil
	})); err == nil || !strings.Contains(err.Error(), `repeats variable "A"`) {
		t.Fatalf("bad policy order not caught: %v", err)
	}
}

// TestTrieCache asserts repeated plans over one memo hit it, counted
// per atom, and that a new global order builds only the tries whose
// column order it changes.
func TestTrieCache(t *testing.T) {
	memo := new(TrieMemo)
	q := planTestQuery(t)
	counts := func(wantHits, wantBuilds uint64) {
		t.Helper()
		if hits, builds := memo.Stats(); hits != wantHits || builds != wantBuilds {
			t.Fatalf("hits=%d builds=%d, want %d/%d", hits, builds, wantHits, wantBuilds)
		}
	}
	p1, err := BuildPlanSrc(memo, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	counts(0, 2)
	p2, err := BuildPlanSrc(memo, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	counts(2, 2)
	for i := range p1.Tries {
		if p1.Tries[i] != p2.Tries[i] {
			t.Fatalf("atom %d trie rebuilt instead of shared", i)
		}
	}
	// A different global order needs a new trie only for S ([C,B]); R's
	// restriction is [B,A] under both global orders and is reused.
	if _, err := BuildPlanSrc(memo, q, ExplicitOrder([]string{"C", "B", "A"})); err != nil {
		t.Fatal(err)
	}
	counts(3, 3)
}

// TestTrieMemoConcurrentBuild: concurrent first builders of one
// relation's trie serialize on the relation, so exactly one builds and
// every plan ends up sharing its trie (run with -race to check the
// publication).
func TestTrieMemoConcurrentBuild(t *testing.T) {
	memo := new(TrieMemo)
	q := planTestQuery(t)
	var wg sync.WaitGroup
	plans := make([]*Plan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := BuildPlanSrc(memo, q, ExplicitOrder([]string{"B", "A", "C"}))
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, p := range plans[1:] {
		for a := range p.Tries {
			if p.Tries[a] != plans[0].Tries[a] {
				t.Fatalf("atom %d: concurrent plans hold different tries", a)
			}
		}
	}
	if hits, builds := memo.Stats(); builds != 2 || hits != 14 {
		t.Fatalf("hits=%d builds=%d, want 14/2", hits, builds)
	}
}

// TestTrieMemoRefreshPlan: a plan whose tries were first built by an
// alpha-renamed query — so they carry the relation's column names, not
// this query's variables — re-versions onto new relations, taking each
// atom's trie order from the plan's order and the atom's variables.
func TestTrieMemoRefreshPlan(t *testing.T) {
	memo := new(TrieMemo)
	q := planTestQuery(t)
	renamed, err := NewQuery([]string{"U", "V", "W"}, []Atom{
		{Name: "R", Vars: []string{"U", "V"}, Rel: q.Atoms[0].Rel},
		{Name: "S", Vars: []string{"V", "W"}, Rel: q.Atoms[1].Rel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlanSrc(memo, renamed, ExplicitOrder([]string{"V", "U", "W"})); err != nil {
		t.Fatal(err)
	}
	order := ExplicitOrder([]string{"B", "A", "C"})
	p, err := BuildPlanSrc(memo, q, order)
	if err != nil {
		t.Fatal(err)
	}
	if hits, builds := memo.Stats(); hits != 2 || builds != 2 {
		t.Fatalf("alpha-renamed plan: hits=%d builds=%d, want 2/2", hits, builds)
	}
	next := planTestQuery(t) // same shape, fresh relations
	np, err := RefreshPlan(p, next, memo)
	if err != nil {
		t.Fatalf("refresh over shared tries: %v", err)
	}
	fresh, err := BuildPlanSrc(memo, next, order)
	if err != nil {
		t.Fatal(err)
	}
	for i := range np.Tries {
		if np.Tries[i] != fresh.Tries[i] || np.Tries[i] == p.Tries[i] {
			t.Fatalf("atom %d: refreshed trie is not the new relation's", i)
		}
	}
}
