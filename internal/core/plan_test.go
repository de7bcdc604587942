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
	store := NewTrieStore(0)
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
			_, err := BuildPlanSrc(store, q, orderOf(tc.order))
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
		if _, err := BuildPlanSrc(store, q, orderOf(order)); err != nil {
			t.Fatalf("BuildPlanSrc(%v): %v", order, err)
		}
	}
}

// TestBuildPlanWithPolicy exercises the pluggable OrderPolicy seam:
// explicit and heuristic policies plan, a failing policy propagates
// its error, and a policy returning a bad order is caught.
func TestBuildPlanWithPolicy(t *testing.T) {
	q := planTestQuery(t)
	store := NewTrieStore(0)
	p, err := BuildPlanSrc(store, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.Order, ",") != "B,A,C" {
		t.Fatalf("explicit policy order %v", p.Order)
	}
	if p, err = BuildPlanSrc(store, q, nil); err != nil || len(p.Order) != 3 {
		t.Fatalf("nil policy should fall back to the heuristic: %v %v", p, err)
	}
	if _, err = BuildPlanSrc(store, q, OrderFunc(func(*Query) ([]string, error) {
		return []string{"A", "A", "A"}, nil
	})); err == nil || !strings.Contains(err.Error(), `repeats variable "A"`) {
		t.Fatalf("bad policy order not caught: %v", err)
	}
}

// TestTrieCache asserts repeated plans over one store hit it and that
// concurrent plan construction is race-free and shares tries.
func TestTrieCache(t *testing.T) {
	store := NewTrieStore(DefaultTrieCacheLimit)
	q := planTestQuery(t)
	p1, err := BuildPlanSrc(store, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, size := store.Stats()
	if hits != 0 || misses != 2 || size != 2 {
		t.Fatalf("cold build: hits=%d misses=%d size=%d, want 0/2/2", hits, misses, size)
	}
	p2, err := BuildPlanSrc(store, q, ExplicitOrder([]string{"B", "A", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ = store.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("warm build: hits=%d misses=%d, want 2/2", hits, misses)
	}
	for i := range p1.Tries {
		if p1.Tries[i] != p2.Tries[i] {
			t.Fatalf("atom %d trie rebuilt instead of shared", i)
		}
	}
	// A different global order needs a new trie only for S ([C,B]); R's
	// restriction is [B,A] under both global orders and is reused.
	if _, err := BuildPlanSrc(store, q, ExplicitOrder([]string{"C", "B", "A"})); err != nil {
		t.Fatal(err)
	}
	hits, misses, size = store.Stats()
	if hits != 3 || misses != 3 || size != 3 {
		t.Fatalf("after second order: hits=%d misses=%d size=%d, want 3/3/3", hits, misses, size)
	}

	// Concurrent cold builds agree on one trie per atom (run with
	// -race to check the locking).
	store = NewTrieStore(DefaultTrieCacheLimit)
	var wg sync.WaitGroup
	plans := make([]*Plan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := BuildPlanSrc(store, q, ExplicitOrder([]string{"A", "B", "C"}))
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if _, _, size = store.Stats(); size != 2 {
		t.Fatalf("concurrent builds left %d cached tries, want 2", size)
	}
}
