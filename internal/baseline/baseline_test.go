package baseline

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"wcoj/internal/core"
	"wcoj/internal/relation"
)

func triangleQ(t testing.TB, seed int64, n, dom int) *core.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(name, a1, a2 string) *relation.Relation {
		b := relation.NewBuilder(name, a1, a2)
		for i := 0; i < n; i++ {
			b.Add(relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
		}
		return b.Build()
	}
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: mk("R", "A", "B")},
		{Name: "S", Vars: []string{"B", "C"}, Rel: mk("S", "B", "C")},
		{Name: "T", Vars: []string{"A", "C"}, Rel: mk("T", "A", "C")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// genericJoin materializes q by the serial Generic-Join search — what
// the baselines are checked against.
func genericJoin(q *core.Query) (*relation.Relation, error) {
	p, err := core.BuildPlanSrc(new(core.TrieMemo), q, nil)
	if err != nil {
		return nil, err
	}
	out := relation.NewBuilder(q.OutputName(), q.Vars...)
	_, err = core.GenericJoinPlanVisit(context.Background(), p, nil, core.MaterializeLevel, 1, &core.Stats{},
		func(t relation.Tuple) error { return out.Add(t...) })
	return out.Build(), err
}

func TestJoinOnlyMatchesGenericJoin(t *testing.T) {
	q := triangleQ(t, 1, 200, 15)
	want, err := genericJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("JoinOnly = %d rows, want %d", got.Len(), want.Len())
	}
	if stats.Intermediate < got.Len() {
		t.Fatal("intermediate must be at least the output size")
	}
}

func TestJoinProjectMatchesJoinOnly(t *testing.T) {
	q := triangleQ(t, 2, 150, 12)
	a, _, err := JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := JoinProject(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("join-project must compute the same result")
	}
}

func TestProjectionHead(t *testing.T) {
	// Chain query with head (A): join-project keeps intermediates
	// small by dropping finished variables.
	rng := rand.New(rand.NewSource(3))
	mk := func(name, a1, a2 string) *relation.Relation {
		b := relation.NewBuilder(name, a1, a2)
		for i := 0; i < 300; i++ {
			b.Add(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)))
		}
		return b.Build()
	}
	q, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: mk("R", "A", "B")},
		{Name: "S", Vars: []string{"B", "C"}, Rel: mk("S", "B", "C")},
		{Name: "T", Vars: []string{"C", "D"}, Rel: mk("T", "C", "D")},
	})
	if err != nil {
		t.Fatal(err)
	}
	head := []string{"A"}
	order := []int{0, 1, 2}
	jo, joStats, err := JoinOnly(q, head, order)
	if err != nil {
		t.Fatal(err)
	}
	jp, jpStats, err := JoinProject(q, head, order)
	if err != nil {
		t.Fatal(err)
	}
	if !jo.Equal(jp) {
		t.Fatal("projected heads must agree")
	}
	if jpStats.Intermediate > joStats.Intermediate {
		t.Fatalf("join-project intermediate %d should be ≤ join-only %d",
			jpStats.Intermediate, joStats.Intermediate)
	}
}

func TestOrderValidation(t *testing.T) {
	q := triangleQ(t, 4, 20, 5)
	if _, _, err := JoinOnly(q, nil, []int{0, 1}); err == nil {
		t.Fatal("short order must fail")
	}
	if _, _, err := JoinOnly(q, nil, []int{0, 0, 1}); err == nil {
		t.Fatal("repeated order must fail")
	}
	if _, _, err := JoinOnly(q, nil, []int{0, 1, 9}); err == nil {
		t.Fatal("out-of-range order must fail")
	}
}

func TestGreedyOrder(t *testing.T) {
	q := triangleQ(t, 5, 50, 8)
	ord := GreedyOrder(q)
	for i := 1; i < len(ord); i++ {
		if q.Atoms[ord[i-1]].Rel.Len() > q.Atoms[ord[i]].Rel.Len() {
			t.Fatalf("greedy order %v is not ascending by size", ord)
		}
	}
}

func TestBestPairwisePlan(t *testing.T) {
	q := triangleQ(t, 6, 100, 10)
	want, err := genericJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, order, err := BestPairwisePlan(q, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("best pairwise plan must compute the join")
	}
	if len(order) != 3 || stats == nil {
		t.Fatalf("order = %v", order)
	}
	// Oracle order is at least as good as greedy.
	_, greedyStats, err := JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Intermediate > greedyStats.Intermediate {
		t.Fatal("exhaustive plan must not be worse than greedy")
	}
}

// Property: all baseline plans agree with Generic-Join on random
// triangle instances.
func TestPropertyBaselinesAgree(t *testing.T) {
	f := func(seed int64) bool {
		q := triangleQ(t, seed, 40, 6)
		want, err := genericJoin(q)
		if err != nil {
			return false
		}
		jo, _, err := JoinOnly(q, nil, nil)
		if err != nil {
			return false
		}
		jp, _, err := JoinProject(q, nil, nil)
		if err != nil {
			return false
		}
		bp, _, _, err := BestPairwisePlan(q, nil, true)
		if err != nil {
			return false
		}
		return jo.Equal(want) && jp.Equal(want) && bp.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
