package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustRel(t *testing.T, name string, attrs []string, rows ...[]Value) *Relation {
	t.Helper()
	b := NewBuilder(name, attrs...)
	for _, r := range rows {
		if err := b.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderSortDedup(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{3, 1}, []Value{1, 2}, []Value{3, 1}, []Value{1, 1}, []Value{2, 9})
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (dedup)", r.Len())
	}
	want := []Tuple{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	got := r.Tuples()
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBuilderArityError(t *testing.T) {
	b := NewBuilder("R", "A", "B")
	if err := b.Add(1); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestEmptyAndZeroArity(t *testing.T) {
	e := Empty("E", "A")
	if e.Len() != 0 || e.Arity() != 1 {
		t.Fatalf("empty: %v", e)
	}
	z := NewBuilder("Z").Build()
	if z.Arity() != 0 || z.Len() != 0 {
		t.Fatalf("zero-arity: %v", z)
	}
}

func TestContains(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{2, 9}, []Value{3, 1})
	cases := []struct {
		t    Tuple
		want bool
	}{
		{Tuple{1, 1}, true}, {Tuple{1, 2}, true}, {Tuple{2, 9}, true},
		{Tuple{3, 1}, true}, {Tuple{1, 3}, false}, {Tuple{0, 0}, false},
		{Tuple{4, 1}, false}, {Tuple{2, 1}, false}, {Tuple{1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestProject(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{2, 9})
	p, err := r.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("π_A has %d rows, want 2", p.Len())
	}
	if _, err := r.Project("Z"); err == nil {
		t.Fatal("expected error projecting missing attribute")
	}
	// Projection can reorder attributes.
	q, err := r.Project("B", "A")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attrs()[0] != "B" || q.Len() != 3 {
		t.Fatalf("π_{B,A}: %v len=%d", q.Attrs(), q.Len())
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	r := mustRel(t, "R", []string{"A"}, []Value{1}, []Value{2}, []Value{3})
	s := mustRel(t, "S", []string{"A"}, []Value{2}, []Value{3}, []Value{4})
	u, err := r.Union(s)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 4 {
		t.Fatalf("union len = %d, want 4", u.Len())
	}
	bad := mustRel(t, "B", []string{"X"}, []Value{1})
	if _, err := r.Union(bad); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestSemijoin(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{2, 2}, []Value{3, 3})
	s := mustRel(t, "S", []string{"B", "C"},
		[]Value{1, 10}, []Value{3, 30})
	sj, err := r.Semijoin(s)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 2 {
		t.Fatalf("semijoin len = %d, want 2", sj.Len())
	}
	// Disjoint schemas: semijoin degenerates to emptiness test on s.
	d := mustRel(t, "D", []string{"X"}, []Value{9})
	sj2, err := r.Semijoin(d)
	if err != nil {
		t.Fatal(err)
	}
	if sj2.Len() != r.Len() {
		t.Fatalf("semijoin with disjoint non-empty = %d rows, want %d", sj2.Len(), r.Len())
	}
	empty := Empty("E", "X")
	sj3, err := r.Semijoin(empty)
	if err != nil {
		t.Fatal(err)
	}
	if sj3.Len() != 0 {
		t.Fatalf("semijoin with disjoint empty = %d rows, want 0", sj3.Len())
	}
}

func TestPartition(t *testing.T) {
	// A=1 appears 3 times (heavy at threshold 2), A=2 once.
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{1, 3}, []Value{2, 1})
	h, l, err := r.Partition([]string{"A"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 || l.Len() != 1 {
		t.Fatalf("heavy=%d light=%d, want 3/1", h.Len(), l.Len())
	}
	if h.Len()+l.Len() != r.Len() {
		t.Fatal("partition must cover the relation")
	}
	if _, _, err := r.Partition([]string{"Z"}, 1); err == nil {
		t.Fatal("expected error partitioning on missing attribute")
	}
}

func TestMaxDegree(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{1, 3}, []Value{2, 1})
	d, err := r.MaxDegree([]string{"A"}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("deg(AB|A) = %d, want 3", d)
	}
	c, err := r.MaxDegree(nil, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Fatalf("deg(AB|∅) = %d, want 4 (cardinality)", c)
	}
	one, err := r.MaxDegree([]string{"A"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if one != 1 {
		t.Fatalf("deg(A|A) = %d, want 1", one)
	}
}

func TestSortedBy(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 9}, []Value{2, 1}, []Value{2, 3})
	s, err := r.SortedBy([]string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Attrs()[0] != "B" {
		t.Fatalf("attrs = %v", s.Attrs())
	}
	got := s.Tuples()
	want := []Tuple{{1, 2}, {3, 2}, {9, 1}}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := r.SortedBy([]string{"A"}); err == nil {
		t.Fatal("expected error for wrong-length order")
	}
	if _, err := r.SortedBy([]string{"A", "A"}); err == nil {
		t.Fatal("expected error for non-permutation")
	}
}

// TestPropertyPermuted: Permuted holds the same tuples as a Builder fed
// the permuted rows, sorted and named in the permuted column order.
func TestPropertyPermuted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("R", "A", "B", "C")
		for i := 0; i < rng.Intn(200); i++ {
			if err := b.Add(Value(rng.Intn(6)), Value(rng.Intn(6)-3), Value(rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		}
		r := b.Build()
		perm := rng.Perm(3)
		got, err := r.Permuted(perm)
		if err != nil {
			t.Fatal(err)
		}
		attrs := make([]string, 3)
		for x, j := range perm {
			attrs[x] = r.Attrs()[j]
		}
		want := NewBuilder("R", attrs...)
		for _, tu := range r.Tuples() {
			if err := want.Add(tu[perm[0]], tu[perm[1]], tu[perm[2]]); err != nil {
				t.Fatal(err)
			}
		}
		return got.Equal(want.Build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPermutedAllocs: Permuted sorts the row indices once and fills
// presized columns, so its allocation count does not grow with the row
// count (staging the rows through a Builder grew a slice per doubling).
func TestPermutedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewBuilder("R", "A", "B", "C")
		for i := 0; i < n; i++ {
			if err := b.Add(Value(rng.Intn(n)), Value(rng.Intn(50)), Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		r := b.Build()
		return testing.AllocsPerRun(5, func() {
			if _, err := r.Permuted([]int{2, 0, 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(50_000); large != small {
		t.Fatalf("Permuted allocates %v times on 100 rows and %v on 50,000", small, large)
	}
}

func TestRename(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"}, []Value{1, 2})
	s, err := r.Rename("S", "X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "S" || s.Attrs()[0] != "X" || s.Len() != 1 {
		t.Fatalf("rename: %v", s)
	}
	if _, err := r.Rename("S", "X"); err == nil {
		t.Fatal("expected arity error on rename")
	}
}

func TestHashIndex(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 1}, []Value{1, 2}, []Value{2, 9})
	ix := NewHashIndex(r, []string{"A"})
	if got := len(ix.Probe(Tuple{1})); got != 2 {
		t.Fatalf("probe A=1: %d rows, want 2", got)
	}
	if ix.Probe(Tuple{7}) != nil {
		t.Fatal("probe A=7 should be nil")
	}
	if !ix.Contains(Tuple{2}) || ix.Contains(Tuple{3}) {
		t.Fatal("Contains mismatch")
	}
	if ix.Relation() != r {
		t.Fatal("Relation() identity")
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []Value{1, 3, 5, 7, 9}
	b := []Value{3, 4, 5, 9, 11}
	got := IntersectSorted(nil, a, b)
	want := []Value{3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Galloping path: very unbalanced sizes.
	big := make([]Value, 1000)
	for i := range big {
		big[i] = Value(2 * i)
	}
	small := []Value{0, 3, 500, 998}
	g := IntersectSorted(nil, small, big)
	if len(g) != 3 { // 0, 500, 998 are even
		t.Fatalf("gallop intersect: %v", g)
	}
	if out := IntersectSorted(nil, nil, big); len(out) != 0 {
		t.Fatal("empty ∩ big must be empty")
	}
}

// Property: IntersectSorted agrees with a map-based reference.
func TestPropertyIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []Value {
			n := rng.Intn(50)
			m := make(map[Value]bool)
			for i := 0; i < n; i++ {
				m[Value(rng.Intn(40))] = true
			}
			out := make([]Value, 0, len(m))
			for v := range m {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := mk(), mk()
		got := IntersectSorted(nil, a, b)
		inB := make(map[Value]bool, len(b))
		for _, v := range b {
			inB[v] = true
		}
		var want []Value
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Build is idempotent — rebuilding from Tuples() yields an
// equal relation, and output is sorted & deduplicated.
func TestPropertyBuildIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("R", "A", "B")
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			if err := b.Add(Value(rng.Intn(10)), Value(rng.Intn(10))); err != nil {
				return false
			}
		}
		r := b.Build()
		// Sorted strictly increasing (dedup).
		var prev Tuple
		for i := 0; i < r.Len(); i++ {
			cur := r.Tuple(i, nil)
			if prev != nil && prev.Compare(cur) >= 0 {
				return false
			}
			prev = cur
		}
		r2 := New("R", []string{"A", "B"}, r.Tuples())
		return r.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.ID("alice")
	b := d.ID("bob")
	if a == b {
		t.Fatal("distinct strings must get distinct ids")
	}
	if d.ID("alice") != a {
		t.Fatal("interning must be stable")
	}
	if d.String(a) != "alice" || d.String(b) != "bob" {
		t.Fatal("reverse lookup mismatch")
	}
	if d.String(99) != "#99" {
		t.Fatalf("unknown value: %q", d.String(99))
	}
	if v, ok := d.Lookup("bob"); !ok || v != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := d.Lookup("carol"); ok {
		t.Fatal("Lookup of missing string should fail")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	r := mustRel(t, "R", []string{"A"}, []Value{1}, []Value{2})
	s := mustRel(t, "S", []string{"A"}, []Value{3})
	db.Put(r)
	db.Put(s)
	if got, ok := db.Get("R"); !ok || got != r {
		t.Fatal("Get R failed")
	}
	if _, err := db.MustGet("T"); err == nil {
		t.Fatal("MustGet of missing relation should error")
	}
	if got, err := db.MustGet("S"); err != nil || got != s {
		t.Fatal("MustGet S failed")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Fatalf("Names = %v", names)
	}
	if db.Size() != 3 || db.MaxRelationSize() != 2 {
		t.Fatalf("Size=%d Max=%d", db.Size(), db.MaxRelationSize())
	}
	if db.Dict() == nil {
		t.Fatal("Dict must be non-nil")
	}
}

func TestTupleBasics(t *testing.T) {
	a := Tuple{1, 2, 3}
	if a.String() != "(1, 2, 3)" {
		t.Fatalf("String = %q", a.String())
	}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone must copy")
	}
	if (Tuple{1, 2}).Compare(Tuple{1, 2, 3}) != -1 {
		t.Fatal("shorter prefix should compare less")
	}
	if (Tuple{1, 2, 3}).Compare(Tuple{1, 2}) != 1 {
		t.Fatal("longer should compare greater")
	}
}

func TestRelationStringers(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"}, []Value{1, 2})
	if r.String() != "R(A,B)[1]" {
		t.Fatalf("String = %q", r.String())
	}
	if !r.HasAttr("A") || r.HasAttr("Z") {
		t.Fatal("HasAttr mismatch")
	}
}
