package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJoinBasic(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 10}, []Value{2, 20}, []Value{3, 10})
	s := mustRel(t, "S", []string{"B", "C"},
		[]Value{10, 100}, []Value{10, 200}, []Value{30, 300})
	j, err := Join(r, s)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (1,10)x{100,200}, (3,10)x{100,200} = 4 rows.
	if j.Len() != 4 {
		t.Fatalf("join = %v", j.Tuples())
	}
	attrs := j.Attrs()
	if len(attrs) != 3 || attrs[0] != "A" || attrs[1] != "B" || attrs[2] != "C" {
		t.Fatalf("schema = %v", attrs)
	}
	if !j.Contains(Tuple{1, 10, 200}) || j.Contains(Tuple{2, 20, 100}) {
		t.Fatal("membership mismatch")
	}
}

func TestJoinCrossProduct(t *testing.T) {
	r := mustRel(t, "R", []string{"A"}, []Value{1}, []Value{2})
	s := mustRel(t, "S", []string{"B"}, []Value{10}, []Value{20}, []Value{30})
	j, err := Join(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 6 {
		t.Fatalf("cross product = %d rows, want 6", j.Len())
	}
}

func TestJoinMultipleSharedAttrs(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B", "C"},
		[]Value{1, 2, 3}, []Value{1, 2, 4}, []Value{5, 6, 7})
	s := mustRel(t, "S", []string{"A", "B", "D"},
		[]Value{1, 2, 9}, []Value{5, 5, 9})
	j, err := Join(r, s)
	if err != nil {
		t.Fatal(err)
	}
	// Only (A=1,B=2) matches: 2 r-rows x 1 s-row.
	if j.Len() != 2 {
		t.Fatalf("join = %v", j.Tuples())
	}
	if j.Arity() != 4 {
		t.Fatalf("arity = %d", j.Arity())
	}
}

func TestJoinIdenticalSchemas(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"}, []Value{1, 2}, []Value{3, 4})
	s := mustRel(t, "S", []string{"A", "B"}, []Value{1, 2}, []Value{5, 6})
	j, err := Join(r, s)
	if err != nil {
		t.Fatal(err)
	}
	// Identical schemas: join = intersection.
	if j.Len() != 1 || !j.Contains(Tuple{1, 2}) {
		t.Fatalf("join = %v", j.Tuples())
	}
}

func TestJoinEmpty(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"}, []Value{1, 2})
	e := Empty("S", "B", "C")
	j, err := Join(r, e)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatal("join with empty must be empty")
	}
	j2, err := Join(e, r)
	if err != nil || j2.Len() != 0 {
		t.Fatal("empty join (other side)")
	}
}

// Property: Join agrees with a nested-loop reference and is symmetric
// in cardinality.
func TestPropertyJoinNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name string, attrs []string, n, dom int) *Relation {
			b := NewBuilder(name, attrs...)
			row := make([]Value, len(attrs))
			for i := 0; i < n; i++ {
				for j := range row {
					row[j] = Value(rng.Intn(dom))
				}
				b.Add(row...)
			}
			return b.Build()
		}
		r := mk("R", []string{"A", "B"}, rng.Intn(40), 5)
		s := mk("S", []string{"B", "C"}, rng.Intn(40), 5)
		j, err := Join(r, s)
		if err != nil {
			return false
		}
		// Nested loop reference.
		want := make(map[[3]Value]bool)
		for i := 0; i < r.Len(); i++ {
			for k := 0; k < s.Len(); k++ {
				if r.Col(1)[i] == s.Col(0)[k] {
					want[[3]Value{r.Col(0)[i], r.Col(1)[i], s.Col(1)[k]}] = true
				}
			}
		}
		if j.Len() != len(want) {
			return false
		}
		for key := range want {
			if !j.Contains(Tuple{key[0], key[1], key[2]}) {
				return false
			}
		}
		// Symmetry of cardinality (schema order differs, content same).
		j2, err := Join(s, r)
		if err != nil {
			return false
		}
		return j2.Len() == j.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
