package trie

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"wcoj/internal/relation"
)

func rel(t *testing.T, name string, attrs []string, rows ...[]relation.Value) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(name, attrs...)
	for _, r := range rows {
		if err := b.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuildSharesOrResorts(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 2}, []relation.Value{2, 1})
	tr, err := Build(r, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Relation() != r {
		t.Fatal("native order should share storage")
	}
	tr2, err := Build(r, []string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Attrs()[0] != "B" || tr2.Len() != 2 {
		t.Fatalf("re-sorted trie: %v len=%d", tr2.Attrs(), tr2.Len())
	}
	if _, err := Build(r, []string{"A"}); err == nil {
		t.Fatal("expected error for non-permutation order")
	}
}

// levelKeys lists the level-d keys of segments [lo,hi).
func levelKeys(tr *Trie, d, lo, hi int) []relation.Value {
	var out []relation.Value
	for s := lo; s < hi; s++ {
		out = append(out, tr.SegKey(d, s))
	}
	return out
}

func equalValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSegWalk(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 1}, []relation.Value{1, 3},
		[]relation.Value{2, 2}, []relation.Value{4, 1})
	tr, err := Build(r, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if as, want := levelKeys(tr, 0, 0, tr.NumSegs(0)), []relation.Value{1, 2, 4}; !equalValues(as, want) {
		t.Fatalf("A values = %v, want %v", as, want)
	}
}

func TestSegChildren(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 1}, []relation.Value{1, 3},
		[]relation.Value{2, 2})
	tr, _ := Build(r, []string{"A", "B"})
	if k := tr.SegKey(0, 0); k != 1 {
		t.Fatalf("first A = %d", k)
	}
	lo, hi := tr.Children(0, 0) // B under A=1
	if bs := levelKeys(tr, 1, lo, hi); !equalValues(bs, []relation.Value{1, 3}) {
		t.Fatalf("B|A=1 = %v, want [1 3]", bs)
	}
	if k := tr.SegKey(0, 1); k != 2 {
		t.Fatalf("next A = %d, want 2", k)
	}
	lo, hi = tr.Children(0, 1)
	if bs := levelKeys(tr, 1, lo, hi); !equalValues(bs, []relation.Value{2}) {
		t.Fatalf("B|A=2 = %v, want [2]", bs)
	}
}

func TestEmptyTrie(t *testing.T) {
	r := relation.Empty("E", "A")
	tr, _ := Build(r, []string{"A"})
	if tr.NumSegs(0) != 0 {
		t.Fatal("empty trie must have no segments")
	}
	StreamLevels([]LevelRange{tr.SegLevel(0, 0, 0)}, nil, func(relation.Value, []int) bool {
		t.Fatal("empty level must stream nothing")
		return true
	})
}

func TestSegRowsAndRange(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 1}, []relation.Value{1, 2}, []relation.Value{2, 5})
	tr, _ := Build(r, []string{"A", "B"})
	lo, hi := tr.SegRows(0, 0)
	if lo != 0 || hi != 2 {
		t.Fatalf("range of A=1 is [%d,%d), want [0,2)", lo, hi)
	}
}

func TestIntersectLevels(t *testing.T) {
	a := []relation.Value{1, 2, 3, 5, 7}
	b := []relation.Value{2, 3, 4, 7, 8}
	c := []relation.Value{0, 3, 7, 9}
	got := IntersectLevels(nil, []LevelRange{
		{Keys: a, Lo: 0, Hi: len(a)},
		{Keys: b, Lo: 0, Hi: len(b)},
		{Keys: c, Lo: 0, Hi: len(c)},
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("got %v, want [3 7]", got)
	}
}

func TestIntersectLevelsSingle(t *testing.T) {
	a := []relation.Value{1, 2, 9}
	got := IntersectLevels(nil, []LevelRange{{Keys: a, Lo: 0, Hi: len(a)}})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 9 {
		t.Fatalf("single range copies its keys: %v", got)
	}
}

func TestIntersectLevelsEmptyCases(t *testing.T) {
	if got := IntersectLevels(nil, nil); got != nil {
		t.Fatal("no ranges yields nil")
	}
	a := []relation.Value{1, 2}
	got := IntersectLevels(nil, []LevelRange{
		{Keys: a, Lo: 0, Hi: 2},
		{Keys: a, Lo: 1, Hi: 1}, // empty range
	})
	if len(got) != 0 {
		t.Fatalf("intersection with empty range: %v", got)
	}
	// Disjoint.
	got = IntersectLevels(nil, []LevelRange{
		{Keys: []relation.Value{1, 2}, Lo: 0, Hi: 2},
		{Keys: []relation.Value{3, 4}, Lo: 0, Hi: 2},
	})
	if len(got) != 0 {
		t.Fatalf("disjoint intersection: %v", got)
	}
}

func TestSmallestRange(t *testing.T) {
	keys := []relation.Value{1, 2, 3, 4, 5, 6}
	if i := smallestRange([]LevelRange{{Keys: keys, Lo: 0, Hi: 6}, {Keys: keys, Lo: 0, Hi: 2}}); i != 1 {
		t.Fatalf("smallestRange = %d", i)
	}
	if i := smallestRange(nil); i != -1 {
		t.Fatalf("smallestRange(nil) = %d", i)
	}
}

// Property: IntersectLevels over full ranges equals the set
// intersection of the key sets.
func TestPropertyIntersectLevels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		cols := make([][]relation.Value, k)
		sets := make([]map[relation.Value]bool, k)
		for i := 0; i < k; i++ {
			n := rng.Intn(60)
			sets[i] = make(map[relation.Value]bool)
			for j := 0; j < n; j++ {
				sets[i][relation.Value(rng.Intn(30))] = true
			}
			col := make([]relation.Value, 0, len(sets[i]))
			for v := range sets[i] {
				col = append(col, v)
			}
			sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
			cols[i] = col
		}
		ranges := make([]LevelRange, k)
		for i := range cols {
			ranges[i] = LevelRange{Keys: cols[i], Lo: 0, Hi: len(cols[i])}
		}
		got := IntersectLevels(nil, ranges)
		var want []relation.Value
		for v := relation.Value(0); v < 30; v++ {
			in := true
			for i := 0; i < k; i++ {
				if !sets[i][v] {
					in = false
					break
				}
			}
			if in {
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

// Property: walking a trie depth-first reproduces exactly the
// relation's tuple set.
func TestPropertyTrieEnumeratesRelation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := relation.NewBuilder("R", "A", "B", "C")
		n := rng.Intn(80)
		for i := 0; i < n; i++ {
			if err := b.Add(relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6))); err != nil {
				return false
			}
		}
		r := b.Build()
		tr, err := Build(r, []string{"A", "B", "C"})
		if err != nil {
			return false
		}
		var walked []relation.Tuple
		var rec func(d, lo, hi int, prefix relation.Tuple)
		rec = func(d, lo, hi int, prefix relation.Tuple) {
			for s := lo; s < hi; s++ {
				p := append(prefix[:len(prefix):len(prefix)], tr.SegKey(d, s))
				if len(p) == tr.Depth() {
					walked = append(walked, p)
				} else {
					clo, chi := tr.Children(d, s)
					rec(d+1, clo, chi, p)
				}
			}
		}
		rec(0, 0, tr.NumSegs(0), nil)
		want := r.Tuples()
		if len(walked) != len(want) {
			return false
		}
		for i := range want {
			if !walked[i].Equal(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
