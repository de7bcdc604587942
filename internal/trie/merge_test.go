package trie

import (
	"math/rand"
	"slices"
	"testing"

	"wcoj/internal/relation"
)

func TestMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attrs := []string{"a", "b"}
	mk := func(rows [][]relation.Value) *relation.Relation {
		b := relation.NewBuilder("R", attrs...)
		for _, r := range rows {
			if err := b.Add(r...); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	var baseRows [][]relation.Value
	for i := 0; i < 300; i++ {
		baseRows = append(baseRows, []relation.Value{relation.Value(rng.Intn(50)), relation.Value(rng.Intn(50))})
	}
	base := mk(baseRows)
	for _, order := range [][]string{{"a", "b"}, {"b", "a"}} {
		bt, err := Build(base, order)
		if err != nil {
			t.Fatal(err)
		}
		// Deltas sorted under the trie's order.
		var delRows, addRows [][]relation.Value
		for i := 0; i < base.Len(); i += 4 {
			tu := base.Tuple(i, nil)
			delRows = append(delRows, []relation.Value{tu[0], tu[1]})
		}
		for len(addRows) < 40 {
			tu := relation.Tuple{relation.Value(50 + rng.Intn(20)), relation.Value(rng.Intn(70))}
			addRows = append(addRows, []relation.Value{tu[0], tu[1]})
		}
		add, err := mk(addRows).SortedBy(order)
		if err != nil {
			t.Fatal(err)
		}
		del, err := mk(delRows).SortedBy(order)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(bt, add, del)
		if err != nil {
			t.Fatal(err)
		}
		expectedRel, err := relation.MergeDelta(bt.Relation(), add, del)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(expectedRel, order)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Len() != want.Len() || merged.Depth() != want.Depth() {
			t.Fatalf("order %v: merged trie shape (%d,%d) != want (%d,%d)",
				order, merged.Len(), merged.Depth(), want.Len(), want.Depth())
		}
		if !merged.Relation().Equal(want.Relation()) {
			t.Fatalf("order %v: merged trie storage differs", order)
		}
		// The merged trie must answer level walks identically.
		got, ref := levelKeys(merged, 0, 0, merged.NumSegs(0)), levelKeys(want, 0, 0, want.NumSegs(0))
		if !equalValues(got, ref) {
			t.Fatalf("order %v: level-0 keys %v != %v", order, got, ref)
		}
	}
	// Empty delta: identity.
	bt, _ := Build(base, attrs)
	same, err := Merge(bt, nil, nil)
	if err != nil || same != bt {
		t.Fatalf("empty delta must return the base trie (err %v)", err)
	}
}

// TestMergeFlipsDensity: a delta that moves a children span across the
// density rule — up to denseMin keys, down below it, or spread past
// denseBitsPerKey bits per key — yields the same trie, dense sets
// included, as building the post-delta relation from scratch.
func TestMergeFlipsDensity(t *testing.T) {
	attrs := []string{"a", "b"}
	mk := func(rows ...[2]relation.Value) *relation.Relation {
		b := relation.NewBuilder("R", attrs...)
		for _, r := range rows {
			if err := b.Add(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	children := func(p relation.Value, vs ...relation.Value) [][2]relation.Value {
		var rows [][2]relation.Value
		for _, v := range vs {
			rows = append(rows, [2]relation.Value{p, v})
		}
		return rows
	}
	// Parent 1 has denseMin-1 children, parent 2 exactly denseMin, parent
	// 3 ten children packed into one word.
	base := slices.Concat(children(1, 1, 2, 3, 4, 5, 6, 7), children(2, 10, 11, 12, 13, 14, 15, 16, 17),
		children(3, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73))
	for _, c := range []struct {
		name     string
		add, del [][2]relation.Value
		parent   int // level-0 segment whose children flip
		dense    bool
	}{
		{"grows dense", children(1, 8), nil, 0, true},
		{"shrinks sparse", nil, children(2, 17), 1, false},
		{"spreads sparse", children(3, 64*40), nil, 2, false},
	} {
		bt, err := Build(mk(base...), attrs)
		if err != nil {
			t.Fatal(err)
		}
		r := bt.SegLevel(1, 0, 0)
		bt.Child(&r, 0, c.parent)
		if isDense(r) == c.dense {
			t.Fatalf("%s: the base's children of segment %d are already dense = %v", c.name, c.parent, c.dense)
		}
		merged, err := Merge(bt, mk(c.add...), mk(c.del...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.MergeDelta(bt.Relation(), mk(c.add...), mk(c.del...))
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Build(want, attrs)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, merged, rebuilt)
		r = merged.SegLevel(1, 0, 0)
		merged.Child(&r, 0, c.parent)
		if isDense(r) != c.dense {
			t.Fatalf("%s: merged children of segment %d dense = %v, want %v", c.name, c.parent, isDense(r), c.dense)
		}
	}
}
