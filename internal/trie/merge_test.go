package trie

import (
	"math/rand"
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
