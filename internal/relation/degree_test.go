package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracleDegree is the definition of deg_R(Y|X) the kernel replaced:
// project onto Y (copy, sort, dedup), then count the projected tuples
// per X binding in a string-keyed map.
func oracleDegree(t *testing.T, r *Relation, x, y []string) int {
	t.Helper()
	proj, err := r.Project(y...)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) == 0 {
		return proj.Len()
	}
	counts := make(map[string]int)
	best := 0
	for i := 0; i < proj.Len(); i++ {
		var k string
		for _, a := range x {
			c := proj.Col(proj.AttrIndex(a))
			k += fmt.Sprintf("%d,", c[i])
		}
		counts[k]++
		best = max(best, counts[k])
	}
	return best
}

// randRel returns a relation of the given arity with up to maxRows
// tuples over a small domain, so that X groups collide.
func randRel(rng *rand.Rand, arity, maxRows int) *Relation {
	attrs := make([]string, arity)
	for j := range attrs {
		attrs[j] = string(rune('A' + j))
	}
	b := NewBuilder("R", attrs...)
	row := make([]Value, arity)
	for i, n := 0, rng.Intn(maxRows+1); i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(4))
		}
		b.Add(row...)
	}
	return b.Build()
}

// attrsOf names the columns a mask selects, in column order.
func attrsOf(r *Relation, m uint64) []string {
	var out []string
	for j, a := range r.Attrs() {
		if m&(1<<uint(j)) != 0 {
			out = append(out, a)
		}
	}
	return out
}

// TestDegreeMatchesOracle checks the kernel against the projection
// definition on random relations of arity 1–4, empty ones included,
// for every Y ≠ ∅ and every X ⊆ Y, through both Degree and MaxDegree.
func TestDegreeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		arity := 1 + iter%4
		r := randRel(rng, arity, 40)
		if iter < 4 {
			r = Empty("R", randRel(rng, arity, 0).Attrs()...)
		}
		full := uint64(1)<<uint(arity) - 1
		for y := uint64(1); y <= full; y++ {
			for x := uint64(0); x <= y; x++ {
				if x&^y != 0 {
					continue
				}
				xs, ys := attrsOf(r, x), attrsOf(r, y)
				want := oracleDegree(t, r, xs, ys)
				if got := r.Degree(x, y); got != want {
					t.Fatalf("arity %d, %d rows: deg(%v|%v) = %d, want %d", arity, r.Len(), ys, xs, got, want)
				}
				got, err := r.MaxDegree(xs, ys)
				if err != nil || got != want {
					t.Fatalf("arity %d: MaxDegree(%v, %v) = %d, %v; want %d", arity, xs, ys, got, err, want)
				}
			}
		}
	}
}

// TestDegreeMemo: concurrent first measurements of one relation agree
// with the kernel (run under -race), and a repeated statistic is a memo
// hit.
func TestDegreeMemo(t *testing.T) {
	r := randRel(rand.New(rand.NewSource(2)), 3, 500)
	var xs, ys []uint64
	for y := uint64(1); y < 8; y++ {
		for x := uint64(0); x <= y; x++ {
			if x&^y == 0 {
				xs, ys = append(xs, x), append(ys, y)
			}
		}
	}
	want := make([]int, len(ys))
	for i := range ys {
		want[i] = r.degree(xs[i], ys[i]) // the kernel, bypassing the memo
	}
	got := make([][]int, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ys {
				got[g] = append(got[g], r.Degree(xs[i], ys[i]))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Fatalf("goroutine %d measured %v, want %v", g, got[g], want)
		}
	}
	if n := DegreeMemoLen(r); n != len(ys) {
		t.Fatalf("%d statistics memoized, want %d", n, len(ys))
	}
	SetDegree(r, 0b001, 0b101, -7)
	if d := r.Degree(0b001, 0b101); d != -7 {
		t.Fatalf("deg = %d after overwriting the memo with -7: re-measured", d)
	}
}

func TestMaxDegreeErrors(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"}, []Value{1, 1})
	if _, err := r.MaxDegree([]string{"A"}, []string{"Z"}); err == nil {
		t.Fatal("unknown Y attribute must fail")
	}
	if _, err := r.MaxDegree([]string{"Z"}, []string{"A"}); err == nil {
		t.Fatal("unknown X attribute must fail")
	}
	if _, err := r.MaxDegree([]string{"B"}, []string{"A"}); err == nil {
		t.Fatal("X outside Y must fail")
	}
}
