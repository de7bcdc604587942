package trie

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wcoj/internal/relation"
)

// sortedSet draws a random duplicate-free sorted key slice of up to n
// values from [0, dom).
func sortedSet(rng *rand.Rand, n, dom int) []relation.Value {
	seen := make(map[relation.Value]bool)
	for i := 0; i < n; i++ {
		seen[relation.Value(rng.Intn(dom))] = true
	}
	out := make([]relation.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// refIntersect is the oracle: the sorted intersection of the key sets
// computed with maps.
func refIntersect(keySets [][]relation.Value) []relation.Value {
	if len(keySets) == 0 {
		return nil
	}
	counts := make(map[relation.Value]int)
	for _, ks := range keySets {
		for _, v := range ks {
			counts[v]++
		}
	}
	var out []relation.Value
	for v, c := range counts {
		if c == len(keySets) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func toNarrow(keys []relation.Value) []uint32 {
	out := make([]uint32, len(keys))
	for i, v := range keys {
		out[i] = uint32(v)
	}
	return out
}

// trieLevel builds a one-attribute trie over the sorted, duplicate-free
// keys and returns its level 0 restricted to [lo,hi): dense, as the
// search sees it, when the window is the whole level and the keys are
// dense and fit uint32; sparse otherwise.
func trieLevel(t testing.TB, keys []relation.Value, lo, hi int) LevelRange {
	t.Helper()
	b := relation.NewBuilder("R", "A")
	for _, v := range keys {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(b.Build(), []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	return tr.SegLevel(0, lo, hi)
}

// childLevel builds a two-attribute trie in which parent 1's children
// are the sorted, duplicate-free keys, after parent 0's three children,
// and returns parent 1's children restricted to [lo,hi): dense, as the
// search sees them (Trie.Child), when the window is the whole span and
// the keys are dense and fit uint32; sparse otherwise. Unlike a whole
// level 0, the span starts inside its level's key array, and SegLevel
// must find the same bitset Child attaches.
func childLevel(t testing.TB, keys []relation.Value, lo, hi int) LevelRange {
	t.Helper()
	b := relation.NewBuilder("R", "P", "A")
	for _, v := range []relation.Value{1, 2, 3} {
		if err := b.Add(0, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range keys {
		if err := b.Add(1, v); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(b.Build(), []string{"P", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 || lo > 0 || hi < len(keys) {
		return tr.SegLevel(1, 3+lo, 3+hi)
	}
	r := tr.SegLevel(1, 0, 0)
	tr.Child(&r, 0, 1)
	if seg := tr.SegLevel(1, r.Lo, r.Hi); seg.w0 != r.w0 || seg.w1 != r.w1 || seg.wb != r.wb {
		t.Fatalf("SegLevel and Child disagree on the bitset of %v", keys)
	}
	return r
}

// isDense reports whether a range carries a bitset.
func isDense(r LevelRange) bool { return r.w0 < r.w1 }

// rangeSet returns a dense range's bitset.
func rangeSet(r LevelRange) bitset {
	return bitset{words: r.t.words[r.w0:r.w1], rank: r.t.ranks[r.w0/2 : r.w1/2]}
}

// matchedAt reports whether at holds, for every range, a position
// inside the range's window [Lo,Hi) whose key is v — the contract of
// the positions IntersectLevelsAt and StreamLevels report.
func matchedAt(ranges []LevelRange, v relation.Value, at []int) bool {
	if len(at) != len(ranges) {
		return false
	}
	for j, r := range ranges {
		p := at[j]
		if p < r.Lo || p >= r.Hi {
			return false
		}
		if (r.Keys32 != nil && relation.Value(r.Keys32[p]) != v) || (r.Keys32 == nil && r.Keys[p] != v) {
			return false
		}
	}
	return true
}

// kernelsAgree checks every kernel entry on ranges against the oracle
// answer want: IntersectLevels, IntersectLevelsAt (values and
// positions, appended after existing contents), IntersectLevelsCount
// at caps 1, 2, 3 and uncapped, and the streaming StreamLevels (values,
// positions, and stops after the first value, the second, half the
// values and the extra stop index, so the merge and probe branches stop
// mid-level). It returns a description of the first disagreement, or
// "".
func kernelsAgree(ranges []LevelRange, want []relation.Value, stop int) string {
	same := func(got []relation.Value) bool {
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
	if got := IntersectLevels(nil, ranges); !same(got) {
		return fmt.Sprintf("IntersectLevels = %v, want %v", got, want)
	}
	k := len(ranges)
	vals, at := IntersectLevelsAt([]relation.Value{-1}, []int{-1}, ranges)
	if !same(vals[1:]) || len(at) != 1+k*len(want) {
		return fmt.Sprintf("IntersectLevelsAt = %v with %d positions, want %v", vals[1:], len(at)-1, want)
	}
	for i, v := range want {
		if !matchedAt(ranges, v, at[1+i*k:1+(i+1)*k]) {
			return fmt.Sprintf("IntersectLevelsAt: value %d reported at %v", v, at[1+i*k:1+(i+1)*k])
		}
	}
	for _, c := range []int{1, 2, 3, math.MaxInt} {
		if n := IntersectLevelsCount(ranges, c); n != min(len(want), c) {
			return fmt.Sprintf("IntersectLevelsCount(cap %d) = %d, want %d", c, n, min(len(want), c))
		}
	}
	var streamed []relation.Value
	misplaced := false
	StreamLevels(ranges, nil, func(v relation.Value, at []int) bool {
		misplaced = misplaced || !matchedAt(ranges, v, at)
		streamed = append(streamed, v)
		return false
	})
	if !same(streamed) || misplaced {
		return fmt.Sprintf("StreamLevels = %v (misplaced %v), want %v", streamed, misplaced, want)
	}
	// A stop after the n-th value leaves exactly the first n.
	for _, n := range []int{1, 2, len(want) / 2, stop} {
		if n < 1 {
			continue
		}
		streamed = streamed[:0]
		StreamLevels(ranges, make([]int, k), func(v relation.Value, at []int) bool {
			misplaced = misplaced || !matchedAt(ranges, v, at)
			streamed = append(streamed, v)
			return len(streamed) == n
		})
		if m := min(len(want), n); len(streamed) != m || misplaced || !slices.Equal(streamed, want[:m]) {
			return fmt.Sprintf("StreamLevels stopped at value %d: streamed %v (misplaced %v), want %v", n, streamed, misplaced, want[:m])
		}
	}
	return ""
}

// TestPropertyKernelsAgree: for random duplicate-free sorted inputs —
// including size skews that exercise the linear merge, the galloping
// kernel, the probe into a dense set and the AND of dense sets, empty
// ranges, windows that start and end inside their key arrays, whole
// dense and sparse level-0 ranges, dense and sparse children spans
// (whose first key sits inside the level's key array), k up to 4 and
// every width combination (wide, narrow, mixed) — every kernel entry
// agrees with the map-based oracle, and every reported position lies in
// its range's window and holds the value.
func TestPropertyKernelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		keySets := make([][]relation.Value, k)
		ranges := make([]LevelRange, k)
		width := rng.Intn(3) // 0 = all wide, 1 = all narrow, 2 = mixed
		for i := 0; i < k; i++ {
			// Skewed sizes: some tiny sets against some large ones, so
			// k = 2 draws hit both the merge and the gallop kernel; a
			// large set over the wider domain is too sparse for a bitset.
			var n int
			dom := 1500
			if rng.Intn(2) == 0 {
				n = rng.Intn(12) // occasionally empty
			} else {
				n = 200 + rng.Intn(800)
				dom = []int{1500, 1500, 40000}[rng.Intn(3)]
			}
			keys := sortedSet(rng, n, dom)
			// The window is a parent's children span, which may start
			// and end inside the level's key array, or half the time
			// the whole span.
			lo, hi := 0, len(keys)
			if rng.Intn(2) == 0 {
				lo = rng.Intn(len(keys)/4 + 1)
				hi = max(len(keys)-rng.Intn(len(keys)/4+1), lo)
			}
			keySets[i] = keys[lo:hi]
			narrow := width == 1 || (width == 2 && i%2 == 1)
			switch c := rng.Intn(3); {
			case narrow && c == 0:
				// A trie's level 0: dense if whole and dense.
				ranges[i] = trieLevel(t, keys, lo, hi)
			case narrow && c == 1:
				// A parent's children: dense if whole and dense.
				ranges[i] = childLevel(t, keys, lo, hi)
			case narrow:
				ranges[i] = LevelRange{Keys32: toNarrow(keys), Lo: lo, Hi: hi}
			default:
				ranges[i] = LevelRange{Keys: keys, Lo: lo, Hi: hi}
			}
		}
		want := refIntersect(keySets)
		if msg := kernelsAgree(ranges, want, rng.Intn(len(want)+1)); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGallopLB: gallopLB from any starting cursor matches a
// plain binary search over the same window.
func TestPropertyGallopLB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := sortedSet(rng, 1+rng.Intn(300), 1000)
		if len(keys) == 0 {
			return true
		}
		lo := rng.Intn(len(keys))
		v := relation.Value(rng.Intn(1100) - 50)
		got := gallopLB(keys, lo, len(keys), v)
		want := lo + sort.Search(len(keys)-lo, func(i int) bool { return keys[lo+i] >= v })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySeek: from any cursor lo that satisfies seek's
// precondition (every key before lo is below v), seek on a dense set —
// a whole level 0, or a children span that starts inside its level —
// finds v exactly when the set holds it, at its position, and ends the
// intersection only past the last key, for v from below the set's
// first word to past its last.
func TestPropertySeek(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shift := relation.Value(rng.Intn(100)) // a minimum off the word grid
		keys := sortedSet(rng, 150+rng.Intn(300), 400)
		for i := range keys {
			keys[i] += shift
		}
		r := trieLevel(t, keys, 0, len(keys))
		if rng.Intn(2) == 0 {
			r = childLevel(t, keys, 0, len(keys))
		}
		if !isDense(r) {
			t.Logf("seed %d: %d keys below 500 are not dense", seed, len(keys))
			return false
		}
		v := uint32(rng.Intn(600))
		want := r.Lo + sort.Search(len(keys), func(i int) bool { return keys[i] >= relation.Value(v) })
		in := want < r.Hi && r.Keys32[want] == v
		lo := r.Lo + rng.Intn(want-r.Lo+1)
		s := span32(&r, 0)
		at, hit, more := seek(&s, lo, v)
		if hit != in || (hit && at != want) || (!more && want < r.Hi) {
			t.Logf("seed %d: seek(%d) = %d, %v, %v; want the key at %d (held %v)", seed, v, at, hit, more, want, in)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRankedLevelEdges pins the dense sets' edges through every kernel
// entry: probe values 0 and past the last key, a level-0 window that
// starts at 0 but ends early (which must not be dense, or seeks would
// land past its end), a sparse and a too-small level 0 and a wide one
// (none dense), keys at bits 0, 63 and 64 of a word, a minimum off the
// word grid, children spans that start inside their level, the AND of
// two and three dense sets, and a dense pair with a sparse third range;
// every case also stops its stream mid-word.
func TestRankedLevelEdges(t *testing.T) {
	dense := []relation.Value{0, 1, 2, 5, 8, 13, 21, 34, 40}
	whole := trieLevel(t, dense, 0, len(dense))
	if !isDense(whole) {
		t.Fatal("a dense narrowed level 0 has no bitset")
	}
	early := trieLevel(t, dense, 0, len(dense)-3)
	if isDense(early) {
		t.Fatal("a level-0 window that ends early is dense")
	}
	sparse := []relation.Value{0, 1000, 2000, 3000, 4000, 5000, 6000, 7000}
	if r := trieLevel(t, sparse, 0, len(sparse)); isDense(r) {
		t.Fatal("a sparse level 0 is dense")
	}
	if r := trieLevel(t, dense[:denseMin-1], 0, denseMin-1); isDense(r) {
		t.Fatalf("a level 0 of %d keys is dense", denseMin-1)
	}
	wideKeys := []relation.Value{1 << 33, 1<<33 + 1}
	if r := trieLevel(t, wideKeys, 0, len(wideKeys)); isDense(r) || r.Keys == nil {
		t.Fatal("a wide level 0 is dense")
	}
	// Keys on both sides of word boundaries, from a minimum off the
	// grid: 64 is bit 0 of the set's second word, 127 bit 63.
	edges := []relation.Value{5, 63, 64, 65, 100, 126, 127, 128, 191, 192}
	edges2 := []relation.Value{0, 5, 62, 63, 64, 127, 128, 129, 190, 191}
	edges3 := []relation.Value{5, 6, 7, 63, 64, 127, 128, 191, 192, 193}
	child, child2 := childLevel(t, edges, 0, len(edges)), childLevel(t, edges2, 0, len(edges2))
	if !isDense(child) || !isDense(child2) || child.Lo == 0 {
		t.Fatal("a dense children span has no bitset, or starts at 0")
	}
	probe := func(vs ...relation.Value) LevelRange {
		return LevelRange{Keys32: toNarrow(vs), Lo: 0, Hi: len(vs)}
	}
	for _, c := range []struct {
		name string
		sets [][]relation.Value
		rs   []LevelRange
	}{
		{"zero and past the last key",
			[][]relation.Value{{0, 3, 40, 41, 100, 1 << 31}, dense},
			[]LevelRange{probe(0, 3, 40, 41, 100, 1<<31), whole}},
		{"only past the last key",
			[][]relation.Value{{41, 42}, dense},
			[]LevelRange{probe(41, 42), whole}},
		{"k=3 zero and past the last key",
			[][]relation.Value{{0, 8, 40, 99}, dense, {0, 8, 40, 99, 500}},
			[]LevelRange{probe(0, 8, 40, 99), whole, probe(0, 8, 40, 99, 500)}},
		{"k=3 two dense",
			[][]relation.Value{dense, dense, {0, 5, 34, 77}},
			[]LevelRange{whole, whole, probe(0, 5, 34, 77)}},
		{"window ending early",
			[][]relation.Value{{0, 13, 21, 34, 40}, dense[:len(dense)-3]},
			[]LevelRange{probe(0, 13, 21, 34, 40), early}},
		{"k=3 window ending early",
			[][]relation.Value{{13, 21, 34, 40}, dense[:len(dense)-3], dense},
			[]LevelRange{probe(13, 21, 34, 40), early, whole}},
		{"sparse",
			[][]relation.Value{{0, 999, 1000, 3000, 3001}, sparse},
			[]LevelRange{probe(0, 999, 1000, 3000, 3001), trieLevel(t, sparse, 0, len(sparse))}},
		{"and across word boundaries",
			[][]relation.Value{edges, edges2},
			[]LevelRange{child, child2}},
		{"and with a whole level 0",
			[][]relation.Value{edges, dense},
			[]LevelRange{child, whole}},
		{"k=3 and",
			[][]relation.Value{edges, edges2, edges3},
			[]LevelRange{child, child2, childLevel(t, edges3, 0, len(edges3))}},
		{"k=3 and, sparse third",
			[][]relation.Value{edges, edges2, {63, 64, 127, 128, 129, 400, 500, 600, 700, 800, 900, 1000}},
			[]LevelRange{child, child2, probe(63, 64, 127, 128, 129, 400, 500, 600, 700, 800, 900, 1000)}},
		{"probe a dense children span",
			[][]relation.Value{{0, 5, 63, 64, 127, 192, 193, 400}, edges},
			[]LevelRange{probe(0, 5, 63, 64, 127, 192, 193, 400), child}},
		{"dense smaller than a sparse side",
			[][]relation.Value{edges, {1, 5, 9, 63, 64, 70, 80, 90, 100, 120, 127, 128, 130, 191, 192}},
			[]LevelRange{child, probe(1, 5, 9, 63, 64, 70, 80, 90, 100, 120, 127, 128, 130, 191, 192)}},
	} {
		if msg := kernelsAgree(c.rs, refIntersect(c.sets), 3); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
}

// TestGallopSkewHeavy pins the galloping path deterministically: a
// 64-key needle set against a 100k haystack, partial overlap.
func TestGallopSkewHeavy(t *testing.T) {
	huge := make([]relation.Value, 100_000)
	for i := range huge {
		huge[i] = relation.Value(3 * i)
	}
	tiny := make([]relation.Value, 64)
	for i := range tiny {
		tiny[i] = relation.Value(4000 * i)
	}
	ranges := []LevelRange{
		{Keys: tiny, Lo: 0, Hi: len(tiny)},
		{Keys: huge, Lo: 0, Hi: len(huge)},
	}
	want := refIntersect([][]relation.Value{tiny, huge})
	got := IntersectLevels(nil, ranges)
	if len(got) != len(want) {
		t.Fatalf("gallop-skewed: %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gallop-skewed[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if n := IntersectLevelsCount(ranges, math.MaxInt); n != len(want) {
		t.Fatalf("count = %d, want %d", n, len(want))
	}
	if n := IntersectLevelsCount(ranges, 1); n != 1 {
		t.Fatalf("count capped at 1 = %d on a non-empty intersection", n)
	}
}

// randomRelation builds a random arity-a relation with n draws over a
// small domain (so duplicates collapse and tries get real branching).
func randomRelation(t testing.TB, rng *rand.Rand, name string, attrs []string, n, dom int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom))
		}
		if err := b.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// sameCSR asserts two tries have identical CSR structure: segment
// counts, keys, row ranges and children spans at every level, the same
// narrowing decision, and the same dense sets — words, ranks and index.
func sameCSR(t *testing.T, got, want *Trie) {
	t.Helper()
	if got.Len() != want.Len() || got.Depth() != want.Depth() {
		t.Fatalf("shape: %dx%d vs %dx%d", got.Len(), got.Depth(), want.Len(), want.Depth())
	}
	if got.Narrowed() != want.Narrowed() {
		t.Fatalf("narrowed: %v vs %v", got.Narrowed(), want.Narrowed())
	}
	for d := 0; d < got.Depth(); d++ {
		if got.NumSegs(d) != want.NumSegs(d) {
			t.Fatalf("level %d: %d segs vs %d", d, got.NumSegs(d), want.NumSegs(d))
		}
		for s := 0; s < got.NumSegs(d); s++ {
			if got.SegKey(d, s) != want.SegKey(d, s) {
				t.Fatalf("level %d seg %d: key %d vs %d", d, s, got.SegKey(d, s), want.SegKey(d, s))
			}
			glo, ghi := got.SegRows(d, s)
			wlo, whi := want.SegRows(d, s)
			if glo != wlo || ghi != whi {
				t.Fatalf("level %d seg %d: rows [%d,%d) vs [%d,%d)", d, s, glo, ghi, wlo, whi)
			}
			if d+1 < got.Depth() {
				gcl, gch := got.Children(d, s)
				wcl, wch := want.Children(d, s)
				if gcl != wcl || gch != wch {
					t.Fatalf("level %d seg %d: children [%d,%d) vs [%d,%d)", d, s, gcl, gch, wcl, wch)
				}
			}
		}
	}
	if !slices.Equal(got.words, want.words) || !slices.Equal(got.ranks, want.ranks) || len(got.dense) != len(want.dense) {
		t.Fatalf("dense sets: %d words, %d ranks, %d levels vs %d, %d, %d",
			len(got.words), len(got.ranks), len(got.dense), len(want.words), len(want.ranks), len(want.dense))
	}
	for d := range got.dense {
		if !slices.Equal(got.dense[d].off, want.dense[d].off) || !slices.Equal(got.dense[d].wb, want.dense[d].wb) ||
			!slices.Equal(got.dense[d].parents.words, want.dense[d].parents.words) {
			t.Fatalf("level %d: dense sets at %v vs %v", d, got.dense[d].off, want.dense[d].off)
		}
	}
}

// TestPropertyMergeEqualsRebuild: merging a delta into a flat trie
// yields byte-for-byte the same CSR index as rebuilding from scratch
// over the post-delta tuple set.
func TestPropertyMergeEqualsRebuild(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomRelation(t, rng, "R", attrs, 30+rng.Intn(60), 8)
		baseTr, err := Build(base, attrs)
		if err != nil {
			t.Fatal(err)
		}
		add := randomRelation(t, rng, "R", attrs, rng.Intn(20), 8)
		// Delete a random subset of base rows (delta layer guarantees
		// del ⊆ base; mimic that).
		db := relation.NewBuilder("R", attrs...)
		for _, tup := range base.Tuples() {
			if rng.Intn(4) == 0 {
				if err := db.Add(tup...); err != nil {
					t.Fatal(err)
				}
			}
		}
		del := db.Build()
		merged, err := Merge(baseTr, add, del)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild from scratch over the same post-delta tuple set.
		rb := relation.NewBuilder("R", attrs...)
		dead := make(map[string]bool)
		for _, tup := range del.Tuples() {
			dead[tup.String()] = true
		}
		for _, tup := range base.Tuples() {
			if !dead[tup.String()] {
				if err := rb.Add(tup...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tup := range add.Tuples() {
			if err := rb.Add(tup...); err != nil {
				t.Fatal(err)
			}
		}
		rebuilt, err := Build(rb.Build(), attrs)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, merged, rebuilt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNarrowing: tries narrow to uint32 keys exactly when every value
// of every column fits.
func TestNarrowing(t *testing.T) {
	small := rel(t, "S", []string{"A", "B"},
		[]relation.Value{1, 10}, []relation.Value{2, 20}, []relation.Value{math.MaxUint32, 30})
	tr, err := Build(small, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Narrowed() {
		t.Fatal("all values fit uint32; trie should narrow")
	}
	if tr.SegKey(0, tr.NumSegs(0)-1) != math.MaxUint32 {
		t.Fatal("narrowed trie lost its MaxUint32 key")
	}

	for _, bad := range [][]relation.Value{
		{-1, 1},                 // negative
		{math.MaxUint32 + 1, 1}, // too wide
	} {
		r := rel(t, "W", []string{"A", "B"}, bad, []relation.Value{5, 6})
		tr, err := Build(r, []string{"A", "B"})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Narrowed() {
			t.Fatalf("values %v cannot narrow", bad)
		}
	}
}

// denseBytes is what a trie's dense sets own: their words and ranks
// and the levels' offset and first-word tables.
func denseBytes(tr *Trie) int64 {
	n := int64(len(tr.words))*8 + int64(len(tr.ranks))*4
	for _, dl := range tr.dense {
		n += int64(len(dl.off)+len(dl.wb)) * 4
	}
	return n
}

// TestSizeBytesAccountsIndex: SizeBytes covers the raw columns plus
// every owned index array (offsets, segment-key slabs, narrowed copies,
// the dense sets' words, counts and offset tables) — the footprint a
// memoized trie pins.
func TestSizeBytesAccountsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(t, rng, "R", []string{"A", "B", "C"}, 500, 12)
	tr, err := Build(r, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	colBytes := int64(tr.Len() * tr.Depth() * 8)
	if tr.SizeBytes() <= colBytes {
		t.Fatalf("SizeBytes = %d does not cover the CSR index above %d column bytes", tr.SizeBytes(), colBytes)
	}
	// Offsets alone: every non-deepest level owns rowStart (+1
	// sentinel) int32 entries, so the index must charge at least that;
	// level 0 and every level-1 span (values below 12) are dense too.
	var offsets int64
	for d := 0; d < tr.Depth()-1; d++ {
		offsets += int64((tr.NumSegs(d) + 1) * 4)
	}
	if !isDense(tr.SegLevel(0, 0, tr.NumSegs(0))) || len(tr.dense[1].off) != tr.NumSegs(0)+1 {
		t.Fatal("level 0 and the level-1 spans of values below 12 are not all dense")
	}
	dense := denseBytes(tr)
	if tr.SizeBytes() < colBytes+offsets+dense {
		t.Fatalf("SizeBytes = %d < columns %d + offsets %d + dense sets %d", tr.SizeBytes(), colBytes, offsets, dense)
	}

	// The same shape with level-0 and level-1 keys spread 1000 apart
	// has no dense set, and SizeBytes charges exactly the dense sets'
	// bytes less.
	sb := relation.NewBuilder("R", "A", "B", "C")
	for _, tup := range r.Tuples() {
		if err := sb.Add(tup[0]*1000, tup[1]*1000, tup[2]); err != nil {
			t.Fatal(err)
		}
	}
	sparse, err := Build(sb.Build(), []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.dense != nil {
		t.Fatal("keys spread 1000 apart are dense")
	}
	if got := tr.SizeBytes() - sparse.SizeBytes(); got != dense {
		t.Fatalf("dense - sparse SizeBytes = %d, want the dense sets' %d bytes", got, dense)
	}
}

// TestDenseSets: on random narrowed tries, a span — the whole of level
// 0 or a parent's children — has a bitset exactly when denseWords
// accepts it; the bitset holds exactly the span's keys, and the rank of
// each key is its position. Child and SegLevel attach the same bitset.
func TestDenseSets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dom := []int{16, 60, 400}[rng.Intn(3)]
		tr, err := Build(randomRelation(t, rng, "R", []string{"A", "B", "C"}, 50+rng.Intn(400), dom), []string{"A", "B", "C"})
		if err != nil {
			t.Fatal(err)
		}
		check := func(r LevelRange) bool {
			if isDense(r) != (denseWords(r.Keys32, r.Lo, r.Hi) > 0) {
				t.Logf("seed %d: span [%d,%d) dense = %v", seed, r.Lo, r.Hi, isDense(r))
				return false
			}
			if !isDense(r) {
				return true
			}
			set, base, members := rangeSet(r), int(r.Keys32[r.Lo]&^63), 0
			if int(r.wb)<<6 != base {
				t.Logf("seed %d: span [%d,%d) has its first word at %d, want %d", seed, r.Lo, r.Hi, r.wb, base>>6)
				return false
			}
			for _, x := range set.words {
				members += bits.OnesCount64(x)
			}
			for p := r.Lo; p < r.Hi; p++ {
				i := int(r.Keys32[p]) - base
				if !set.has(i) || set.below(i) != p {
					t.Logf("seed %d: key %d at %d not found at its rank", seed, r.Keys32[p], p)
					return false
				}
			}
			return members == r.Hi-r.Lo
		}
		if !check(tr.SegLevel(0, 0, tr.NumSegs(0))) {
			return false
		}
		for d := 0; d+1 < tr.Depth(); d++ {
			r := tr.SegLevel(d+1, 0, 0)
			for s := 0; s < tr.NumSegs(d); s++ {
				tr.Child(&r, d, s)
				seg := tr.SegLevel(d+1, r.Lo, r.Hi)
				if seg.w0 != r.w0 || seg.w1 != r.w1 || seg.wb != r.wb || !check(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzIntersectKernels cross-checks every kernel entry and the
// positions they report against the oracle on fuzzer-shaped inputs:
// two and three sorted duplicate-free sets built from the raw bytes,
// wide, narrow, mixed, and as whole levels 0 and children spans (with
// bitsets when dense), with a streaming stop index derived from the
// input lengths.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{3})
	f.Add([]byte{}, []byte{0, 255}, []byte{0})
	f.Add([]byte{9, 9, 9, 1}, []byte{9}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 7, 8, 200}, []byte{0, 1, 7, 255})
	f.Add([]byte{3, 9, 63, 64, 65, 100, 127, 128, 191}, []byte{0, 5, 9, 63, 64, 127, 128, 129, 190, 191}, []byte{9, 62, 63, 64, 127, 128, 129, 191, 192})
	f.Fuzz(func(t *testing.T, ab, bb, cb []byte) {
		mk := func(bs []byte) []relation.Value {
			set := make(map[relation.Value]bool)
			for _, b := range bs {
				set[relation.Value(b)] = true
			}
			out := make([]relation.Value, 0, len(set))
			for v := range set {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b, c := mk(ab), mk(bb), mk(cb)
		wide := func(ks []relation.Value) LevelRange { return LevelRange{Keys: ks, Lo: 0, Hi: len(ks)} }
		narrow := func(ks []relation.Value) LevelRange { return LevelRange{Keys32: toNarrow(ks), Lo: 0, Hi: len(ks)} }
		level := func(ks []relation.Value) LevelRange { return trieLevel(t, ks, 0, len(ks)) }
		child := func(ks []relation.Value) LevelRange { return childLevel(t, ks, 0, len(ks)) }
		want2 := refIntersect([][]relation.Value{a, b})
		want3 := refIntersect([][]relation.Value{a, b, c})
		for _, tc := range []struct {
			ranges []LevelRange
			want   []relation.Value
		}{
			{[]LevelRange{wide(a), wide(b)}, want2},
			{[]LevelRange{narrow(a), narrow(b)}, want2},
			{[]LevelRange{wide(a), narrow(b)}, want2},
			{[]LevelRange{narrow(a), level(b)}, want2},
			{[]LevelRange{level(a), level(b)}, want2},
			{[]LevelRange{wide(a), wide(b), wide(c)}, want3},
			{[]LevelRange{narrow(a), narrow(b), narrow(c)}, want3},
			{[]LevelRange{wide(a), narrow(b), wide(c)}, want3},
			{[]LevelRange{narrow(a), level(b), narrow(c)}, want3},
			{[]LevelRange{level(a), level(b), level(c)}, want3},
			{[]LevelRange{child(a), level(b)}, want2},
			{[]LevelRange{child(a), child(b), child(c)}, want3},
			{[]LevelRange{child(a), narrow(b), level(c)}, want3},
		} {
			// The stop index comes from the input too.
			stop := (len(ab) + 3*len(bb) + 7*len(cb)) % (len(tc.want) + 1)
			if msg := kernelsAgree(tc.ranges, tc.want, stop); msg != "" {
				t.Fatalf("ranges %v: %s", tc.ranges, msg)
			}
		}
	})
}
