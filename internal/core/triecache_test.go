package core

import (
	"testing"

	"wcoj/internal/relation"
)

// cacheTestQuery builds a 2-atom path query over two fresh relations
// of n edges each (distinct pointers, so every call occupies new store
// entries).
func cacheTestQuery(t *testing.T, n, seed int) *Query {
	t.Helper()
	mk := func(name string) *relation.Relation {
		b := relation.NewBuilder(name, "x", "y")
		for i := 0; i < n; i++ {
			b.Add(relation.Value((i*7+seed)%n), relation.Value((i*13+seed)%n))
		}
		return b.Build()
	}
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: mk("R")},
		{Name: "S", Vars: []string{"B", "C"}, Rel: mk("S")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestTrieCacheEviction: the cache stays within its byte budget while
// queries churn through distinct relations, evicted tries are rebuilt
// transparently, and results are identical before and after eviction.
// cacheCount runs q with its tries served from store and returns the
// result cardinality.
func cacheCount(t *testing.T, store *TrieStore, q *Query) int {
	t.Helper()
	out, _, err := gj(store, q, nil, MaterializeLevel)
	if err != nil {
		t.Fatal(err)
	}
	return out.Len()
}

func TestTrieCacheEviction(t *testing.T) {
	// Budget of ~6 tries of this size: 200 tuples x 2 cols x 8 bytes
	// plus the fixed per-entry overhead.
	const n = 200
	store := NewTrieStore(6 * (n*2*8 + trieEntryOverhead))

	queries := make([]*Query, 12)
	counts := make([]int, 12)
	for i := range queries {
		queries[i] = cacheTestQuery(t, n, i)
		counts[i] = cacheCount(t, store, queries[i])
	}
	bytes, limit, evictions := store.Usage()
	if bytes > limit {
		t.Fatalf("resident %d bytes exceeds limit %d", bytes, limit)
	}
	if evictions == 0 {
		t.Fatal("churning 24 tries through a 6-trie budget evicted nothing")
	}
	// Re-running the oldest queries rebuilds their evicted tries and
	// reproduces identical counts.
	for i, q := range queries {
		if c := cacheCount(t, store, q); c != counts[i] {
			t.Fatalf("query %d: count %d after eviction, want %d", i, c, counts[i])
		}
	}
	if bytes, limit, _ := store.Usage(); bytes > limit {
		t.Fatalf("resident %d bytes exceeds limit %d after rerun", bytes, limit)
	}
}

// TestTrieCacheLRUOrder: a recently-touched entry survives an eviction
// wave that claims colder entries.
func TestTrieCacheLRUOrder(t *testing.T) {
	const n = 200
	entryBytes := int64(n*2*8) + trieEntryOverhead
	store := NewTrieStore(4 * entryBytes)

	hot := cacheTestQuery(t, n, 100)
	cacheCount(t, store, hot)
	// Touch hot again, then stream two cold queries (4 tries) through:
	// the budget holds 4, so the cold entries must evict each other
	// (and at most one hot trie) while the most recently used hot trie
	// survives.
	cacheCount(t, store, hot)
	hitsBefore, missesBefore, _ := store.Stats()
	for seed := 0; seed < 2; seed++ {
		cacheCount(t, store, cacheTestQuery(t, n, seed))
	}
	hits, misses, size := store.Stats()
	if misses != missesBefore+4 {
		t.Fatalf("cold queries: %d misses, want %d", misses-missesBefore, 4)
	}
	if hits != hitsBefore {
		t.Fatalf("cold queries should not hit, got %d extra hits", hits-hitsBefore)
	}
	if size > 4 {
		t.Fatalf("resident entries = %d, budget holds 4", size)
	}
}

// TestTrieCacheOversizeUncached: a trie larger than the whole budget
// is built and used but never cached.
func TestTrieCacheOversizeUncached(t *testing.T) {
	store := NewTrieStore(64) // 4 tuples worth
	q := cacheTestQuery(t, 500, 1)
	c1 := cacheCount(t, store, q)
	if _, _, size := store.Stats(); size != 0 {
		t.Fatalf("oversize tries cached: %d entries", size)
	}
	if c2 := cacheCount(t, store, q); c1 != c2 {
		t.Fatalf("uncached reruns diverge: %d vs %d", c1, c2)
	}
}

// TestTrieCacheEmptyRelationsBounded: empty relations still carry the
// per-entry overhead, so churning through distinct empty tries cannot
// grow the cache without bound.
func TestTrieCacheEmptyRelationsBounded(t *testing.T) {
	store := NewTrieStore(4 * trieEntryOverhead)
	for i := 0; i < 32; i++ {
		q, err := NewQuery([]string{"A", "B"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: relation.Empty("R", "x", "y")},
		})
		if err != nil {
			t.Fatal(err)
		}
		cacheCount(t, store, q)
	}
	if _, _, size := store.Stats(); size > 4 {
		t.Fatalf("32 empty tries left %d resident entries in a 4-entry budget", size)
	}
}

// TestSetTrieCacheLimitShrink: shrinking the budget evicts down to it.
// The per-entry charge (columns + CSR index + fixed overhead) is
// measured from the cache rather than assumed, so the test holds for
// any trie layout.
func TestSetTrieCacheLimitShrink(t *testing.T) {
	const n = 200
	store := NewTrieStore(1 << 20)
	for seed := 0; seed < 3; seed++ {
		cacheCount(t, store, cacheTestQuery(t, n, seed))
	}
	bytes, _, _ := store.Usage()
	if _, _, size := store.Stats(); size != 6 {
		t.Fatalf("resident entries = %d, want 6", size)
	}
	// The six tries are identical in shape, so the resident bytes split
	// evenly into per-entry charges.
	entryBytes := bytes / 6
	if bytes != 6*entryBytes {
		t.Fatalf("resident %d bytes is not six equal entries", bytes)
	}
	if colsOnly := int64(n*2*8) + trieEntryOverhead; entryBytes <= colsOnly {
		t.Fatalf("entry charge %d does not cover the CSR index (columns+overhead alone = %d)", entryBytes, colsOnly)
	}
	store.SetLimit(2 * entryBytes)
	bytes, limit, _ := store.Usage()
	if bytes > limit {
		t.Fatalf("resident %d exceeds shrunken limit %d", bytes, limit)
	}
	if _, _, size := store.Stats(); size != 2 {
		t.Fatalf("resident entries = %d, want 2", size)
	}
	// A zero limit disables caching.
	store.SetLimit(0)
	if _, _, size := store.Stats(); size != 0 {
		t.Fatalf("zero limit left %d entries resident", size)
	}
}
