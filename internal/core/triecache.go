package core

import (
	"hash/maphash"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// The trie store memoizes the expensive half of plan construction.
// Building a trie for an atom means renaming the relation's columns to
// the atom's variables and re-sorting the storage by the atom's slice
// of the global variable order — O(N log N) per atom. The same
// (relation, binding, order) triple recurs constantly: repeated
// queries over a long-lived database, the planner's equivalence and
// benchmark probes, and every parallel run that follows a serial one.
// Relations are immutable, so a built trie is valid forever and safe
// to share across plans and worker goroutines; the cache key uses the
// relation's pointer identity.
//
// The store is bounded by a byte budget with LRU eviction: each entry
// is charged its trie's estimated storage footprint and stamped from a
// store-wide logical clock on every hit; when the resident total
// exceeds the budget the stalest stamps are evicted until it fits.
// Entries larger than the whole budget are returned to the caller
// uncached.
//
// Concurrency: the key space is striped across trieStoreShards
// independently locked segments, and the hit path — the only path a
// steady-state workload touches — takes a shard *read* lock plus one
// atomic stamp update. Concurrent plan builds therefore scale with
// cores even when every worker wants the same trie; the old
// single-mutex cache serialized them all. Builds still happen outside
// any lock, and a lost build race shares the winner's trie.
//
// There is no process-wide store: every store belongs to whoever
// called NewTrieStore — in the product, one per wcoj.DB — and one-shot
// calls build their tries with BuildTrie and discard them.

// trieKey identifies one atom trie: the backing relation, the
// variable binding of the atom, and the trie's attribute order.
type trieKey struct {
	rel         *relation.Relation
	vars, order string
}

// trieEntry is one resident store entry.
type trieEntry struct {
	key   trieKey
	tr    *trie.Trie
	bytes int64
	// stamp is the store's logical clock value at the entry's last
	// touch; eviction removes the smallest stamps first.
	stamp atomic.Uint64
}

// DefaultTrieCacheLimit is the byte budget a DB's store starts with.
// 256 MiB of cached tries: generous for benchmark suites, small next to
// the relations a workload at that scale already holds.
const DefaultTrieCacheLimit int64 = 256 << 20

// trieEntryOverhead is the fixed per-entry charge on top of the
// trie's storage estimate: map slot, key strings and the entry struct.
// It keeps zero-byte tries (empty relations) from slipping under the
// byte budget — without it a process churning through distinct empty
// relations would accumulate entries forever, the exact unbounded
// growth the budget exists to prevent — and makes SetLimit(0)
// genuinely cache nothing.
const trieEntryOverhead int64 = 256

// trieStoreShards is the stripe count. 32 shards keep the probability
// of two concurrent *distinct-key* operations colliding low on any
// realistic core count; same-key hits don't collide at all (read
// lock).
const trieStoreShards = 32

// trieShard is one independently locked stripe of the key space.
type trieShard struct {
	mu sync.RWMutex
	m  map[trieKey]*trieEntry
}

// TrieStore is a bounded, sharded cache of built atom tries. The zero
// value is not usable; create one with NewTrieStore. A DB owns one
// store per engine instance.
type TrieStore struct {
	limit     atomic.Int64
	bytes     atomic.Int64
	clock     atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	// evictMu serializes eviction sweeps (never held by the hit path).
	evictMu sync.Mutex
	shards  [trieStoreShards]trieShard
}

// NewTrieStore returns an empty store with the given byte budget;
// limit <= 0 disables caching (every Get builds).
func NewTrieStore(limit int64) *TrieStore {
	s := &TrieStore{}
	s.limit.Store(limit)
	for i := range s.shards {
		s.shards[i].m = make(map[trieKey]*trieEntry)
	}
	return s
}

// trieKeySeed seeds the shard hash; one per process is plenty.
var trieKeySeed = maphash.MakeSeed()

// shardOf maps a key to its stripe.
func (s *TrieStore) shardOf(key trieKey) *trieShard {
	var h maphash.Hash
	h.SetSeed(trieKeySeed)
	var p [8]byte
	ptr := reflect.ValueOf(key.rel).Pointer()
	for i := range p {
		p[i] = byte(ptr >> (8 * i))
	}
	h.Write(p[:])
	h.WriteString(key.vars)
	h.WriteString(key.order)
	return &s.shards[h.Sum64()%trieStoreShards]
}

// keyOf builds the cache key of (atom, trie order).
func keyOf(a Atom, atomOrder []string) trieKey {
	return trieKey{
		rel:   a.Rel,
		vars:  strings.Join(a.Vars, "\x1f"),
		order: strings.Join(atomOrder, "\x1f"),
	}
}

// Get returns the trie for atom a under atomOrder, building and
// caching it on first use.
func (s *TrieStore) Get(a Atom, atomOrder []string) (*trie.Trie, error) {
	if tr, ok := s.lookup(keyOf(a, atomOrder)); ok {
		return tr, nil
	}
	s.misses.Add(1)

	// Build outside any lock: sorting a large relation must not block
	// concurrent plan construction.
	tr, err := BuildTrie(a, atomOrder)
	if err != nil {
		return nil, err
	}
	return s.insert(keyOf(a, atomOrder), tr), nil
}

// BuildTrie builds atom a's trie under atomOrder directly, outside any
// store: the relation's columns are renamed to the atom's variables and
// the storage re-sorted by the atom's slice of the variable order.
func BuildTrie(a Atom, atomOrder []string) (*trie.Trie, error) {
	rel, err := a.Rel.Rename(a.Name, a.Vars...)
	if err != nil {
		return nil, err
	}
	return trie.Build(rel, atomOrder)
}

// Lookup returns the cached trie for (atom, order) without building on
// a miss. The mutable-relation layer probes with it before paying a
// delta merge; a found entry counts as a hit, a miss counts as a miss
// (the caller's Add completes the same build-on-miss cycle Get runs).
func (s *TrieStore) Lookup(a Atom, atomOrder []string) (*trie.Trie, bool) {
	tr, ok := s.lookup(keyOf(a, atomOrder))
	if !ok {
		s.misses.Add(1)
	}
	return tr, ok
}

// Add caches an externally built trie for (atom, order) — the
// level-merged snapshot tries of the mutable-relation layer enter the
// store here, under the byte budget and LRU policy of every other
// entry. When a concurrent insert for the same key won, the resident
// trie is returned and should be used instead (all candidates for one
// key are equivalent).
func (s *TrieStore) Add(a Atom, atomOrder []string, tr *trie.Trie) *trie.Trie {
	return s.insert(keyOf(a, atomOrder), tr)
}

// lookup is the shared hit path: shard read lock, atomic LRU stamp.
func (s *TrieStore) lookup(key trieKey) (*trie.Trie, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	e.stamp.Store(s.clock.Add(1))
	s.hits.Add(1)
	return e.tr, true
}

// insert caches a built trie under the byte budget, resolving insert
// races by adopting the resident winner.
func (s *TrieStore) insert(key trieKey, tr *trie.Trie) *trie.Trie {
	size := tr.SizeBytes() + trieEntryOverhead
	if size > s.limit.Load() {
		// Larger than the whole budget: hand it to the caller uncached.
		return tr
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	if won, ok := sh.m[key]; ok {
		// A concurrent builder won the race; share its trie.
		won.stamp.Store(s.clock.Add(1))
		tr = won.tr
		sh.mu.Unlock()
		return tr
	}
	e := &trieEntry{key: key, tr: tr, bytes: size}
	e.stamp.Store(s.clock.Add(1))
	sh.m[key] = e
	sh.mu.Unlock()
	if limit := s.limit.Load(); s.bytes.Add(size) > limit {
		// Evict with hysteresis (to 7/8 of the budget): each sweep
		// snapshots and sorts every resident stamp, so freeing only one
		// entry's worth would pay that cost again on the very next miss
		// of a workload sitting at its budget.
		s.evictTo(limit - limit/8)
	}
	return tr
}

// evictTo removes stalest-stamp entries until the resident total is at
// most target bytes. Sweeps are serialized; concurrent hits proceed
// under shard read locks and an entry touched after the sweep snapshot
// is skipped rather than evicted.
func (s *TrieStore) evictTo(target int64) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if target < 0 {
		target = 0
	}
	if s.bytes.Load() <= target {
		return
	}
	type victim struct {
		shard *trieShard
		e     *trieEntry
		stamp uint64
	}
	var all []victim
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			all = append(all, victim{shard: sh, e: e, stamp: e.stamp.Load()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
	for _, v := range all {
		if s.bytes.Load() <= target {
			return
		}
		sh := v.shard
		sh.mu.Lock()
		cur, ok := sh.m[v.e.key]
		if ok && cur == v.e && cur.stamp.Load() == v.stamp {
			delete(sh.m, v.e.key)
			s.bytes.Add(-v.e.bytes)
			s.evictions.Add(1)
		}
		sh.mu.Unlock()
	}
}

// SetLimit replaces the store's byte budget, evicting stale entries if
// the resident set exceeds the new limit, and returns the previous
// limit. Limits <= 0 disable caching entirely (every resident entry is
// dropped).
func (s *TrieStore) SetLimit(bytes int64) int64 {
	prev := s.limit.Swap(bytes)
	// Exact (no hysteresis): SetLimit is rare and callers expect the
	// resident set to land exactly within the new budget.
	s.evictTo(bytes)
	return prev
}

// Stats reports the store's lifetime hit/miss counters and current
// entry count; the benchmark harness uses it to show planner probes
// reusing tries.
func (s *TrieStore) Stats() (hits, misses uint64, size int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		size += len(sh.m)
		sh.mu.RUnlock()
	}
	return s.hits.Load(), s.misses.Load(), size
}

// Usage reports the resident byte total, the byte budget and the
// lifetime eviction count.
func (s *TrieStore) Usage() (bytes, limit int64, evictions uint64) {
	return s.bytes.Load(), s.limit.Load(), s.evictions.Load()
}
