package wcoj

// The write path of the mutable-relation layer: batched inserts and
// deletes land in per-relation delta logs (internal/delta), publish as
// one atomic snapshot swap, and are absorbed by readers through
// level-merged (base ⊎ delta) tries resolved per execution. Dataflow:
//
//	Insert/Delete/Apply ──► delta.Version.Apply (O(batch·log) off-lock)
//	        │                        │
//	        │ publish (db.mu, all relations of the batch at once)
//	        ▼                        ▼
//	versions[name] head ──► updEpoch++ ──► prepared queries refresh
//	                                        lazily: base trie (memoized
//	                                        on Base) + sorted delta
//	                                        ──trie.Merge──► merged trie,
//	                                        memoized on Effective()
//	        │
//	        └─ delta depth ≥ ratio·|base| ──► compaction, inline, still
//	           under writeMu: Effective() promoted to the new base
//	           (same *Relation, so its merged tries become the base
//	           tries), delta emptied, WAL snapshotted.

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"wcoj/internal/core"
	"wcoj/internal/delta"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// DefaultCompactionRatio is the delta-to-base size ratio past which
// Apply's compaction folds a relation's delta log into a fresh
// base. At 1/4, read-side merge work stays within a constant factor
// of the base scan while compactions stay rare under steady streams.
const DefaultCompactionRatio = 0.25

// defaultCompactionMinBase keeps tiny relations from churning through
// compactions on every few updates: the ratio is taken against at
// least this base size. Small deltas are cheap to merge anyway.
const defaultCompactionMinBase = 1024

// UpdateStats reports what one update call changed. No-ops — inserts
// of tuples already present, deletes of tuples absent — are counted
// exactly and change nothing (not the data, not the delta depth).
type UpdateStats struct {
	// Inserted and Deleted count effective changes.
	Inserted, Deleted int
	// InsertNoops and DeleteNoops count operations with no effect.
	InsertNoops, DeleteNoops int
	// Epoch is the DB's update epoch after the call.
	Epoch uint64
}

// Batch accumulates insert and delete operations across any number of
// relations for one atomic Apply. The zero value is ready to use.
type Batch struct {
	ops   map[string][]delta.Op
	order []string // relation names in first-touch order
	n     int
}

// NewBatch returns an empty batch (equivalent to new(Batch)).
func NewBatch() *Batch { return &Batch{} }

// Insert queues tuples for insertion into the named relation.
func (b *Batch) Insert(rel string, tuples ...Tuple) *Batch {
	return b.add(rel, false, tuples)
}

// Delete queues tuples for deletion from the named relation.
func (b *Batch) Delete(rel string, tuples ...Tuple) *Batch {
	return b.add(rel, true, tuples)
}

func (b *Batch) add(rel string, del bool, tuples []Tuple) *Batch {
	if b.ops == nil {
		b.ops = make(map[string][]delta.Op)
	}
	if _, ok := b.ops[rel]; !ok {
		b.order = append(b.order, rel)
		// Materialize the entry even for an empty tuple list: the order
		// dedup above keys on map membership, and a name registered
		// twice would apply its operations twice (double-counted stats).
		b.ops[rel] = []delta.Op{}
	}
	for _, t := range tuples {
		b.ops[rel] = append(b.ops[rel], delta.Op{Del: del, T: t.Clone()})
		b.n++
	}
	return b
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return b.n }

// Insert adds tuples to the named relation. Tuples already present
// are no-ops (counted in UpdateStats, never logged). Equivalent to
// Apply of a single-relation insert batch; see Apply for atomicity
// and visibility semantics.
func (db *DB) Insert(rel string, tuples ...Tuple) (UpdateStats, error) {
	return db.Apply(new(Batch).Insert(rel, tuples...))
}

// Delete removes tuples from the named relation. Tuples not present
// are no-ops (counted in UpdateStats, never logged). Equivalent to
// Apply of a single-relation delete batch; see Apply for atomicity
// and visibility semantics.
func (db *DB) Delete(rel string, tuples ...Tuple) (UpdateStats, error) {
	return db.Apply(new(Batch).Delete(rel, tuples...))
}

// Apply folds one batch of updates into the engine, atomically:
// either every operation is published (as one snapshot swap across
// all touched relations) or, on error, none is. Operations apply in
// queue order within each relation. Concurrent executions that
// started before the swap keep their snapshot; executions that start
// after it see the whole batch — never part of it. Prepared queries
// are not invalidated: at their next execution they re-version only
// the touched relations' tries, merging the delta log into the base
// trie in linear time instead of re-sorting or re-planning. A relation
// whose delta crossed the compaction threshold is compacted before
// Apply returns (see SetCompactionThreshold).
//
// A batch that changes nothing (all no-ops) does not advance the
// update epoch, so readers skip the refresh entirely.
func (db *DB) Apply(b *Batch) (UpdateStats, error) {
	var us UpdateStats
	if b == nil || b.Len() == 0 {
		us.Epoch = db.updEpoch.Load()
		return us, nil
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.walClosed {
		return us, fmt.Errorf("wcoj: Apply: DB is closed")
	}
	// The writer holds a slot of the core budget while it holds the
	// lock, so sharded readers' workers yield a core to it at their next
	// chunk boundary; view maintenance searches on that slot.
	ctx, release := core.HoldCore(context.Background())
	defer release()

	// Snapshot the touched heads (writers are serialized by writeMu,
	// so these stay the heads until we publish).
	db.mu.RLock()
	heads := make(map[string]*delta.Version, len(b.order))
	for _, name := range b.order {
		v, ok := db.versions[name]
		if !ok {
			db.mu.RUnlock()
			return us, fmt.Errorf("wcoj: Apply: no relation %q", name)
		}
		heads[name] = v
	}
	db.mu.RUnlock()

	// Fold each relation's operations off-lock; reject the whole batch
	// on the first error (nothing has been published yet).
	next := make(map[string]*delta.Version, len(b.order))
	for _, name := range b.order {
		nv, st, err := heads[name].Apply(b.ops[name])
		if err != nil {
			return us, err
		}
		us.Inserted += st.Inserted
		us.Deleted += st.Deleted
		us.InsertNoops += st.InsertNoops
		us.DeleteNoops += st.DeleteNoops
		if nv != heads[name] {
			next[name] = nv
		}
	}

	// Durability before visibility: the effective batch is logged and
	// fsynced before any reader can observe it. A crash after this
	// point replays the batch; a crash during the append leaves a torn
	// tail that recovery truncates — the batch was never acknowledged.
	if len(next) > 0 {
		if err := db.walAppendBatchLocked(b); err != nil {
			return us, err
		}
	}

	// Maintain registered views against (pre-batch, post-batch) before
	// publishing: their successor values are computed here, off-lock,
	// and land in the same critical section as the version swap, so a
	// reader never pairs a view value with the wrong DBStats.Epoch.
	var ups []viewUpdate
	if len(next) > 0 {
		ups = db.maintainViews(ctx, next)
	}

	// Publish every touched relation in one critical section: a reader
	// snapshotting under mu.RLock sees all of the batch or none of it.
	db.mu.Lock()
	for name, nv := range next {
		db.versions[name] = nv
	}
	for _, u := range ups {
		u.mq.val.Store(u.res)
	}
	if len(next) > 0 {
		db.updEpoch.Add(1)
	}
	us.Epoch = db.updEpoch.Load()
	db.mu.Unlock()

	db.batches.Add(1)
	db.inserts.Add(uint64(us.Inserted))
	db.deletes.Add(uint64(us.Deleted))
	db.insertNoops.Add(uint64(us.InsertNoops))
	db.deleteNoops.Add(uint64(us.DeleteNoops))

	// Compact inline, still under writeMu: no later batch can move the
	// head first, so every fold is installed and none is thrown away.
	// The batch is already durable and published, so a failed WAL
	// snapshot is not Apply's error: the old generation stays the
	// recovery source, strictly more history than needed, never less.
	db.compactLocked(next, false) //nolint:errcheck
	return us, nil
}

// SetCompactionThreshold replaces the delta-to-base size ratio past
// which Apply compacts a relation it touched, and returns the previous
// one. Ratios <= 0 compact after every effective batch; very large
// ratios effectively disable automatic compaction (Compact still
// works).
func (db *DB) SetCompactionThreshold(ratio float64) float64 {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	prev := db.compactRatio
	db.compactRatio = ratio
	return prev
}

// Compact synchronously folds the delta logs of the named relations
// (all registered relations when none are named) into fresh bases,
// regardless of the size-ratio threshold. Useful before a read-heavy
// phase and in tests and benchmarks that need deterministic state.
func (db *DB) Compact(names ...string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if len(names) == 0 {
		names = db.Names()
	}
	heads := make(map[string]*delta.Version, len(names))
	for _, name := range names {
		db.mu.RLock()
		heads[name] = db.versions[name]
		db.mu.RUnlock()
		if heads[name] == nil {
			return fmt.Errorf("wcoj: Compact: no relation %q", name)
		}
	}
	return db.compactLocked(heads, true)
}

// compactLocked folds the delta of each given head — every non-empty
// one when force is set, else those past the compaction threshold —
// into a fresh base, installs it, and then snapshots the WAL, the
// fold's durable twin: the log no longer needs the folded history.
// The caller holds writeMu, so the heads are current. The update epoch
// does not advance: the tuple set is unchanged, so readers at this
// epoch stay valid, and each promoted base is pointer-identical to the
// effective relation their merged tries are memoized on.
func (db *DB) compactLocked(heads map[string]*delta.Version, force bool) error {
	compacted := false
	for name, v := range heads {
		if v.DeltaLen() == 0 || !force && !v.NeedsCompaction(db.compactRatio, db.compactMinBase) {
			continue
		}
		c := v.Compacted()
		db.mu.Lock()
		db.versions[name] = c
		db.mu.Unlock()
		db.compactions.Add(1)
		compacted = true
	}
	if !compacted {
		return nil
	}
	return db.walSnapshotLocked()
}

// ApplyDeltaCSV reads a delta file (relation.ReadDeltaCSV: "+,..."
// inserts, "-,..." deletes) and applies it to the named relation as
// one atomic batch — deletes first, then inserts, matching the
// target-state semantics of a delta file (a tuple on both sides ends
// up present). Field parsing follows opt exactly as in LoadCSV.
func (db *DB) ApplyDeltaCSV(r io.Reader, rel string, opt CSVOptions) (UpdateStats, error) {
	d, err := relation.ReadDeltaCSV(r, rel, opt)
	if err != nil {
		return UpdateStats{Epoch: db.updEpoch.Load()}, err
	}
	return db.Apply(new(Batch).Delete(rel, d.Delete...).Insert(rel, d.Insert...))
}

// ApplyDeltaFile is ApplyDeltaCSV over a file path; .tsv/.tab paths
// default the delimiter to a tab. Unlike LoadFile — where the file
// defines the relation's encoding — a delta must match the encoding
// the relation already uses, which the file extension cannot reveal:
// fields parse as integers unless the caller passes the dictionary
// the relation was loaded with (opt.Dict, typically db.Dict()).
// Defaulting dict interning from a .csv suffix would silently turn
// "+,7,8" into dense dict IDs against an integer-encoded relation.
func (db *DB) ApplyDeltaFile(path, rel string, opt CSVOptions) (UpdateStats, error) {
	if opt.Comma == 0 && (strings.HasSuffix(path, ".tsv") || strings.HasSuffix(path, ".tab")) {
		opt.Comma = '\t'
	}
	f, err := os.Open(path)
	if err != nil {
		return UpdateStats{Epoch: db.updEpoch.Load()}, err
	}
	defer f.Close()
	return db.ApplyDeltaCSV(f, rel, opt)
}

// snapshotSource is the one core.TrieSource: it serves the tries of a
// query bound by bindSnapshot. An atom whose relation is a version's
// effective relation (vers is keyed by that relation's identity) gets
// the base trie memoized on it when the version's delta is empty,
// otherwise a merged snapshot trie — the base trie plus the delta log
// sorted into the trie's column order, folded by trie.Merge's linear
// level merge — memoized on the effective relation. In-flight plans
// keep whatever tries they resolved (copy-on-write: a merge never
// mutates the base trie), and after compaction the merged tries keep
// serving as the new base tries, because the promoted base is the same
// *Relation they are memoized on. An atom with no version — a view
// term's batch-sized Δ, used for exactly one batch, or any atom of a
// one-shot call, whose zero source has neither memo nor versions —
// builds its trie directly, unmemoized.
type snapshotSource struct {
	memo *core.TrieMemo
	vers map[*relation.Relation]*delta.Version
}

// Get implements core.TrieSource.
func (s snapshotSource) Get(a core.Atom, atomOrder []string) (*trie.Trie, error) {
	perm := core.AtomPerm(a, atomOrder)
	ver, ok := s.vers[a.Rel]
	if !ok {
		return trie.BuildPerm(a.Rel, perm)
	}
	// a.Rel is the version's effective relation (atoms are rebound
	// before planning), so later executions and sibling plans of this
	// version hit here.
	return s.memo.Memo(a.Rel, perm, func() (*trie.Trie, error) {
		// With no delta a.Rel is the base. In native column order
		// Effective() is already sorted this way, so the trie shares its
		// storage instead of re-running the identical merge.
		native := true
		for i, j := range perm {
			native = native && i == j
		}
		if native || ver.DeltaLen() == 0 {
			return trie.BuildPerm(a.Rel, perm)
		}
		bt, err := s.memo.Memo(ver.Base, perm, func() (*trie.Trie, error) { return trie.BuildPerm(ver.Base, perm) })
		if err != nil {
			return nil, err
		}
		add, err := ver.Add.Permuted(perm) // O(D log D) on the delta, never on the base
		if err != nil {
			return nil, err
		}
		del, err := ver.Del.Permuted(perm)
		if err != nil {
			return nil, err
		}
		return trie.Merge(bt, add, del)
	})
}
