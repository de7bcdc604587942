package wcoj

// Durability. A DB opened with OpenDir writes every state change to a
// write-ahead log (internal/wal) before publishing it to readers:
//
//	Register ──► dict record? + register record ──► publish
//	Apply    ──► dict record? + batch record (fsync) ──► publish
//	Compact  ──► fold deltas ──► snapshot + log rotation
//
// Reopening the directory replays the newest snapshot plus the log
// tail and asserts, record by record, that the rebuilt update epoch
// matches each record's tag — recovery lands on the exact pre-crash
// epoch or fails loudly, never on a silently diverged state. A torn
// final record (the append the crash interrupted) is truncated away;
// that batch was never acknowledged, so dropping it is correct.
//
// The WAL captures the logical state (tuple sets, per-relation version
// epochs, the string dictionary), not the physical representation: a
// relation recovered from a snapshot starts with an empty delta log
// even if it carried one at capture time. Tries and plans are rebuilt
// on demand, exactly as on a cold start.

import (
	"fmt"

	"wcoj/internal/delta"
	"wcoj/internal/relation"
	"wcoj/internal/wal"
)

// OpenDir opens a durable DB rooted at dir, creating the directory on
// first use and otherwise recovering the pre-crash state: the newest
// valid snapshot, plus a replay of every logged batch after it, back
// to the exact update epoch the last acknowledged batch produced.
// All subsequent Register, Materialize and Apply calls are logged and
// fsynced before they are published. Close the DB to release the log.
func OpenDir(dir string) (*DB, error) {
	return openDir(dir, nil)
}

// openDir is OpenDir with the log writing through fsys (nil: the OS).
func openDir(dir string, fsys wal.FS) (*DB, error) {
	l, snap, recs, err := wal.OpenFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	db := NewDB()
	if snap != nil {
		if err := db.restoreSnapshot(snap); err != nil {
			l.Close()
			return nil, err
		}
	}
	// View registrations replay out of line: the records are collected
	// (in order, with retirements folded in) and the surviving views are
	// re-armed once, against the fully replayed state — re-running each
	// view's maintenance through the batch replays would redo work whose
	// outcome the final recompute determines anyway.
	var mats []*wal.Record
	var matFloor uint64
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindMaterialize:
			if got := db.updEpoch.Load(); got != rec.Epoch {
				l.Close()
				return nil, fmt.Errorf("wcoj: OpenDir %s: materialize %q at epoch %d, log says %d", dir, rec.MatID, got, rec.Epoch)
			}
			matFloor = raiseMatFloor(matFloor, rec.MatID)
			mats = append(mats, rec)
		case wal.KindUnmaterialize:
			matFloor = raiseMatFloor(matFloor, rec.MatID)
			for i, m := range mats {
				if m.MatID == rec.MatID {
					mats = append(mats[:i], mats[i+1:]...)
					break
				}
			}
		default:
			if err := db.replayRecord(rec); err != nil {
				l.Close()
				return nil, fmt.Errorf("wcoj: OpenDir %s: %w", dir, err)
			}
		}
	}
	if err := db.rearmViews(mats, matFloor); err != nil {
		l.Close()
		return nil, fmt.Errorf("wcoj: OpenDir %s: %w", dir, err)
	}
	db.writeMu.Lock()
	db.walDictN = db.Dict().Len()
	db.wal = l
	db.writeMu.Unlock()
	return db, nil
}

// raiseMatFloor returns the view-id floor after a logged registration
// or retirement of id: every id ever logged stays off the reissue
// floor, whether its view is live or retired.
func raiseMatFloor(floor uint64, id string) uint64 {
	var seq uint64
	if _, err := fmt.Sscanf(id, "m%d", &seq); err == nil && seq+1 > floor {
		return seq + 1
	}
	return floor
}

// restoreSnapshot installs a snapshot's relations, dictionary and
// update epoch into a fresh DB.
func (db *DB) restoreSnapshot(snap *wal.Snapshot) error {
	d := db.Dict()
	for i, s := range snap.Dict {
		if d.ID(s) != relation.Value(i) {
			return fmt.Errorf("wcoj: snapshot dict replay diverged at id %d", i)
		}
	}
	db.mu.Lock()
	for _, sr := range snap.Rels {
		r := sr.Rel
		db.data.Put(r)
		db.versions[r.Name()] = &delta.Version{
			Epoch: sr.Epoch,
			Base:  r,
			Add:   relation.Empty(r.Name(), r.Attrs()...),
			Del:   relation.Empty(r.Name(), r.Attrs()...),
		}
	}
	db.mu.Unlock()
	db.updEpoch.Store(snap.Epoch)
	return nil
}

// replayRecord applies one log record to a DB under recovery (db.wal
// is still nil, so nothing is re-logged) and asserts the resulting
// epoch matches the record's tag.
func (db *DB) replayRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.KindDict:
		d := db.Dict()
		for i, s := range rec.DictStrs {
			if want := relation.Value(rec.DictFirst) + relation.Value(i); d.ID(s) != want {
				return fmt.Errorf("dict replay diverged at id %d", want)
			}
		}
	case wal.KindRegister:
		if got := db.updEpoch.Load(); got != rec.Epoch {
			return fmt.Errorf("register %q at epoch %d, log says %d", rec.Rel.Name(), got, rec.Epoch)
		}
		r := rec.Rel
		db.mu.Lock()
		db.data.Put(r)
		db.versions[r.Name()] = &delta.Version{
			Epoch: rec.RelEpoch,
			Base:  r,
			Add:   relation.Empty(r.Name(), r.Attrs()...),
			Del:   relation.Empty(r.Name(), r.Attrs()...),
		}
		db.mu.Unlock()
	case wal.KindBatch:
		b := &Batch{ops: make(map[string][]delta.Op, len(rec.Batch))}
		for _, ro := range rec.Batch {
			b.ops[ro.Rel] = ro.Ops
			b.order = append(b.order, ro.Rel)
			b.n += len(ro.Ops)
		}
		us, err := db.Apply(b)
		if err != nil {
			return fmt.Errorf("batch replay: %w", err)
		}
		if us.Epoch != rec.Epoch {
			return fmt.Errorf("batch replayed to epoch %d, log says %d", us.Epoch, rec.Epoch)
		}
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// Close flushes and closes the write-ahead log. Further updates and
// registrations fail; reads keep working. Closing a memory-only DB is
// a no-op.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.wal = nil
	db.walClosed = true
	return err
}

// walCommitLocked logs one unit and forces it to stable storage: the
// dictionary strings interned since the last logged high-water mark
// (so any tuple record that references them replays against a
// dictionary that already holds them), then recs. The log drops a
// unit that fails whole (see wal.Log), so the mark moves only once the
// sync succeeded. Callers hold writeMu and have checked db.wal.
func (db *DB) walCommitLocked(recs ...*wal.Record) error {
	d := db.Dict()
	n := d.Len()
	if n > db.walDictN {
		strs := make([]string, 0, n-db.walDictN)
		for i := db.walDictN; i < n; i++ {
			strs = append(strs, d.String(relation.Value(i)))
		}
		rec := &wal.Record{
			Kind:      wal.KindDict,
			Epoch:     db.updEpoch.Load(),
			DictFirst: uint64(db.walDictN),
			DictStrs:  strs,
		}
		if err := db.wal.Append(rec); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		if err := db.wal.Append(rec); err != nil {
			return err
		}
	}
	if err := db.wal.Sync(); err != nil {
		return err
	}
	db.walDictN = n
	return nil
}

// walAppendBatchLocked logs one effective batch, tagged with the epoch
// its publication will produce, and forces it to stable storage —
// durability strictly before visibility. Callers hold writeMu and have
// established that the batch changes state (the epoch will advance).
func (db *DB) walAppendBatchLocked(b *Batch) error {
	if db.wal == nil {
		return nil
	}
	ops := make([]wal.RelOps, 0, len(b.order))
	for _, name := range b.order {
		ops = append(ops, wal.RelOps{Rel: name, Ops: b.ops[name]})
	}
	return db.walCommitLocked(&wal.Record{Kind: wal.KindBatch, Epoch: db.updEpoch.Load() + 1, Batch: ops})
}

// rearmViews re-registers the maintained views the replayed log
// carries, in registration order, computing each against the recovered
// state. Runs before db.wal is installed, so nothing is re-logged; a
// view whose recompute fails is re-armed stale-with-error (the exact
// pre-crash possibility), while a record that no longer parses or
// validates fails recovery — a healthy engine could not have written
// it.
func (db *DB) rearmViews(recs []*wal.Record, matFloor uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.matSeq = matFloor
	for _, rec := range recs {
		opts := MaterializeOptions{
			Mode:        MaterializeMode(rec.MatMode),
			Parallelism: int(rec.MatParallel),
			Project:     rec.MatProject,
		}
		var seq uint64
		if _, err := fmt.Sscanf(rec.MatID, "m%d", &seq); err != nil {
			return fmt.Errorf("materialize replay: bad view id %q", rec.MatID)
		}
		if _, err := db.materializeLocked(rec.MatID, seq, rec.MatSrc, opts, true); err != nil {
			return fmt.Errorf("materialize replay %s: %w", rec.MatID, err)
		}
		if seq >= db.matSeq {
			db.matSeq = seq + 1
		}
	}
	return nil
}

// materializeRecord is mq's registration record at the current epoch.
func (db *DB) materializeRecord(mq *MaterializedQuery) *wal.Record {
	par := mq.opts.Parallelism
	if par < 0 {
		par = 0 // both mean "default": workers() treats <=0 as the core budget
	}
	return &wal.Record{
		Kind:        wal.KindMaterialize,
		Epoch:       db.updEpoch.Load(),
		MatID:       mq.id,
		MatSrc:      mq.src,
		MatMode:     uint8(mq.opts.Mode),
		MatParallel: uint64(par),
		MatProject:  mq.opts.Project,
	}
}

// walAppendMaterializeLocked logs one view registration and forces it
// to stable storage before the view becomes visible. Callers hold
// writeMu.
func (db *DB) walAppendMaterializeLocked(mq *MaterializedQuery) error {
	if db.wal == nil {
		return nil
	}
	return db.walCommitLocked(db.materializeRecord(mq))
}

// walAppendUnmaterializeLocked logs one view retirement. Callers hold
// writeMu.
func (db *DB) walAppendUnmaterializeLocked(id string) error {
	if db.wal == nil {
		return nil
	}
	return db.walCommitLocked(&wal.Record{Kind: wal.KindUnmaterialize, Epoch: db.updEpoch.Load(), MatID: id})
}

// walAppendRegisterLocked logs full-relation register records for rels
// before they are published. Callers hold writeMu.
func (db *DB) walAppendRegisterLocked(rels []*Relation) error {
	if db.wal == nil {
		return nil
	}
	epoch := db.updEpoch.Load()
	recs := make([]*wal.Record, 0, len(rels))
	for _, r := range rels {
		recs = append(recs, &wal.Record{Kind: wal.KindRegister, Epoch: epoch, Rel: r})
	}
	return db.walCommitLocked(recs...)
}

// walSnapshotLocked writes the full current state as the next
// generation's snapshot and restarts the log there (compaction's
// durable twin: the log no longer needs the folded history). The
// snapshot captures relations, not view registrations, so each live
// view's registration starts the fresh log; Rotate makes them durable
// before the old generation goes. Callers hold writeMu, so the
// captured state cannot advance mid-snapshot.
func (db *DB) walSnapshotLocked() error {
	if db.wal == nil {
		return nil
	}
	db.mu.RLock()
	epoch := db.updEpoch.Load()
	vers := make([]*delta.Version, 0, len(db.versions))
	for _, v := range db.versions {
		vers = append(vers, v)
	}
	db.mu.RUnlock()
	d := db.Dict()
	n := d.Len()
	dict := make([]string, n)
	for i := range dict {
		dict[i] = d.String(relation.Value(i))
	}
	rels := make([]wal.SnapRel, 0, len(vers))
	for _, v := range vers {
		rels = append(rels, wal.SnapRel{Epoch: v.Epoch, Rel: v.Effective()})
	}
	views := db.MaterializedViews()
	recs := make([]*wal.Record, 0, len(views)+1)
	for _, mq := range views {
		recs = append(recs, db.materializeRecord(mq))
	}
	// The highest id ever issued keeps the reissue floor (see
	// raiseMatFloor) even when its view is retired: the fresh log
	// records its retirement.
	if db.matSeq > 0 {
		last := fmt.Sprintf("m%d", db.matSeq-1)
		if _, live := db.Materialized(last); !live {
			recs = append(recs, &wal.Record{Kind: wal.KindUnmaterialize, Epoch: epoch, MatID: last})
		}
	}
	if err := db.wal.Rotate(&wal.Snapshot{Epoch: epoch, Dict: dict, Rels: rels, Records: recs}); err != nil {
		return err
	}
	db.walDictN = n
	return nil
}
