package wal_test

import (
	"fmt"
	"io"
	"strings"
	"syscall"
	"testing"

	"wcoj/internal/delta"
	"wcoj/internal/relation"
	"wcoj/internal/wal"
	"wcoj/internal/wal/walfault"
)

// batch is a one-op batch record tagged epoch e; recovered records are
// told apart by their epochs.
func batch(e uint64) *wal.Record {
	return &wal.Record{Kind: wal.KindBatch, Epoch: e, Batch: []wal.RelOps{{
		Rel: "E", Ops: []delta.Op{{T: relation.Tuple{relation.Value(e), relation.Value(e)}}},
	}}}
}

// epochs lists the records' epochs, for comparing recoveries.
func epochs(recs []*wal.Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%d ", r.Epoch)
	}
	return strings.TrimSpace(b.String())
}

// commit appends recs and syncs them, as the DB does for one
// acknowledged unit.
func commit(l *wal.Log, recs ...*wal.Record) error {
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			return err
		}
	}
	return l.Sync()
}

// reopen recovers dir through the OS and returns the snapshot's epoch
// (-1 without one) and the replayed records' epochs.
func reopen(t *testing.T, dir string) (int64, string) {
	t.Helper()
	l, snap, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	se := int64(-1)
	if snap != nil {
		se = int64(snap.Epoch)
	}
	return se, epochs(recs)
}

// TestCrashPoint drives the kill-at-offset crash of the fault file: the
// write that reaches the crash point leaves only its torn prefix, the
// log takes no more writes, and recovery truncates the prefix away.
func TestCrashPoint(t *testing.T) {
	for _, extra := range []int64{0, 1, 5, 9} {
		dir := t.TempDir()
		fs := &walfault.FS{}
		l, _, _, err := wal.OpenFS(dir, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := commit(l, batch(1)); err != nil {
			t.Fatal(err)
		}
		crashed := false
		fs.Crash(extra, func() { crashed = true })
		if err := commit(l, batch(2)); err == nil {
			t.Fatalf("extra %d: append past the crash point succeeded", extra)
		}
		if !crashed {
			t.Fatalf("extra %d: crash fn not invoked", extra)
		}
		if err := commit(l, batch(3)); err == nil {
			t.Fatalf("extra %d: the log took a write after the crash", extra)
		}
		if _, got := reopen(t, dir); got != "1" {
			t.Fatalf("extra %d: recovered epochs %q, want \"1\"", extra, got)
		}
	}
}

// TestFailedWriteRollsBack fails one write or sync of an acknowledged
// unit and then acknowledges another: the failed unit must vanish
// whole, and the one after it must land where recovery can read it.
// Before the rollback, a short write left its torn frame in front of
// the next (recovery rejected the log as corrupt), and a failed sync
// left an unacknowledged frame that recovery replayed.
func TestFailedWriteRollsBack(t *testing.T) {
	cases := []struct {
		name  string
		fault walfault.Fault
	}{
		{"fsync error", walfault.Fault{Op: walfault.Sync}},
		{"ENOSPC", walfault.Fault{Op: walfault.Write, Err: syscall.ENOSPC}},
		{"ENOSPC mid-frame", walfault.Fault{Op: walfault.Write, Keep: 11, Err: syscall.ENOSPC}},
		{"short write", walfault.Fault{Op: walfault.Write, Keep: 5, Err: io.ErrShortWrite}},
		{"second frame of the unit", walfault.Fault{Op: walfault.Write, Skip: 1, Keep: 3, Err: syscall.ENOSPC}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &walfault.FS{}
			l, _, _, err := wal.OpenFS(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			if err := commit(l, batch(1)); err != nil {
				t.Fatal(err)
			}
			size := l.Size()
			fs.Arm(tc.fault)
			if err := commit(l, batch(2), batch(3)); err == nil {
				t.Fatal("the faulted unit was acknowledged")
			}
			if fs.Fired() != 1 {
				t.Fatalf("fault fired %d times", fs.Fired())
			}
			if l.Size() != size {
				t.Fatalf("tail at %d after the failed unit, want %d", l.Size(), size)
			}
			if err := commit(l, batch(4)); err != nil {
				t.Fatalf("the unit after the fault: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, got := reopen(t, dir); got != "1 4" {
				t.Fatalf("recovered epochs %q, want \"1 4\"", got)
			}
		})
	}
}

// TestFailedRollbackPoisons fails the truncate that would undo a
// failed write: the log must refuse every later write rather than
// append behind the torn frame, and recovery keeps the synced prefix.
func TestFailedRollbackPoisons(t *testing.T) {
	dir := t.TempDir()
	fs := &walfault.FS{}
	l, _, _, err := wal.OpenFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(l, batch(1)); err != nil {
		t.Fatal(err)
	}
	fs.Arm(walfault.Fault{Op: walfault.Write, Keep: 7, Err: io.ErrShortWrite})
	fs.Arm(walfault.Fault{Op: walfault.Truncate})
	if err := commit(l, batch(2)); err == nil {
		t.Fatal("the faulted unit was acknowledged")
	}
	for name, op := range map[string]func() error{
		"Append": func() error { return l.Append(batch(3)) },
		"Sync":   l.Sync,
		"Rotate": func() error { return l.Rotate(&wal.Snapshot{Epoch: 1}) },
	} {
		if err := op(); err == nil || !strings.Contains(err.Error(), "unusable") {
			t.Errorf("%s on a poisoned log: %v", name, err)
		}
	}
	l.Close()
	if _, got := reopen(t, dir); got != "1" {
		t.Fatalf("recovered epochs %q, want \"1\"", got)
	}
}

// TestRotateFaults fails each file-system operation of a Rotate in
// turn (opening the new log, its write, sync and directory sync, the
// snapshot's temporary file, the rename, the directory sync after it,
// closing the old log), then appends one more unit and reopens. A
// Rotate that errors before its rename must leave the old generation
// the recovery source and taking appends; one that errors after it
// must poison the log. Either way recovery holds every acknowledged
// unit, and a rotated generation starts with the snapshot's records.
// Before the fix, a failed open of the new log moved the generation
// number anyway, and the unit acknowledged after it was lost.
func TestRotateFaults(t *testing.T) {
	view := &wal.Record{Kind: wal.KindMaterialize, Epoch: 1, MatID: "m0", MatSrc: "Q(A) :- E(A,B)"}
	snap := &wal.Snapshot{Epoch: 1, Records: []*wal.Record{view}}
	// rotate commits a unit, arms fault (if any), rotates, and commits
	// one more unit. start is the length of fs's trace before Rotate.
	rotate := func(t *testing.T, fs *walfault.FS, fault *walfault.Fault) (dir string, start int, rotErr error, acked bool) {
		dir = t.TempDir()
		l, _, _, err := wal.OpenFS(dir, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := commit(l, batch(1)); err != nil {
			t.Fatal(err)
		}
		if fault != nil {
			fs.Arm(*fault)
		}
		start = len(fs.Trace())
		rotErr = l.Rotate(snap)
		acked = commit(l, batch(2)) == nil
		l.Close()
		return dir, start, rotErr, acked
	}

	// The fault-free trace names every operation a Rotate performs.
	clean := &walfault.FS{}
	_, start, err, _ := rotate(t, clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := clean.Trace()[start:]
	ops = ops[:len(ops)-4] // the commit's write and sync, Close's sync and close
	for _, want := range []string{"open wal-", "syncdir", "open snap-", "rename snap-", "close wal-"} {
		found := false
		for _, op := range ops {
			found = found || strings.HasPrefix(op, want)
		}
		if !found {
			t.Fatalf("Rotate's trace %q has no %q", ops, want)
		}
	}

	for i, op := range ops {
		t.Run(fmt.Sprintf("%d %s", i, op), func(t *testing.T) {
			fs := &walfault.FS{}
			dir, _, rotErr, acked := rotate(t, fs, &walfault.Fault{Skip: i})
			if fs.Fired() != 1 {
				t.Fatalf("fault fired %d times", fs.Fired())
			}
			se, got := reopen(t, dir)
			switch {
			case rotErr == nil && strings.HasPrefix(op, "close"):
				// Closing the retired segment cannot fail a Rotate.
				if se != 1 || got != "1 2" {
					t.Fatalf("rotated: snapshot %d, records %q, want 1 and \"1 2\"", se, got)
				}
			case rotErr == nil:
				t.Fatalf("Rotate ignored a failed %s", op)
			case acked:
				// The old generation stayed current and took the unit.
				if se != -1 || got != "1 2" {
					t.Fatalf("failed Rotate: snapshot %d, records %q, want none and \"1 2\"", se, got)
				}
			case strings.Contains(rotErr.Error(), "unusable"):
				// Poisoned after the rename: either generation is whole.
				if !(se == 1 && got == "1") && !(se == -1 && got == "1") {
					t.Fatalf("poisoned Rotate: snapshot %d, records %q", se, got)
				}
			default:
				t.Fatalf("Rotate failed (%v) and the log refused the next unit", rotErr)
			}
		})
	}
}

// TestRotateStartsWithRecords pins that a rotated generation's log
// opens with the snapshot's records, ahead of later appends.
func TestRotateStartsWithRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(l, batch(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(&wal.Snapshot{Epoch: 1, Records: []*wal.Record{batch(5), batch(6)}}); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, batch(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if se, got := reopen(t, dir); se != 1 || got != "5 6 7" {
		t.Fatalf("snapshot %d, records %q, want 1 and \"5 6 7\"", se, got)
	}
}

// TestClosedLogRefusesWrites: Append, Sync and Rotate on a closed log
// fail; Close twice is a no-op.
func TestClosedLogRefusesWrites(t *testing.T) {
	l, _, _, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{l.Append(batch(1)), l.Sync(), l.Rotate(&wal.Snapshot{})} {
		if err == nil {
			t.Fatalf("write on a closed log: %v", err)
		}
	}
}
