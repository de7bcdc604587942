package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wcoj/internal/delta"
	"wcoj/internal/relation"
)

func testRel(t testing.TB, name string, tuples ...[]int64) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(name, "X", "Y")
	for _, tu := range tuples {
		if err := b.Add(relation.Value(tu[0]), relation.Value(tu[1])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func testRecords(t testing.TB) []*Record {
	t.Helper()
	return []*Record{
		{Kind: KindDict, Epoch: 0, DictFirst: 0, DictStrs: []string{"alice", "bob"}},
		{Kind: KindRegister, Epoch: 0, RelEpoch: 0, Rel: testRel(t, "E", []int64{1, 2}, []int64{2, 3})},
		{Kind: KindBatch, Epoch: 1, Batch: []RelOps{{
			Rel: "E",
			Ops: []delta.Op{
				{Del: false, T: relation.Tuple{3, 4}},
				{Del: true, T: relation.Tuple{1, 2}},
			},
		}}},
		{Kind: KindBatch, Epoch: 2, Batch: []RelOps{{
			Rel: "E",
			Ops: []delta.Op{{Del: false, T: relation.Tuple{-5, 9}}},
		}}},
	}
}

// appendAll writes recs to a fresh log under dir and returns the log
// file path and its final size.
func appendAll(t *testing.T, dir string, recs []*Record) (string, int64) {
	t.Helper()
	l, snap, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil || len(got) != 0 {
		t.Fatalf("fresh dir recovered snap=%v records=%d", snap, len(got))
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := logPath(dir, 0)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

func sameRecords(t *testing.T, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Epoch != w.Epoch {
			t.Fatalf("record %d: got kind=%d epoch=%d, want kind=%d epoch=%d", i, g.Kind, g.Epoch, w.Kind, w.Epoch)
		}
		switch w.Kind {
		case KindRegister:
			if g.RelEpoch != w.RelEpoch || !g.Rel.Equal(w.Rel) || g.Rel.Name() != w.Rel.Name() {
				t.Fatalf("record %d: register mismatch", i)
			}
		case KindBatch:
			if !reflect.DeepEqual(g.Batch, w.Batch) {
				t.Fatalf("record %d: batch mismatch:\n got %+v\nwant %+v", i, g.Batch, w.Batch)
			}
		case KindDict:
			if g.DictFirst != w.DictFirst || !reflect.DeepEqual(g.DictStrs, w.DictStrs) {
				t.Fatalf("record %d: dict mismatch", i)
			}
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(t)
	appendAll(t, dir, recs)

	l, snap, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if snap != nil {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	sameRecords(t, got, recs)
}

// TestTornTailEveryOffset is the torn-write property: for EVERY
// truncation point of the log file, recovery must succeed and yield
// exactly the records whose frames are fully contained in the prefix —
// a torn final record disappears, never a mid-log one.
func TestTornTailEveryOffset(t *testing.T) {
	srcDir := t.TempDir()
	recs := testRecords(t)
	path, size := appendAll(t, srcDir, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: prefix lengths at which exactly k records
	// survive.
	bounds := []int64{int64(len(logMagic))}
	for off := bounds[0]; off < size; {
		rec, next, err := nextFrame(data, off)
		if err != nil || rec == nil {
			t.Fatalf("unexpected scan result at %d: %v", off, err)
		}
		bounds = append(bounds, next)
		off = next
	}

	for cut := int64(0); cut <= size; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(logPath(dir, 0), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, snap, got, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if snap != nil {
			t.Fatalf("cut %d: unexpected snapshot", cut)
		}
		want := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		sameRecords(t, got, recs[:want])
		// The log must be appendable after truncation: recovery is not
		// read-only, it re-arms the writer at the valid tail.
		if err := l.Append(recs[len(recs)-1]); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidLogCorruptionRejected flips one byte inside the FIRST frame
// of a multi-record log: recovery must fail loudly, not truncate away
// acknowledged history.
func TestMidLogCorruptionRejected(t *testing.T) {
	srcDir := t.TempDir()
	recs := testRecords(t)
	path, _ := appendAll(t, srcDir, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(logMagic)+9] ^= 0xff // inside frame 0's payload

	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir, 0), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a log with mid-file corruption")
	}
}

func TestBadHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir, 0), []byte("NOTAWAL0........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a log with a foreign header")
	}
}

func TestRotateAndRecover(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(t)
	l, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{
		Epoch: 7,
		Dict:  []string{"alice", "bob"},
		Rels: []SnapRel{
			{Epoch: 3, Rel: testRel(t, "E", []int64{1, 2}, []int64{3, 4})},
		},
	}
	if err := l.Rotate(snap); err != nil {
		t.Fatal(err)
	}
	tail := &Record{Kind: KindBatch, Epoch: 8, Batch: []RelOps{{
		Rel: "E", Ops: []delta.Op{{T: relation.Tuple{9, 9}}},
	}}}
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 0 must be pruned.
	if _, err := os.Stat(logPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("generation 0 log survived rotation: %v", err)
	}

	l2, gotSnap, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if gotSnap == nil || gotSnap.Epoch != 7 {
		t.Fatalf("snapshot not recovered: %+v", gotSnap)
	}
	if len(gotSnap.Rels) != 1 || gotSnap.Rels[0].Epoch != 3 || !gotSnap.Rels[0].Rel.Equal(snap.Rels[0].Rel) {
		t.Fatalf("snapshot relations mismatch: %+v", gotSnap.Rels)
	}
	if !reflect.DeepEqual(gotSnap.Dict, snap.Dict) {
		t.Fatalf("snapshot dict mismatch: %v", gotSnap.Dict)
	}
	sameRecords(t, got, []*Record{tail})
}

// TestCorruptSnapshotRejected damages a rotated snapshot: with no
// older generation to fall back to, Open must fail rather than replay
// the orphaned log from an empty base.
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(&Snapshot{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := snapPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an orphaned generation-1 log under a corrupt snapshot")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	s := &Snapshot{Epoch: 42, Dict: []string{"x"}, Rels: []SnapRel{{Epoch: 2, Rel: testRel(t, "R", []int64{1, 1})}}}
	if _, err := writeSnapshot(osFS{}, path, s); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || len(got.Dict) != 1 || got.Dict[0] != "x" || len(got.Rels) != 1 || !got.Rels[0].Rel.Equal(s.Rels[0].Rel) {
		t.Fatalf("snapshot round trip mismatch: %+v", got)
	}
}

// TestRelDecode: a relation body decodes to the relation its rows
// make, whether or not they arrive in storage order. Sorted rows take
// the direct column path; unsorted or repeated rows (a hand-edited
// log) are re-sorted and deduplicated; a row count the input cannot
// hold is rejected before anything is sized by it.
func TestRelDecode(t *testing.T) {
	body := func(n uint64, rows ...int64) []byte {
		p := appendString(nil, "E")
		p = binary.AppendUvarint(p, 2)
		p = appendString(appendString(p, "X"), "Y")
		p = binary.AppendUvarint(p, n)
		for _, v := range rows {
			p = binary.AppendVarint(p, v)
		}
		return p
	}
	want := testRel(t, "E", []int64{-4, 7}, []int64{1, 1}, []int64{1, 2}, []int64{3, 1})
	for _, c := range []struct {
		name string
		p    []byte
	}{
		{"sorted", appendRel(nil, want)},
		{"unsorted", body(4, 3, 1, 1, 2, -4, 7, 1, 1)},
		{"repeated", body(5, -4, 7, 1, 1, 1, 1, 1, 2, 3, 1)},
		{"unsorted-repeated", body(6, 3, 1, 1, 2, 3, 1, 1, 1, -4, 7, 1, 2)},
	} {
		r := &reader{buf: c.p}
		got, err := r.rel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !got.Equal(want) || got.Name() != "E" || !reflect.DeepEqual(got.Attrs(), []string{"X", "Y"}) {
			t.Errorf("%s: decoded %v, want %v", c.name, got.Tuples(), want.Tuples())
		}
		if r.off != len(c.p) {
			t.Errorf("%s: consumed %d of %d bytes", c.name, r.off, len(c.p))
		}
	}
	// Three rows of arity 2 need six bytes; five remain. The count is
	// refused as such, not by running out of input after sizing the
	// columns by it.
	if _, err := (&reader{buf: body(3, 1, 2, 3, 4, 5)}).rel(); err == nil || !strings.Contains(err.Error(), "3 rows of arity 2") {
		t.Errorf("row count the input cannot hold: err %v", err)
	}
}
