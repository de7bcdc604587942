// Package wal gives wcoj.DB crash durability: every applied update
// batch (and every Register) is appended to a write-ahead log before
// it is published to readers, and compaction writes a full-state
// snapshot, so reopening the directory replays to the exact pre-crash
// update epoch.
//
// Directory layout — paired, monotonically numbered generations:
//
//	wal-<seq>.log    record log (see record.go for the frame format)
//	snap-<seq>.snap  full-state snapshot the log's records follow
//
// Generation 0 has no snapshot (an empty engine). Rotate writes and
// syncs wal-(s+1), then writes snap-(s+1) via temp file + atomic
// rename, and only then switches to it and prunes generation s; a
// crash before the rename leaves generation s the recovery source (the
// orphaned wal-(s+1) is ignored, and overwritten by the next Rotate),
// and one after it leaves generation s+1 complete.
//
// All writes go through an FS (fs.go): the OS in production, a
// fault-injecting one in tests.
//
// Recovery scans the newest valid snapshot, then replays its log.
// A torn tail — a final frame with missing bytes, or whose checksum
// fails right at EOF — is truncated away (the crash interrupted that
// append; it was never acknowledged). A checksum failure in the middle
// of the log is corruption and rejects the whole open: silently
// skipping records would replay a state that never existed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

var logMagic = []byte("WCOJWAL1")

var errClosed = errors.New("wal: log is closed")

// Log is an open write-ahead log positioned at the tail of the current
// generation's segment. Methods are not safe for concurrent use; the
// DB serializes writers (they already hold its write mutex).
//
// A write that fails leaves nothing behind: Append and Sync put the
// segment back to the end of its last synced frame, so a torn or
// unacknowledged frame never sits in front of the next acknowledged
// one (recovery would reject that log as corrupt). If the rollback
// itself fails, the Log is poisoned and every later write returns the
// error; reopening the directory recovers the last synced state.
type Log struct {
	fs   FS
	dir  string
	seq  uint64
	f    File
	off  int64 // where the next frame goes
	good int64 // end of the last synced frame: where a failed write rolls back to
	err  error // sticky: set when a rollback failed
}

// Open recovers the newest consistent state under dir (creating the
// directory and an empty generation-0 log if needed) and returns the
// log positioned for appends, the snapshot recovery starts from (nil
// for generation 0), and the decoded records to replay on top of it.
func Open(dir string) (*Log, *Snapshot, []*Record, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open with the log writing through fsys; nil means the OS.
func OpenFS(dir string, fsys FS) (*Log, *Snapshot, []*Record, error) {
	if fsys == nil {
		fsys = osFS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	snaps, logs, err := scanDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}

	// Newest valid snapshot wins; its paired log holds everything
	// after it. With no usable snapshot the full history lives in the
	// lowest-numbered log (normally wal-0).
	var snap *Snapshot
	var seq uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshot(snapPath(dir, snaps[i]))
		if err == nil {
			snap, seq = s, snaps[i]
			break
		}
	}
	if snap == nil {
		if len(logs) > 0 {
			seq = logs[0]
		} else {
			seq = 0
		}
		if seq != 0 {
			// A generation >0 log without a readable snapshot has lost
			// its prefix; replaying it from an empty base would serve a
			// state that never existed.
			return nil, nil, nil, fmt.Errorf("wal: %s: no valid snapshot for generation %d", dir, seq)
		}
	}

	recs, tail, err := readLog(logPath(dir, seq))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}

	l := &Log{fs: fsys, dir: dir, seq: seq}
	if err := l.openSegment(tail); err != nil {
		return nil, nil, nil, err
	}
	l.prune(seq)
	return l, snap, recs, nil
}

// openSegment opens (or creates) the current generation's log file and
// positions the writer at validTail — truncating anything torn past it.
func (l *Log) openSegment(validTail int64) error {
	f, err := l.fs.OpenFile(logPath(l.dir, l.seq), false)
	if err != nil {
		return err
	}
	if validTail < int64(len(logMagic)) {
		validTail = int64(len(logMagic))
		if _, err := f.WriteAt(logMagic, 0); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Truncate(validTail); err != nil {
		f.Close()
		return err
	}
	l.f, l.off, l.good = f, validTail, validTail
	return nil
}

// usable returns why the log cannot take writes, or nil.
func (l *Log) usable() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errClosed
	}
	return nil
}

// Append encodes rec as one frame and writes it at the tail. The bytes
// reach the OS before Append returns; call Sync to force them to
// stable storage (the DB syncs once per applied batch). A failed
// Append drops every frame since the last Sync.
func (l *Log) Append(rec *Record) error {
	if err := l.usable(); err != nil {
		return err
	}
	frame := appendFrame(nil, rec)
	n, err := l.f.WriteAt(frame, l.off)
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return l.rollback(err)
	}
	l.off += int64(n)
	return nil
}

// Sync forces appended records to stable storage. A failed Sync drops
// every frame since the last successful one: none of them is durable,
// so none may be acknowledged.
func (l *Log) Sync() error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.rollback(err)
	}
	l.good = l.off
	return nil
}

// rollback truncates the segment to the end of its last synced frame
// after a failed write and returns cause; if the truncate fails too,
// it poisons the log.
func (l *Log) rollback(cause error) error {
	if err := l.f.Truncate(l.good); err != nil {
		l.err = fmt.Errorf("wal: log unusable: rolling back after %v: %w", cause, err)
		return l.err
	}
	l.off = l.good
	return cause
}

// Size returns the current byte offset of the tail (the header counts).
func (l *Log) Size() int64 { return l.off }

// Rotate starts the next generation: its log, holding snap.Records and
// synced, then snap itself, written to a temporary file and renamed
// into place, which is the commit point. Only then does the log switch
// to the new generation and prune the previous one. On an error before
// the rename the current generation stays the recovery source and
// takes further appends; on an error after it (the directory sync) the
// log cannot tell which generation a crash would recover, so it is
// poisoned.
func (l *Log) Rotate(snap *Snapshot) error {
	if err := l.usable(); err != nil {
		return err
	}
	next := l.seq + 1
	f, off, err := l.newSegment(next, snap.Records)
	if err != nil {
		return err
	}
	committed, err := writeSnapshot(l.fs, snapPath(l.dir, next), snap)
	if err != nil {
		f.Close()
		if committed {
			l.err = fmt.Errorf("wal: log unusable: generation %d renamed in but not synced: %w", next, err)
			return l.err
		}
		os.Remove(logPath(l.dir, next))
		return err
	}
	l.f.Close()
	l.seq, l.f, l.off, l.good = next, f, off, off
	l.prune(next)
	return nil
}

// newSegment creates generation seq's log holding recs, syncs it, and
// syncs the directory so that the file outlives an OS crash before the
// snapshot that needs it is renamed in. It returns the open file and
// its tail.
func (l *Log) newSegment(seq uint64, recs []*Record) (File, int64, error) {
	buf := append([]byte(nil), logMagic...)
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	path := logPath(l.dir, seq)
	f, err := l.fs.OpenFile(path, true)
	if err != nil {
		return nil, 0, err
	}
	n, err := f.WriteAt(buf, 0)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = l.fs.SyncDir(l.dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return f, int64(len(buf)), nil
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// prune removes generations strictly older than keep (best-effort:
// they are dead weight, not state).
func (l *Log) prune(keep uint64) {
	snaps, logs, err := scanDir(l.dir)
	if err != nil {
		return
	}
	for _, s := range snaps {
		if s < keep {
			os.Remove(snapPath(l.dir, s))
		}
	}
	for _, s := range logs {
		if s < keep {
			os.Remove(logPath(l.dir, s))
		}
	}
}

// readLog decodes every frame of the log at path. It returns the
// records of the valid prefix and the byte offset of its end — the
// tail to truncate to. A torn tail (incomplete final frame, or a
// checksum failure that reaches EOF) ends the valid prefix cleanly;
// corruption strictly inside the log is an error.
func readLog(path string) ([]*Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(logMagic) {
		// A crash can tear even the header write of a fresh segment;
		// nothing valid follows.
		return nil, 0, nil
	}
	if string(data[:len(logMagic)]) != string(logMagic) {
		return nil, 0, fmt.Errorf("wal: %s: bad log header", path)
	}
	var recs []*Record
	off := int64(len(logMagic))
	for {
		rec, next, err := nextFrame(data, off)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %s: offset %d: %w", path, off, err)
		}
		if rec == nil {
			return recs, off, nil // torn tail (or clean EOF) at off
		}
		recs = append(recs, rec)
		off = next
	}
}

// nextFrame decodes the frame at off. It returns (nil, 0, nil) when
// the bytes from off to EOF do not form a complete valid frame but
// could be a torn append — exactly EOF, or a partial/corrupt frame
// that extends to EOF — and an error for corruption that provably is
// not a torn tail (a bad frame with more data after it).
func nextFrame(data []byte, off int64) (*Record, int64, error) {
	rest := data[off:]
	if len(rest) == 0 {
		return nil, 0, nil
	}
	if len(rest) < 8 {
		return nil, 0, nil // torn header
	}
	length := binary.LittleEndian.Uint32(rest[0:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	if uint64(length) > maxFrame {
		// An absurd length usually IS the torn tail (a half-written
		// header). It can only be called corruption if a valid frame
		// provably follows — undecidable without the real length — so
		// treat it as torn only when it engulfs the rest of the file.
		if uint64(len(rest)-8) <= uint64(length) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("frame length %d exceeds limit", length)
	}
	if uint64(len(rest)-8) < uint64(length) {
		return nil, 0, nil // torn body
	}
	payload := rest[8 : 8+length]
	atEOF := int64(len(rest)) == 8+int64(length)
	if crc32.Checksum(payload, crcTable) != sum {
		if atEOF {
			return nil, 0, nil // torn final frame
		}
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		// The checksum matched, so these exact bytes were written by an
		// encoder — a decode failure is corruption (or version skew),
		// not a torn write, wherever it sits.
		return nil, 0, err
	}
	return rec, off + 8 + int64(length), nil
}

func logPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// scanDir lists the generation numbers present, ascending.
func scanDir(dir string) (snaps, logs []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		var seq uint64
		switch name := e.Name(); {
		case len(name) == len("wal-0000000000000000.log") && name[:4] == "wal-" && name[len(name)-4:] == ".log":
			if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err == nil {
				logs = append(logs, seq)
			}
		case len(name) == len("snap-0000000000000000.snap") && name[:5] == "snap-" && name[len(name)-5:] == ".snap":
			if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err == nil {
				snaps = append(snaps, seq)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	return snaps, logs, nil
}
