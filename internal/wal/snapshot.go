package wal

// Snapshot files. A snapshot is the engine's full durable state at one
// update epoch — every relation's effective tuple set with its
// per-relation version epoch, plus the string dictionary — written at
// compaction time so the log can restart empty.
//
//	file    := "WCOJSNP1" | u64le payloadLen | u32le crc32(payload) | payload
//	payload := uvarint epoch | uvarint dictLen | dictLen strings |
//	           uvarint rels | rels × (uvarint relEpoch | rel body)
//
// The file is written to a temp name and atomically renamed, so a
// valid snapshot file is always complete; readers still verify the
// checksum and reject anything less.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"wcoj/internal/relation"
)

var snapMagic = []byte("WCOJSNP1")

// SnapRel is one relation in a snapshot: its effective (delta-merged)
// tuple set and the per-relation version epoch.
type SnapRel struct {
	Epoch uint64
	Rel   *relation.Relation
}

// Snapshot is the decoded full state a recovery starts from.
type Snapshot struct {
	// Epoch is the DB update epoch at capture time; log records that
	// follow carry strictly larger epochs.
	Epoch uint64
	// Dict holds the interned strings in ID order (ID i = Dict[i]).
	Dict []string
	// Rels are the registered relations (any iteration order).
	Rels []SnapRel
	// Records start the log of the generation this snapshot begins:
	// Rotate writes and syncs them before the snapshot is renamed in,
	// so they are never missing from a recovered generation. They are
	// not part of the snapshot file; recovery returns them as the log's
	// first records.
	Records []*Record
}

func appendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = binary.AppendUvarint(dst, s.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(s.Dict)))
	for _, str := range s.Dict {
		dst = appendString(dst, str)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Rels)))
	for _, sr := range s.Rels {
		dst = binary.AppendUvarint(dst, sr.Epoch)
		dst = appendRel(dst, sr.Rel)
	}
	return dst
}

func decodeSnapshot(p []byte) (*Snapshot, error) {
	r := &reader{buf: p}
	s := &Snapshot{}
	var err error
	if s.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	nd, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Dict = make([]string, 0, nd)
	for i := 0; i < nd; i++ {
		str, err := r.str()
		if err != nil {
			return nil, err
		}
		s.Dict = append(s.Dict, str)
	}
	nr, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Rels = make([]SnapRel, 0, nr)
	for i := 0; i < nr; i++ {
		var sr SnapRel
		if sr.Epoch, err = r.uvarint(); err != nil {
			return nil, err
		}
		if sr.Rel, err = r.rel(); err != nil {
			return nil, err
		}
		s.Rels = append(s.Rels, sr)
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("wal: %d trailing bytes after snapshot", len(r.buf)-r.off)
	}
	return s, nil
}

// writeSnapshot writes s to path via temp file + fsync + atomic
// rename, then syncs the directory. committed reports whether the
// rename happened, after which path holds the snapshot even if the
// directory sync failed.
func writeSnapshot(fsys FS, path string, s *Snapshot) (committed bool, err error) {
	payload := appendSnapshot(nil, s)
	buf := make([]byte, 0, len(snapMagic)+12+len(payload))
	buf = append(buf, snapMagic...)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)

	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, true)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	n, err := f.WriteAt(buf, 0)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return false, err
	}
	return true, fsys.SyncDir(filepath.Dir(path))
}

// readSnapshot reads and verifies the snapshot at path. Any
// inconsistency rejects the file; the caller falls back to an older
// generation.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+12 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: %s: bad snapshot header", path)
	}
	body := data[len(snapMagic):]
	length := binary.LittleEndian.Uint64(body[0:8])
	sum := binary.LittleEndian.Uint32(body[8:12])
	payload := body[12:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("wal: %s: snapshot length %d, want %d", path, len(payload), length)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", path)
	}
	return decodeSnapshot(payload)
}
