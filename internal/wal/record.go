package wal

// The record codec. Every durable change is one length-prefixed,
// CRC-checksummed frame:
//
//	frame   := u32le payloadLen | u32le crc32(payload) | payload
//	payload := u8 kind | uvarint epoch | body
//
// The epoch is the DB update epoch *resulting* from the record (batch
// records advance it by one; register and dict records carry the
// current epoch unchanged), which is what lets recovery assert it
// rebuilt the exact pre-crash state: after replaying a record the
// engine's epoch must equal the record's tag, or the log is corrupt.
//
// Bodies (strings are uvarint length + bytes, values are zigzag
// varints):
//
//	register := uvarint relEpoch | str name | uvarint arity |
//	            attrs... | uvarint rows | rows×arity values
//	batch    := uvarint rels | per rel: str name | uvarint arity |
//	            uvarint ops | per op: u8 del | arity values
//	dict     := uvarint firstID | uvarint count | count strings
//	mat      := str id | str query | u8 mode | u8 algo |
//	            uvarint parallelism | uvarint nproj | nproj strings
//	unmat    := str id
//
// Decoding is defensive: every count is validated against the bytes
// that remain (each element costs at least one byte), so a corrupt
// length can never drive an allocation larger than the input itself,
// and no malformed input may panic — the fuzz harness holds the
// decoder to that.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"wcoj/internal/delta"
	"wcoj/internal/relation"
)

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindRegister carries a full relation: Register replaced (or first
	// stored) the relation, resetting it to a fresh epoch-0 version.
	KindRegister Kind = 1
	// KindBatch carries one applied update batch: the ordered insert
	// and delete operations per touched relation.
	KindBatch Kind = 2
	// KindDict carries newly interned dictionary strings, in ID order,
	// logged before any record whose tuples may reference them.
	KindDict Kind = 3
	// KindMaterialize carries a maintained-view registration
	// (DB.Materialize): the view id, the canonical query text and its
	// options, so recovery can re-arm the view against the replayed
	// state. Log rotation re-appends one per live view after the
	// snapshot.
	KindMaterialize Kind = 4
	// KindUnmaterialize retires a maintained view by id
	// (MaterializedQuery.Close).
	KindUnmaterialize Kind = 5
)

// RelOps is one relation's slice of a batch record, in application
// order.
type RelOps struct {
	Rel string
	Ops []delta.Op
}

// Record is one decoded WAL record. Exactly the fields of its Kind are
// populated.
type Record struct {
	Kind  Kind
	Epoch uint64

	// KindRegister: the relation and its version epoch (0 for live
	// registers; snapshots reuse the encoding with the real epoch).
	Rel      *relation.Relation
	RelEpoch uint64

	// KindBatch: per-relation operations in first-touch order.
	Batch []RelOps

	// KindDict: strings interned as IDs DictFirst, DictFirst+1, ...
	DictFirst uint64
	DictStrs  []string

	// KindMaterialize / KindUnmaterialize: the view id, and (materialize
	// only) the canonical query text and its options — mode, parallelism
	// and projection, encoded as the plain integers the engine enums map
	// to. A nil MatProject round-trips as nil (an empty projection never
	// validates). MatAlgo is a retired option's byte, kept so logs keep
	// one format: written as 0 and ignored on replay, whatever an older
	// writer put there.
	MatID       string
	MatSrc      string
	MatMode     uint8
	MatAlgo     uint8
	MatParallel uint64
	MatProject  []string
}

// maxFrame bounds a single record frame; a declared length past it is
// treated as corruption rather than attempted.
const maxFrame = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec as one checksummed frame appended to dst.
func appendFrame(dst []byte, rec *Record) []byte {
	payload := appendPayload(nil, rec)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func appendPayload(dst []byte, rec *Record) []byte {
	dst = append(dst, byte(rec.Kind))
	dst = binary.AppendUvarint(dst, rec.Epoch)
	switch rec.Kind {
	case KindRegister:
		dst = binary.AppendUvarint(dst, rec.RelEpoch)
		dst = appendRel(dst, rec.Rel)
	case KindBatch:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Batch)))
		for _, ro := range rec.Batch {
			dst = appendString(dst, ro.Rel)
			arity := 0
			if len(ro.Ops) > 0 {
				arity = len(ro.Ops[0].T)
			}
			dst = binary.AppendUvarint(dst, uint64(arity))
			dst = binary.AppendUvarint(dst, uint64(len(ro.Ops)))
			for _, op := range ro.Ops {
				del := byte(0)
				if op.Del {
					del = 1
				}
				dst = append(dst, del)
				for _, v := range op.T {
					dst = binary.AppendVarint(dst, int64(v))
				}
			}
		}
	case KindDict:
		dst = binary.AppendUvarint(dst, rec.DictFirst)
		dst = binary.AppendUvarint(dst, uint64(len(rec.DictStrs)))
		for _, s := range rec.DictStrs {
			dst = appendString(dst, s)
		}
	case KindMaterialize:
		dst = appendString(dst, rec.MatID)
		dst = appendString(dst, rec.MatSrc)
		dst = append(dst, rec.MatMode, rec.MatAlgo)
		dst = binary.AppendUvarint(dst, rec.MatParallel)
		dst = binary.AppendUvarint(dst, uint64(len(rec.MatProject)))
		for _, s := range rec.MatProject {
			dst = appendString(dst, s)
		}
	case KindUnmaterialize:
		dst = appendString(dst, rec.MatID)
	}
	return dst
}

// appendRel encodes a relation body: name, schema, then the rows in
// the relation's (sorted) storage order.
func appendRel(dst []byte, r *relation.Relation) []byte {
	dst = appendString(dst, r.Name())
	attrs := r.Attrs()
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = appendString(dst, a)
	}
	n := r.Len()
	dst = binary.AppendUvarint(dst, uint64(n))
	cols := make([][]relation.Value, len(attrs))
	for j := range cols {
		cols[j] = r.Col(j)
	}
	for i := 0; i < n; i++ {
		for j := range cols {
			dst = binary.AppendVarint(dst, int64(cols[j][i]))
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodePayload decodes one record payload (the bytes a frame's CRC
// validated). Any structural error — unknown kind, counts that exceed
// the input, trailing garbage — is corruption: the caller rejects the
// log.
func decodePayload(p []byte) (*Record, error) {
	r := &reader{buf: p}
	rec := &Record{}
	k, err := r.byte()
	if err != nil {
		return nil, err
	}
	rec.Kind = Kind(k)
	if rec.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	switch rec.Kind {
	case KindRegister:
		if rec.RelEpoch, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rec.Rel, err = r.rel(); err != nil {
			return nil, err
		}
	case KindBatch:
		nrels, err := r.count()
		if err != nil {
			return nil, err
		}
		rec.Batch = make([]RelOps, 0, nrels)
		for i := 0; i < nrels; i++ {
			var ro RelOps
			if ro.Rel, err = r.str(); err != nil {
				return nil, err
			}
			arity, err := r.count()
			if err != nil {
				return nil, err
			}
			nops, err := r.count()
			if err != nil {
				return nil, err
			}
			ro.Ops = make([]delta.Op, 0, nops)
			for o := 0; o < nops; o++ {
				del, err := r.byte()
				if err != nil {
					return nil, err
				}
				if del > 1 {
					return nil, fmt.Errorf("wal: bad op flag %d", del)
				}
				t := make(relation.Tuple, arity)
				for j := 0; j < arity; j++ {
					v, err := r.varint()
					if err != nil {
						return nil, err
					}
					t[j] = relation.Value(v)
				}
				ro.Ops = append(ro.Ops, delta.Op{Del: del == 1, T: t})
			}
			rec.Batch = append(rec.Batch, ro)
		}
	case KindDict:
		if rec.DictFirst, err = r.uvarint(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		rec.DictStrs = make([]string, 0, n)
		for i := 0; i < n; i++ {
			s, err := r.str()
			if err != nil {
				return nil, err
			}
			rec.DictStrs = append(rec.DictStrs, s)
		}
	case KindMaterialize:
		if rec.MatID, err = r.str(); err != nil {
			return nil, err
		}
		if rec.MatSrc, err = r.str(); err != nil {
			return nil, err
		}
		if rec.MatMode, err = r.byte(); err != nil {
			return nil, err
		}
		if rec.MatAlgo, err = r.byte(); err != nil {
			return nil, err
		}
		if rec.MatParallel, err = r.uvarint(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			rec.MatProject = make([]string, 0, n)
			for i := 0; i < n; i++ {
				s, err := r.str()
				if err != nil {
					return nil, err
				}
				rec.MatProject = append(rec.MatProject, s)
			}
		}
	case KindUnmaterialize:
		if rec.MatID, err = r.str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", k)
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(r.buf)-r.off)
	}
	return rec, nil
}

// reader is a bounds-checked cursor over one payload.
type reader struct {
	buf []byte
	off int
}

var errShort = fmt.Errorf("wal: truncated record body")

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errShort
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errShort
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, errShort
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that counts elements costing at least one byte
// each, rejecting values the remaining input cannot possibly hold — a
// corrupt count must not size an allocation.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.off) || v > math.MaxInt32 {
		return 0, fmt.Errorf("wal: count %d exceeds remaining input %d", v, len(r.buf)-r.off)
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s, nil
}

// rel decodes a register-style relation body. The writer emits the
// rows in sorted storage order, so they decode straight into columns
// sized by the count; rows that are not strictly ascending (a
// hand-edited log) go through a Builder, which re-sorts and dedups, so
// even such a log yields a valid relation.
func (r *reader) rel() (*relation.Relation, error) {
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	arity, err := r.count()
	if err != nil {
		return nil, err
	}
	attrs := make([]string, 0, arity)
	for i := 0; i < arity; i++ {
		a, err := r.str()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if arity == 0 {
		return relation.NewBuilder(name).Build(), nil
	}
	// Each value costs at least a byte, so a corrupt count cannot size
	// the columns past the input.
	if n > (len(r.buf)-r.off)/arity {
		return nil, fmt.Errorf("wal: %d rows of arity %d exceed remaining input %d", n, arity, len(r.buf)-r.off)
	}
	cols := make([][]relation.Value, arity)
	for j := range cols {
		cols[j] = make([]relation.Value, n)
	}
	sorted := true
	for i := 0; i < n; i++ {
		for j := range cols {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			cols[j][i] = relation.Value(v)
		}
		if sorted && i > 0 {
			sorted = rowLess(cols, i-1, i)
		}
	}
	if sorted {
		return relation.FromColumns(name, attrs, cols), nil
	}
	b := relation.NewBuilder(name, attrs...)
	t := make(relation.Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range cols {
			t[j] = cols[j][i]
		}
		if err := b.Add(t...); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// rowLess reports whether row a of cols sorts strictly before row b.
func rowLess(cols [][]relation.Value, a, b int) bool {
	for _, c := range cols {
		if c[a] != c[b] {
			return c[a] < c[b]
		}
	}
	return false
}
