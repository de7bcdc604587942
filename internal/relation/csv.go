package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVOptions configure ReadCSV.
type CSVOptions struct {
	// Comma is the field delimiter; 0 means ',' (pass '\t' for TSV,
	// such as what WriteTSV writes).
	Comma rune
	// Comment, when non-zero and positive, makes lines starting with
	// that rune comments. The zero value enables '#' comments only for
	// integer data (Dict nil — the cmd/wcojgen TSV convention); with a
	// Dict set, rows are arbitrary strings and nothing is skipped, so
	// a record like "#hashtag,topic" loads instead of vanishing. Set
	// to -1 to disable comment handling unconditionally.
	Comment rune
	// NoHeader declares the input headerless; attribute names then come
	// from Attrs, or default to c0..c{k-1} for the first record's width.
	NoHeader bool
	// Attrs overrides the attribute names (required width = arity).
	// With a header present the header row is still consumed.
	Attrs []string
	// Dict, when non-nil, interns every field through the dictionary,
	// so arbitrary string data loads; when nil every field must parse
	// as a base-10 int64.
	Dict *Dict
}

// ReadCSV reads a relation from delimited text via encoding/csv (so
// quoted fields, embedded delimiters and CRLF all work). The first
// record is the attribute header unless opt.NoHeader is set; every
// following record is one tuple. With opt.Dict set, fields are
// interned strings; otherwise they must be integers. Duplicate tuples
// are deduplicated by the builder, like every relation in the system.
func ReadCSV(r io.Reader, name string, opt CSVOptions) (*Relation, error) {
	cr := newCSVReader(r, opt)
	var b *Builder
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: %s: %w", name, err)
		}
		row++
		if b == nil {
			attrs := opt.Attrs
			data := rec
			if !opt.NoHeader {
				if attrs == nil {
					attrs = trimAll(rec)
				}
				data = nil
			} else if attrs == nil {
				attrs = make([]string, len(rec))
				for i := range attrs {
					attrs[i] = fmt.Sprintf("c%d", i)
				}
			}
			if len(attrs) == 0 {
				return nil, fmt.Errorf("relation: %s: empty schema", name)
			}
			b = NewBuilder(name, attrs...)
			if data == nil {
				continue
			}
			rec = data
		}
		if err := addCSVRow(b, rec, opt.Dict, name, row); err != nil {
			return nil, err
		}
	}
	if b == nil {
		if opt.NoHeader && opt.Attrs != nil {
			return NewBuilder(name, opt.Attrs...).Build(), nil
		}
		return nil, fmt.Errorf("relation: %s: empty input (missing header)", name)
	}
	return b.Build(), nil
}

// newCSVReader configures the csv.Reader both ReadCSV and
// ReadDeltaCSV run: delimiter, the comment-rune default ('#' only for
// integer data — with a Dict a leading '#' is a legitimate value),
// record reuse, and deferred width checking (done by the callers,
// with row numbers in the errors).
func newCSVReader(r io.Reader, opt CSVOptions) *csv.Reader {
	cr := csv.NewReader(r)
	if opt.Comma != 0 {
		cr.Comma = opt.Comma
	}
	switch {
	case opt.Comment > 0:
		cr.Comment = opt.Comment
	case opt.Comment == 0 && opt.Dict == nil:
		cr.Comment = '#'
	}
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	return cr
}

// parseField converts one raw field: interned through dict when one
// is set, base-10 int64 otherwise.
func parseField(f string, dict *Dict) (Value, error) {
	f = strings.TrimSpace(f)
	if dict != nil {
		return dict.ID(f), nil
	}
	v, err := strconv.ParseInt(f, 10, 64)
	if err != nil {
		return 0, err
	}
	return Value(v), nil
}

// addCSVRow converts one record and appends it to the builder.
func addCSVRow(b *Builder, rec []string, dict *Dict, name string, row int) error {
	if len(rec) != b.arity {
		return fmt.Errorf("relation: %s record %d: %d fields, want %d", name, row, len(rec), b.arity)
	}
	vals := make([]Value, len(rec))
	for i, f := range rec {
		v, err := parseField(f, dict)
		if err != nil {
			return fmt.Errorf("relation: %s record %d field %d: %w", name, row, i+1, err)
		}
		vals[i] = v
	}
	return b.Add(vals...)
}

func trimAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.TrimSpace(s)
	}
	return out
}

// Delta is a parsed update file: tuples to insert and tuples to
// delete, in file order per side (the op order across sides is not
// preserved — a delta file describes a target state change, not a
// transaction log; within one file a tuple should appear on one side
// only).
type Delta struct {
	Insert, Delete []Tuple
}

// Len returns the total number of operations.
func (d *Delta) Len() int { return len(d.Insert) + len(d.Delete) }

// ReadDeltaCSV reads an update file: each record is an operation tag
// followed by one tuple — "+" (or "insert"/"i") inserts, "-" (or
// "delete"/"d") deletes:
//
//	+,5,6
//	-,3,4
//
// There is no header; every record must have the same width. Fields
// parse exactly as in ReadCSV (integers, or interned strings with
// opt.Dict set; opt.Comma and opt.Comment as there; opt.NoHeader and
// opt.Attrs are ignored). The tuple arity is not validated here — the
// relation the delta is applied to checks it.
func ReadDeltaCSV(r io.Reader, name string, opt CSVOptions) (*Delta, error) {
	cr := newCSVReader(r, opt)
	d := &Delta{}
	width := -1
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: delta %s: %w", name, err)
		}
		row++
		if len(rec) < 2 {
			return nil, fmt.Errorf("relation: delta %s record %d: want an op tag and at least one value", name, row)
		}
		if width < 0 {
			width = len(rec)
		} else if len(rec) != width {
			return nil, fmt.Errorf("relation: delta %s record %d: %d fields, want %d", name, row, len(rec), width)
		}
		var del bool
		switch op := strings.ToLower(strings.TrimSpace(rec[0])); op {
		case "+", "insert", "i":
			del = false
		case "-", "delete", "d":
			del = true
		default:
			return nil, fmt.Errorf("relation: delta %s record %d: unknown op %q (want +/-/insert/delete)", name, row, rec[0])
		}
		vals := make(Tuple, len(rec)-1)
		for i, f := range rec[1:] {
			v, err := parseField(f, opt.Dict)
			if err != nil {
				return nil, fmt.Errorf("relation: delta %s record %d field %d: %w", name, row, i+2, err)
			}
			vals[i] = v
		}
		if del {
			d.Delete = append(d.Delete, vals)
		} else {
			d.Insert = append(d.Insert, vals)
		}
	}
	return d, nil
}
