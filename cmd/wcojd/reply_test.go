package main

// The /query reply is written by hand (appendRow, appendJSON) instead
// of through encoding/json. These tests pin it to the bytes
// encoding/json writes for the same reply, guard that a row reply's
// allocations do not grow with its rows, and benchmark the layer.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"wcoj"
	"wcoj/internal/dataset"
)

// legacyQueryResponse is the /query reply as a struct for
// encoding/json: the reference the hand-written encoder must match
// byte for byte.
type legacyQueryResponse struct {
	Count     int       `json:"count"`
	Exists    *bool     `json:"exists,omitempty"`
	Attrs     []string  `json:"attrs,omitempty"`
	Rows      [][]int64 `json:"rows,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
}

func (r legacyQueryResponse) encode(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// legacyReply answers req the way the handler did with encoding/json:
// every row boxed as a []int64. elapsed is copied from the reply under
// test, the one field two runs cannot share.
func legacyReply(t *testing.T, db *wcoj.DB, req queryRequest, elapsed int64) []byte {
	t.Helper()
	pq, err := db.Prepare(req.Query, wcoj.Options{Project: req.Project})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	old := legacyQueryResponse{ElapsedUS: elapsed}
	switch {
	case req.Exists:
		found, _, err := pq.Exists(ctx)
		if err != nil {
			t.Fatal(err)
		}
		old.Exists = &found
		if found {
			old.Count = 1
		}
	case req.Count:
		if old.Count, _, err = pq.Count(ctx); err != nil {
			t.Fatal(err)
		}
	default:
		limit := req.Limit
		if limit <= 0 {
			limit = 100
		}
		old.Attrs = pq.Query().Vars
		if len(req.Project) > 0 {
			old.Attrs = req.Project
		}
		_, err := pq.ExecuteFunc(ctx, func(tu wcoj.Tuple) error {
			if len(old.Rows) == limit {
				old.Truncated = true
				return errRowLimit
			}
			row := make([]int64, len(tu))
			for j, v := range tu {
				row[j] = int64(v)
			}
			old.Rows = append(old.Rows, row)
			return nil
		})
		if err != nil && !errors.Is(err, errRowLimit) {
			t.Fatal(err)
		}
		old.Count = len(old.Rows)
	}
	return old.encode(t)
}

// replyDB holds a power-law graph E (more than 100 edges and some
// triangles), a triangle-free path D, extreme values X and a
// dictionary-interned relation F loaded from CSV.
func replyDB(t *testing.T) *wcoj.DB {
	t.Helper()
	db := wcoj.NewDB()
	csv := filepath.Join(t.TempDir(), "f.csv")
	if err := os.WriteFile(csv, []byte("a,b\nalice,bob\nbob,carol\ncarol,alice\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadFile(csv, "F"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*wcoj.Relation{
		dataset.PowerLawGraph(300, 2000, 1.0, 1),
		wcoj.NewRelation("D", []string{"a", "b"}, []wcoj.Tuple{{1, 2}, {2, 3}, {3, 4}}),
		wcoj.NewRelation("X", []string{"a", "b"}, []wcoj.Tuple{
			{math.MaxInt64, -math.MaxInt64}, {-math.MaxInt64, 0}, {0, math.MaxInt64}, {-1, 1},
		}),
	} {
		if err := db.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	db := replyDB(t)
	const tri = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	const cyc = "Q(A,B,C) :- D(A,B), D(B,C), D(C,A)"
	cases := []struct {
		name string
		req  queryRequest
		rows bool // the reply must carry rows
	}{
		{"count", queryRequest{Query: tri, Count: true}, false},
		{"exists-true", queryRequest{Query: tri, Exists: true}, false},
		{"exists-false", queryRequest{Query: cyc, Exists: true}, false},
		{"rows", queryRequest{Query: tri, Limit: 100000}, true},
		{"rows-project", queryRequest{Query: tri, Project: []string{"C", "A"}, Limit: 100000}, true},
		{"rows-truncated", queryRequest{Query: tri, Limit: 7}, true},
		{"rows-default-limit", queryRequest{Query: "Q(A,B) :- E(A,B)"}, true},
		{"rows-none", queryRequest{Query: cyc, Limit: 10}, false},
		{"rows-extreme", queryRequest{Query: "Q(A,B) :- X(A,B)"}, true},
		{"rows-dict", queryRequest{Query: "Q(A,B,C) :- F(A,B), F(B,C), F(C,A)"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, status, err := handleQuery(context.Background(), db, tc.req)
			if err != nil {
				t.Fatalf("status %d: %v", status, err)
			}
			if tc.rows != (resp.Count > 0 && resp.Exists == nil && !tc.req.Count) {
				t.Fatalf("case does not exercise what it names: %d rows", resp.Count)
			}
			want := legacyReply(t, db, tc.req, resp.ElapsedUS)
			rec := httptest.NewRecorder()
			writeQueryReply(rec, resp)
			got := rec.Body.Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("reply differs from encoding/json:\n got %s\nwant %s", got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Fatalf("Content-Length %q for a %d-byte reply", cl, len(got))
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}
}

// FuzzQueryReply encodes arbitrary tuple lists of arity 1-4 with
// appendRow and appendJSON and checks the bytes against encoding/json.
// data[0] picks the arity, data[1] the envelope flags; then each value
// takes one byte saying whether it is a small int8 or a raw int64.
func FuzzQueryReply(f *testing.F) {
	f.Add([]byte{0, 0}, "")
	f.Add([]byte{1, 7, 0, 3, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, "A")
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0xfe, 0, 5, 0, 9}, "x<&>\"")
	f.Add([]byte{2, 5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}, "é ")
	f.Fuzz(func(t *testing.T, data []byte, attr string) {
		if len(data) < 2 {
			return
		}
		arity, flags, data := int(data[0]%4)+1, data[1], data[2:]
		var tuples []wcoj.Tuple
		for len(data) > 0 {
			tu := make(wcoj.Tuple, arity)
			for j := range tu {
				switch {
				case len(data) == 0:
				case data[0]&1 == 1 && len(data) >= 9:
					tu[j] = wcoj.Value(binary.LittleEndian.Uint64(data[1:9]))
					data = data[9:]
				case len(data) >= 2:
					tu[j] = wcoj.Value(int8(data[1]))
					data = data[2:]
				default:
					data = data[1:]
				}
			}
			tuples = append(tuples, tu)
		}
		attrs := []string{"A", "B", "C", "D"}[:arity:arity]
		if attr != "" {
			attrs = append([]string{attr}, attrs[1:]...)
		}
		resp := &queryResponse{ElapsedUS: int64(flags) * 977}
		old := legacyQueryResponse{ElapsedUS: resp.ElapsedUS}
		if flags&1 != 0 {
			resp.Attrs, old.Attrs = attrs, attrs
		}
		if flags&2 != 0 {
			found := flags&8 != 0
			resp.Exists, old.Exists = &found, &found
		}
		resp.Truncated = flags&4 != 0
		old.Truncated = resp.Truncated
		for _, tu := range tuples {
			resp.Rows = appendRow(resp.Rows, tu)
			row := make([]int64, len(tu))
			for j, v := range tu {
				row[j] = int64(v)
			}
			old.Rows = append(old.Rows, row)
		}
		resp.Count, old.Count = len(tuples), len(tuples)
		if got, want := resp.appendJSON(nil), old.encode(t); !bytes.Equal(got, want) {
			t.Fatalf("reply differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

// discardWriter is an http.ResponseWriter that counts the reply bytes
// and drops them.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// serveQuery runs one POST /query through the production handler into
// w and fails unless it answered 200.
func serveQuery(tb testing.TB, s *server, w *discardWriter, body []byte) {
	s.handleQueryHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if w.n == 0 {
		tb.Fatal("empty reply")
	}
}

// replyServer serves the read_heavy shape of E: a power-law graph with
// about 8.5k triangles.
func replyServer(tb testing.TB) *server {
	db := wcoj.NewDB()
	if err := db.Register(dataset.PowerLawGraph(5000, 25000, 1.0, 3)); err != nil {
		tb.Fatal(err)
	}
	s := newServer(testConfig())
	s.dictRels = map[string]bool{}
	s.db.Store(db)
	return s
}

// TestRowReplyAllocs: a row reply allocates per request, not per row.
// Rows are encoded into one pooled buffer as the engine emits them, so
// 8k rows cost the same allocations as 1k up to a small constant (the
// odd buffer regrowth after a GC empties the pool).
func TestRowReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := replyServer(t)
	allocs := func(limit int) float64 {
		body := []byte(`{"query":"Q(A,B) :- E(A,B)","limit":` + strconv.Itoa(limit) + `}`)
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(20, func() { serveQuery(t, s, w, body) })
	}
	small, large := allocs(1000), allocs(8000)
	if large-small > 16 {
		t.Fatalf("row reply allocations grow with rows: %.0f at 1k rows, %.0f at 8k", small, large)
	}
}

// BenchmarkQueryReply times one POST /query through the production
// handler (decode, plan-cache hit, engine, reply encoding) into a
// discarding writer, on the read_heavy graph: rows is tri_pl_rows
// (every triangle of E), count the same query's count.
func BenchmarkQueryReply(b *testing.B) {
	s := replyServer(b)
	for _, bc := range []struct{ name, body string }{
		{"rows", `{"query":"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)","limit":100000}`},
		{"count", `{"query":"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)","count":true}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			body := []byte(bc.body)
			serveQuery(b, s, w, body) // warm the plan and trie caches
			w.n = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveQuery(b, s, w, body)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "B/reply")
		})
	}
}
