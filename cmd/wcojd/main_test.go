package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wcoj"
)

func testDB(t *testing.T) *wcoj.DB {
	t.Helper()
	db := wcoj.NewDB()
	err := db.Register(wcoj.NewRelation("E", []string{"src", "dst"}, []wcoj.Tuple{
		{1, 2}, {2, 3}, {1, 3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRunRequiresServe: wcojd only serves, so a command line without
// -serve is an error, whatever else it sets.
func TestRunRequiresServe(t *testing.T) {
	for _, c := range []config{{}, {rels: relFlags{"E=edges.tsv"}, dir: t.TempDir()}} {
		if err := run(c); err == nil || !strings.Contains(err.Error(), "-serve") {
			t.Fatalf("run(%+v) = %v, want an error naming -serve", c, err)
		}
	}
}

func TestHandleUpdateThenQuery(t *testing.T) {
	db := testDB(t)
	// Insert the second half of a diamond; delete one original edge.
	resp, status, err := handleUpdate(db, nil, updateRequest{
		Insert: map[string][][]any{"E": {{3, 4}, {2, 4}, {1, 2}}},
		Delete: map[string][][]any{"E": {{1, 3}, {9, 9}}},
	})
	if err != nil {
		t.Fatalf("status %d: %v", status, err)
	}
	if resp.Inserted != 2 || resp.InsertNoops != 1 || resp.Deleted != 1 || resp.DeleteNoops != 1 {
		t.Fatalf("update response: %+v", resp)
	}
	if resp.Epoch == 0 {
		t.Fatal("epoch did not advance")
	}
	q, status, err := handleQuery(context.Background(), db, queryRequest{
		Query: "Q(A,B) :- E(A,B)",
		Count: true,
	})
	if err != nil {
		t.Fatalf("status %d: %v", status, err)
	}
	if q.Count != 4 { // {1,2},{2,3},{3,4},{2,4}
		t.Fatalf("count after update: %d, want 4", q.Count)
	}
}

func TestHandleUpdateErrors(t *testing.T) {
	db := testDB(t)
	if _, _, err := handleUpdate(db, nil, updateRequest{
		Insert: map[string][][]any{"missing": {{1, 2}}},
	}); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if _, _, err := handleUpdate(db, nil, updateRequest{
		Insert: map[string][][]any{"E": {{1}}},
	}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	// An empty update is a no-op, not an error.
	resp, _, err := handleUpdate(db, nil, updateRequest{})
	if err != nil || resp.Inserted != 0 || resp.Deleted != 0 {
		t.Fatalf("empty update: %+v, %v", resp, err)
	}
}

func TestUpdatesFlagFile(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "delta.txt")
	if err := os.WriteFile(path, []byte("+,3,4\n-,1,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	us, err := db.ApplyDeltaFile(path, "E", wcoj.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if us.Inserted != 1 || us.Deleted != 1 {
		t.Fatalf("delta file stats: %+v", us)
	}
	r, ok := db.Relation("E")
	if !ok || !r.Contains(wcoj.Tuple{3, 4}) || r.Contains(wcoj.Tuple{1, 3}) {
		t.Fatalf("delta file not applied: %v", r.Tuples())
	}
}

func TestHandleUpdateStringTuples(t *testing.T) {
	db := wcoj.NewDB()
	dict := db.Dict()
	err := db.Register(wcoj.NewRelation("F", []string{"a", "b"}, []wcoj.Tuple{
		{dict.ID("alice"), dict.ID("bob")},
	}))
	if err != nil {
		t.Fatal(err)
	}
	dictRels := map[string]bool{"F": true}
	resp, status, err := handleUpdate(db, dictRels, updateRequest{
		Insert: map[string][][]any{"F": {{"bob", "carol"}}},
		Delete: map[string][][]any{"F": {{"alice", "bob"}}},
	})
	if err != nil {
		t.Fatalf("status %d: %v", status, err)
	}
	if resp.Inserted != 1 || resp.Deleted != 1 {
		t.Fatalf("string update: %+v", resp)
	}
	r, _ := db.Relation("F")
	bob, _ := dict.Lookup("bob")
	carol, _ := dict.Lookup("carol")
	if !r.Contains(wcoj.Tuple{bob, carol}) || r.Len() != 1 {
		t.Fatalf("string tuples not applied: %v", r.Tuples())
	}
	// Non-integral numbers and unsupported types are rejected.
	if _, _, err := handleUpdate(db, dictRels, updateRequest{
		Insert: map[string][][]any{"F": {{json.Number("1.5"), "x"}}},
	}); err == nil {
		t.Fatal("non-integral number must fail")
	}
	if _, _, err := handleUpdate(db, dictRels, updateRequest{
		Insert: map[string][][]any{"F": {{true, "x"}}},
	}); err == nil {
		t.Fatal("bool field must fail")
	}
	// String fields against an integer-encoded relation are a client
	// error, not a silent dict allocation.
	if _, _, err := handleUpdate(db, dictRels, updateRequest{
		Insert: map[string][][]any{"G": {{"alice", "bob"}}},
	}); err == nil {
		t.Fatal("string fields for a non-dict relation must fail")
	}
}

// TestHandleUpdateExactIntegers: /update takes tuple values exactly.
// Plain integer literals keep every int64 (2^53+1 is not rounded to
// 2^53, so deleting it removes it and not its neighbour); other number
// forms are taken only when integral and within ±2^53; anything else
// is a 400 naming the tuple and the field.
func TestHandleUpdateExactIntegers(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	rows := func() map[[2]int64]bool {
		t.Helper()
		code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","limit":1000}`)
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, body)
		}
		var r struct{ Rows [][2]int64 }
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		set := make(map[[2]int64]bool, len(r.Rows))
		for _, row := range r.Rows {
			set[row] = true
		}
		return set
	}
	code, body := post(t, ts.URL+"/update", `{"insert":{"E":[
		[9007199254740993,1],[9007199254740992,1],
		[9223372036854775807,2],[-9223372036854775807,3],[1e3,4],[7.0,5]]}}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	got := rows()
	for _, want := range [][2]int64{
		{1<<53 + 1, 1}, {1 << 53, 1}, {math.MaxInt64, 2}, {-math.MaxInt64, 3}, {1000, 4}, {7, 5},
	} {
		if !got[want] {
			t.Errorf("row %v missing after insert: %v", want, got)
		}
	}
	if code, body := post(t, ts.URL+"/update", `{"delete":{"E":[[9007199254740993,1]]}}`); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if got := rows(); got[[2]int64{1<<53 + 1, 1}] || !got[[2]int64{1 << 53, 1}] {
		t.Fatalf("deleting 2^53+1 must remove exactly it: %v", got)
	}
	for _, bad := range []string{
		`{"insert":{"E":[[1,2],[1.5,1]]}}`,
		`{"insert":{"E":[[1,2],[1,9223372036854775808]]}}`,
		`{"insert":{"E":[[1,2],[1e300,1]]}}`,
	} {
		code, body := post(t, ts.URL+"/update", bad)
		if code != http.StatusBadRequest || !strings.Contains(body, "tuple 1 field") {
			t.Errorf("%s: %d %q, want 400 naming tuple 1 and its field", bad, code, body)
		}
	}
}
