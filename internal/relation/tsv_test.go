package relation

import (
	"bytes"
	"testing"
)

// TestTSVRoundTrip: what WriteTSV writes, ReadCSV with a tab delimiter
// reads back exactly.
func TestTSVRoundTrip(t *testing.T) {
	r := mustRel(t, "R", []string{"A", "B"},
		[]Value{1, 2}, []Value{3, 4}, []Value{-5, 0})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "R", CSVOptions{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip: %v vs %v", got.Tuples(), r.Tuples())
	}
}
