package relation

// Delta-file loading tests live beside the CSV reader tests; see
// TestReadDeltaCSV below.

import (
	"strings"
	"testing"
)

func TestReadCSVIntegers(t *testing.T) {
	in := "src,dst\n1,2\n# comment\n3,4\n1,2\n"
	r, err := ReadCSV(strings.NewReader(in), "E", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Attrs(); got[0] != "src" || got[1] != "dst" {
		t.Fatalf("attrs = %v", got)
	}
	if r.Len() != 2 { // duplicate (1,2) deduped
		t.Fatalf("len = %d, want 2", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) || !r.Contains(Tuple{3, 4}) {
		t.Fatalf("tuples missing: %v", r.Tuples())
	}
}

func TestReadCSVTabDelimited(t *testing.T) {
	in := "x\ty\n10\t20\n30\t40\n"
	r, err := ReadCSV(strings.NewReader(in), "R", CSVOptions{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || !r.Contains(Tuple{10, 20}) {
		t.Fatalf("bad relation: %v", r.Tuples())
	}
}

func TestReadCSVStringsInterned(t *testing.T) {
	dict := NewDict()
	in := "person,city\nalice,\"new york\"\nbob,berlin\nalice,berlin\nbob,\"with,comma\"\nbob,\"with \"\"quote\"\"\"\n"
	r, err := ReadCSV(strings.NewReader(in), "Lives", CSVOptions{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d, want 5", r.Len())
	}
	for _, s := range []string{"with,comma", `with "quote"`} {
		if _, ok := dict.Lookup(s); !ok {
			t.Fatalf("quoted field %q not interned verbatim", s)
		}
	}
	alice, ok := dict.Lookup("alice")
	if !ok {
		t.Fatal("alice not interned")
	}
	ny, ok := dict.Lookup("new york")
	if !ok {
		t.Fatal("quoted field not interned verbatim")
	}
	if !r.Contains(Tuple{alice, ny}) {
		t.Fatalf("missing (alice, new york): %v", r.Tuples())
	}
}

// TestReadCSVCommentModes: '#' comments apply to integer data (the
// TSV convention) but never to dictionary-interned string data, where
// a leading '#' is a legitimate value; an explicit Comment rune wins
// either way.
func TestReadCSVCommentModes(t *testing.T) {
	dict := NewDict()
	r, err := ReadCSV(strings.NewReader("tag,topic\n#go,lang\nplain,misc\n"), "T", CSVOptions{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("string data lost a '#' row: %d tuples, want 2", r.Len())
	}
	if _, ok := dict.Lookup("#go"); !ok {
		t.Fatal("'#go' not interned")
	}
	r2, err := ReadCSV(strings.NewReader("tag,topic\n;skipped,row\nplain,misc\n"), "T",
		CSVOptions{Dict: dict, Comment: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("explicit comment rune ignored: %d tuples, want 1", r2.Len())
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), "E", CSVOptions{NoHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Attrs(); got[0] != "c0" || got[1] != "c1" {
		t.Fatalf("auto attrs = %v", got)
	}
	r2, err := ReadCSV(strings.NewReader("1,2\n"), "E", CSVOptions{NoHeader: true, Attrs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Attrs(); got[0] != "a" || got[1] != "b" {
		t.Fatalf("explicit attrs = %v", got)
	}
	// Headerless empty input with an explicit schema is an empty
	// relation, not an error.
	r3, err := ReadCSV(strings.NewReader(""), "E", CSVOptions{NoHeader: true, Attrs: []string{"a"}})
	if err != nil || r3.Len() != 0 {
		t.Fatalf("empty headerless: %v, %v", r3, err)
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opt  CSVOptions
	}{
		{"empty input", "", CSVOptions{}},
		{"arity mismatch", "a,b\n1,2,3\n", CSVOptions{}},
		{"non-integer without dict", "a,b\n1,oops\n", CSVOptions{}},
		{"bare quote", "a,b\n\"1,2\n", CSVOptions{}},
		{"headerless arity drift", "1,2\n3\n", CSVOptions{NoHeader: true}},
		{"explicit attrs arity", "a,b\n1,2\n", CSVOptions{Attrs: []string{"x"}}},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in), "R", c.opt); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

// TestCSVTSVInterop: WriteTSV writes the comma-separated input with
// tabs in place of commas, and ReadCSV with a tab delimiter loads that
// text to the relation the comma form loaded to.
func TestCSVTSVInterop(t *testing.T) {
	csvText := "src,dst\n1,2\n3,4\n"
	viaCSV, err := ReadCSV(strings.NewReader(csvText), "E", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteTSV(&buf, viaCSV); err != nil {
		t.Fatal(err)
	}
	if want := strings.ReplaceAll(csvText, ",", "\t"); buf.String() != want {
		t.Fatalf("WriteTSV wrote %q, want %q", buf.String(), want)
	}
	viaTSV, err := ReadCSV(strings.NewReader(buf.String()), "E", CSVOptions{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if !viaCSV.Equal(viaTSV) {
		t.Fatalf("CSV and TSV forms differ: %v vs %v", viaCSV.Tuples(), viaTSV.Tuples())
	}
}

func TestReadDeltaCSV(t *testing.T) {
	in := "# a comment\n+,1,2\n-,3,4\ninsert, 5 , 6\nDELETE,7,8\ni,9,10\nd,11,12\n"
	d, err := ReadDeltaCSV(strings.NewReader(in), "E", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 || len(d.Insert) != 3 || len(d.Delete) != 3 {
		t.Fatalf("parsed %d inserts, %d deletes", len(d.Insert), len(d.Delete))
	}
	if !d.Insert[1].Equal(Tuple{5, 6}) || !d.Delete[2].Equal(Tuple{11, 12}) {
		t.Fatalf("tuples: %v / %v", d.Insert, d.Delete)
	}
}

func TestReadDeltaCSVDict(t *testing.T) {
	dict := NewDict()
	d, err := ReadDeltaCSV(strings.NewReader("+,alice,bob\n-,carol,dan\n"), "F", CSVOptions{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || len(d.Delete) != 1 {
		t.Fatalf("parsed %v / %v", d.Insert, d.Delete)
	}
	if dict.String(d.Insert[0][1]) != "bob" || dict.String(d.Delete[0][0]) != "carol" {
		t.Fatal("dict interning lost the strings")
	}
}

func TestReadDeltaCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad op":       "*,1,2\n",
		"no values":    "+\n",
		"ragged width": "+,1,2\n-,3\n",
		"non-integer":  "+,1,x\n",
	}
	for name, in := range cases {
		if _, err := ReadDeltaCSV(strings.NewReader(in), "E", CSVOptions{}); err == nil {
			t.Errorf("%s: want error for %q", name, in)
		}
	}
	// Empty input is a valid empty delta.
	d, err := ReadDeltaCSV(strings.NewReader(""), "E", CSVOptions{})
	if err != nil || d.Len() != 0 {
		t.Fatalf("empty input: %v, %d ops", err, d.Len())
	}
}
