package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// dump renders everything a seed determines — datasets as the TSV
// bytes wcojd loads, plus the first batches and read classes of each
// op stream — so two seeds can be compared byte for byte.
func dump(t *testing.T, seed int64) []byte {
	t.Helper()
	d := Generate(seed, Toy)
	dir := t.TempDir()
	if _, err := d.WriteTSV(dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, name := range RelNames {
		b, err := os.ReadFile(filepath.Join(dir, name+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
	}
	w := NewWriter(d, 100)
	for i := 0; i < 20; i++ {
		out.Write(w.Next().Body("E"))
	}
	for client := 0; client < 2; client++ {
		s := NewShortStream(seed, client)
		for i := 0; i < 200; i++ {
			out.Write(s.Next().Body())
		}
	}
	return out.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := dump(t, 1), dump(t, 1), dump(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different datasets or op streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave identical datasets and op streams")
	}
}

func degrees(edges []Edge) (out, in map[int64]int) {
	out, in = map[int64]int{}, map[int64]int{}
	for _, e := range edges {
		out[e[0]]++
		in[e[1]]++
	}
	return out, in
}

func TestRewireKeepsDegreesChangesTriangles(t *testing.T) {
	d := Generate(1, Toy)
	e, ew := d.Rels["E"], d.Rels["Ew"]
	if len(e) != len(ew) {
		t.Fatalf("|E| = %d, |Ew| = %d", len(e), len(ew))
	}
	eo, ei := degrees(e)
	wo, wi := degrees(ew)
	for _, pair := range []struct{ a, b map[int64]int }{{eo, wo}, {ei, wi}} {
		if len(pair.a) != len(pair.b) {
			t.Fatalf("vertex sets differ: %d vs %d", len(pair.a), len(pair.b))
		}
		for v, deg := range pair.a {
			if pair.b[v] != deg {
				t.Fatalf("vertex %d: degree %d became %d", v, deg, pair.b[v])
			}
		}
	}
	ge, gw := NewGraph(e), NewGraph(ew)
	if gw.Len() != len(ew) {
		t.Fatalf("Ew has duplicate edges: %d distinct of %d", gw.Len(), len(ew))
	}
	if te, tw := Triangles(ge, ge, ge), Triangles(gw, gw, gw); te == tw {
		t.Errorf("rewiring left the triangle count at %d", te)
	}
}

// The incremental counts every write-workload check rests on must
// equal a recount from scratch.
func TestShadowMatchesRecount(t *testing.T) {
	w := NewWriter(Generate(3, Toy), 100)
	for i := 0; i < 30; i++ {
		b := w.Next()
		if len(b.Ins) != 70 || len(b.Del) != 30 {
			t.Fatalf("batch %d: %d inserts, %d deletes", i, len(b.Ins), len(b.Del))
		}
	}
	g := w.Shadow.G
	if got, want := w.Shadow.Tri, Triangles(g, g, g); got != want {
		t.Errorf("incremental triangles %d, recount %d", got, want)
	}
	if got, want := w.Shadow.Cyc2, g.Cycle2(); got != want {
		t.Errorf("incremental 2-cycles %d, recount %d", got, want)
	}
}
