package dataset

import (
	"math"
	"testing"

	"wcoj/internal/baseline"
	"wcoj/internal/core"
)

// joinSize is the output cardinality of q by the binary-join oracle.
func joinSize(t *testing.T, q *core.Query) int {
	t.Helper()
	out, _, err := baseline.JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Len()
}

func TestRandomGraph(t *testing.T) {
	g := RandomGraph(50, 200, 1)
	if g.Len() == 0 || g.Arity() != 2 {
		t.Fatalf("graph: %v", g)
	}
	// No self loops.
	for i := 0; i < g.Len(); i++ {
		if g.Col(0)[i] == g.Col(1)[i] {
			t.Fatal("self loop found")
		}
	}
	// Determinism.
	g2 := RandomGraph(50, 200, 1)
	if !g.Equal(g2) {
		t.Fatal("same seed must give same graph")
	}
	if g.Equal(RandomGraph(50, 200, 2)) {
		t.Fatal("different seeds should differ")
	}
}

// TestRandomGraphEdgeCount: rejected draws (self-loops, duplicates)
// are resampled, so the generator delivers exactly the m edges the
// caller asked for — the old code silently returned fewer.
func TestRandomGraphEdgeCount(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{50, 200}, {100, 500}, {10, 90}, // m = n(n-1): the complete digraph
		{2, 2},
	} {
		g := RandomGraph(c.n, c.m, 7)
		if g.Len() != c.m {
			t.Errorf("RandomGraph(%d, %d): %d edges, want %d", c.n, c.m, g.Len(), c.m)
		}
	}
	// m beyond the n(n-1) maximum clamps instead of spinning.
	if g := RandomGraph(5, 1000, 7); g.Len() != 20 {
		t.Errorf("over-requested graph: %d edges, want the full 20", g.Len())
	}
	// Degenerate vertex counts yield empty graphs, not panics or loops.
	for _, n := range []int{0, 1, -3} {
		if g := RandomGraph(n, 10, 7); g.Len() != 0 {
			t.Errorf("RandomGraph(%d, 10): %d edges, want 0", n, g.Len())
		}
	}
}

// TestPowerLawGraphEdgeCount: same contract for the skewed generator,
// plus the degenerate-n guard (the old code handed rand.NewZipf an
// imax of uint64(n-1), which underflows for n = 0).
func TestPowerLawGraphEdgeCount(t *testing.T) {
	for _, c := range []struct {
		n, m int
		s    float64
	}{
		{100, 500, 1.5}, {200, 1000, 1.1}, {50, 300, 2.0},
	} {
		g := PowerLawGraph(c.n, c.m, c.s, 11)
		if g.Len() != c.m {
			t.Errorf("PowerLawGraph(%d, %d, %g): %d edges, want %d", c.n, c.m, c.s, g.Len(), c.m)
		}
	}
	for _, n := range []int{0, 1, -3} {
		if g := PowerLawGraph(n, 10, 1.5, 11); g.Len() != 0 {
			t.Errorf("PowerLawGraph(%d, 10): %d edges, want 0", n, g.Len())
		}
	}
}

func TestPowerLawGraph(t *testing.T) {
	g := PowerLawGraph(100, 500, 1.5, 3)
	if g.Len() == 0 {
		t.Fatal("empty power-law graph")
	}
	// Skew: some source should have much higher degree than the median.
	counts := make(map[int64]int)
	for i := 0; i < g.Len(); i++ {
		counts[int64(g.Col(0)[i])]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3 {
		t.Fatalf("expected a heavy hitter, max degree = %d", max)
	}
}

func TestTriangleAGMTight(t *testing.T) {
	tri := TriangleAGMTight(100)
	k := 10
	if tri.R.Len() != k*k || tri.S.Len() != k*k || tri.T.Len() != k*k {
		t.Fatalf("sizes %d/%d/%d, want %d", tri.R.Len(), tri.S.Len(), tri.T.Len(), k*k)
	}
	// Output size must be exactly k^3 = AGM bound (N^{3/2}).
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := joinSize(t, q)
	if n != k*k*k {
		t.Fatalf("output = %d, want %d (AGM tight)", n, k*k*k)
	}
}

func TestTriangleSkew(t *testing.T) {
	tri := TriangleSkew(100)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise join R ⋈ S is quadratic in the star size: the hub b=0
	// pairs all (a, c).
	n := joinSize(t, q)
	// Output is linear-ish: triangles through hubs.
	if n == 0 {
		t.Fatal("skew instance must have triangles")
	}
	if n > 3*tri.R.Len() {
		t.Fatalf("output %d should be O(n), relations are %d", n, tri.R.Len())
	}
}

func TestTriangleFromGraph(t *testing.T) {
	g := RandomGraph(30, 100, 5)
	tri, err := TriangleFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if tri.R.Len() != g.Len() || tri.R.Attrs()[0] != "A" {
		t.Fatal("rename failed")
	}
}

func TestLoomisWhitney(t *testing.T) {
	for k := 3; k <= 4; k++ {
		rels := LoomisWhitney(k, 64)
		if len(rels) != k {
			t.Fatalf("LW(%d): %d relations", k, len(rels))
		}
		m := int(math.Pow(64, 1/float64(k-1)))
		want := int(math.Pow(float64(m), float64(k-1)))
		for i, r := range rels {
			if r.Arity() != k-1 {
				t.Fatalf("LW(%d) relation %d arity %d", k, i, r.Arity())
			}
			if r.Len() != want {
				t.Fatalf("LW(%d) relation %d size %d, want %d", k, i, r.Len(), want)
			}
		}
		// Output = m^k (the full cube joins completely).
		var atoms []core.Atom
		var vars []string
		for j := 0; j < k; j++ {
			vars = append(vars, varName(j))
		}
		for i, r := range rels {
			atoms = append(atoms, core.Atom{Name: r.Name(), Vars: r.Attrs(), Rel: r})
			_ = i
		}
		q, err := core.NewQuery(vars, atoms)
		if err != nil {
			t.Fatal(err)
		}
		n := joinSize(t, q)
		if n != int(math.Pow(float64(m), float64(k))) {
			t.Fatalf("LW(%d) output = %d, want m^k = %d", k, n, int(math.Pow(float64(m), float64(k))))
		}
	}
}

func TestNewChain63(t *testing.T) {
	c := NewChain63(20, 3, 2, 4, 1)
	if c.R.Len() != 20 {
		t.Fatalf("|R| = %d", c.R.Len())
	}
	// Realized degrees must match the declared constraints.
	dB, err := c.S.MaxDegree([]string{"A"}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if dB > c.NBgA {
		t.Fatalf("deg_S(B|A) = %d > %d", dB, c.NBgA)
	}
	dC, err := c.T.MaxDegree([]string{"B"}, []string{"B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if dC > c.NCgB {
		t.Fatalf("deg_T(C|B) = %d > %d", dC, c.NCgB)
	}
	dAD, err := c.W.MaxDegree([]string{"C"}, []string{"C", "A", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if dAD > c.NADgC {
		t.Fatalf("deg_W(AD|C) = %d > %d", dAD, c.NADgC)
	}
}

func TestNewExample1(t *testing.T) {
	d := NewExample1(500, 3, 3, 0.3, 7)
	if d.R.Len() == 0 || d.S.Len() == 0 || d.T.Len() == 0 || d.W.Len() == 0 || d.V.Len() == 0 {
		t.Fatal("empty relation in Example 1 instance")
	}
	// Degree bounds hold.
	dw, err := d.W.MaxDegree([]string{"A", "C"}, []string{"A", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if dw > 3 {
		t.Fatalf("deg_W(ACD|AC) = %d > 3", dw)
	}
	dv, err := d.V.MaxDegree([]string{"B", "D"}, []string{"A", "B", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if dv > 3 {
		t.Fatalf("deg_V(ABD|BD) = %d > 3", dv)
	}
	// Skew: B=0 must be a heavy hitter in S — at least twice the
	// average per-B frequency (dedup caps it at the domain size).
	s0 := 0
	for _, b := range d.S.Col(d.S.AttrIndex("B")) {
		if b == 0 {
			s0++
		}
	}
	distinctB, err := d.S.Project("B")
	if err != nil {
		t.Fatal(err)
	}
	avg := d.S.Len() / distinctB.Len()
	if s0 < 2*avg {
		t.Fatalf("expected heavy hitter B=0: got %d, average %d", s0, avg)
	}
}

func TestFDInstance(t *testing.T) {
	r := FDInstance(200, 20, 10, 3)
	// A→B must hold.
	d, err := r.MaxDegree([]string{"A"}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("FD A→B violated: deg(AB|A) = %d", d)
	}
}
