// Package workload generates everything a wcojbench run feeds to the
// system under test — datasets, query classes, read and write op
// streams — and the oracle answers they are checked against. All of it
// is a pure function of (seed, Scale): the server only ever receives
// the generated inputs, never the seed. The end-to-end driver and the
// in-process probe both import it, so they measure the same data.
package workload

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// Edge is one binary tuple.
type Edge [2]int64

// Scale sizes the datasets. Bench is what BENCHMARK.json runs; Toy
// keeps the tier-1 smoke test under a second per workload.
type Scale struct {
	EVerts, EEdges int // E = PowerLawGraph(EVerts, EEdges, 1.0)
	SwapsPerEdge   int // Ew = E after SwapsPerEdge*|E| double-edge swaps
	AGM            int // R,S,T = TriangleAGMTight(AGM)
	GVerts, GEdges int // G = RandomGraph(GVerts, GEdges)
	Spokes, Fan    int // SR,SS = SkewedStar(Spokes, Fan, Noise)
	Noise          int
}

// Bench is the issue's dataset list shrunk by the factor the
// contract's run-time cap forces (10 s phases instead of 30 s): every
// relation keeps its shape, none is dropped. G is denser than a plain
// shrink would give so that clique4 has a non-zero answer to check.
var Bench = Scale{
	EVerts: 5000, EEdges: 25000, SwapsPerEdge: 10,
	AGM:    10000,
	GVerts: 600, GEdges: 12000,
	Spokes: 2500, Fan: 10, Noise: 125,
}

// Toy is the smoke-test scale: at most 1k edges per relation.
var Toy = Scale{
	EVerts: 200, EEdges: 800, SwapsPerEdge: 10,
	AGM:    400,
	GVerts: 60, GEdges: 500,
	Spokes: 100, Fan: 4, Noise: 10,
}

// Data is one seed's datasets, keyed by the relation names wcojd
// serves them under.
type Data struct {
	Seed  int64
	Scale Scale
	Rels  map[string][]Edge
}

// RelNames lists the relations in load order.
var RelNames = []string{"E", "Ew", "R", "S", "T", "G", "SR", "SS"}

// Generate builds the datasets for a seed.
func Generate(seed int64, sc Scale) *Data {
	e := edgesOf(dataset.PowerLawGraph(sc.EVerts, sc.EEdges, 1.0, seed))
	tri := dataset.TriangleAGMTight(sc.AGM)
	star := dataset.SkewedStar(sc.Spokes, sc.Fan, sc.Noise)
	return &Data{Seed: seed, Scale: sc, Rels: map[string][]Edge{
		"E":  e,
		"Ew": Rewire(e, sc.SwapsPerEdge*len(e), seed+1),
		"R":  edgesOf(tri.R),
		"S":  edgesOf(tri.S),
		"T":  edgesOf(tri.T),
		"G":  edgesOf(dataset.RandomGraph(sc.GVerts, sc.GEdges, seed+2)),
		"SR": edgesOf(star.R),
		"SS": edgesOf(star.S),
	}}
}

func edgesOf(r *relation.Relation) []Edge {
	src, dst := r.Col(0), r.Col(1)
	out := make([]Edge, r.Len())
	for i := range out {
		out[i] = Edge{int64(src[i]), int64(dst[i])}
	}
	return out
}

// Rewire returns a copy of edges after `swaps` attempted
// degree-preserving double-edge swaps (arXiv 0908.0976): two edges
// (a,b),(c,d) become (a,d),(c,b) unless that would create a self-loop
// or a duplicate. Every vertex keeps its in- and out-degree, so a
// planner that sees only degree statistics cannot tell the result from
// the input, while triangle and clique counts change.
func Rewire(edges []Edge, swaps int, seed int64) []Edge {
	out := append([]Edge(nil), edges...)
	if len(out) < 2 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	have := make(map[Edge]struct{}, len(out))
	for _, e := range out {
		have[e] = struct{}{}
	}
	for ; swaps > 0; swaps-- {
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		ab, cd := out[i], out[j]
		ad, cb := Edge{ab[0], cd[1]}, Edge{cd[0], ab[1]}
		if i == j || ad[0] == ad[1] || cb[0] == cb[1] {
			continue
		}
		if _, dup := have[ad]; dup {
			continue
		}
		if _, dup := have[cb]; dup {
			continue
		}
		delete(have, ab)
		delete(have, cd)
		have[ad], have[cb] = struct{}{}, struct{}{}
		out[i], out[j] = ad, cb
	}
	return out
}

// WriteTSV writes every relation as <dir>/<name>.tsv in the format
// wcojd's -rel flag loads, and returns the -rel arguments.
func (d *Data) WriteTSV(dir string) ([]string, error) {
	var specs []string
	for _, name := range RelNames {
		path := filepath.Join(dir, name+".tsv")
		if err := writeTSV(path, d.Rels[name]); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		specs = append(specs, name+"="+path)
	}
	return specs, nil
}

func writeTSV(path string, edges []Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("src\tdst\n")
	var buf []byte
	for _, e := range edges {
		buf = strconv.AppendInt(buf[:0], e[0], 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, e[1], 10)
		buf = append(buf, '\n')
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
