package trie

import (
	"math"
	"sort"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// BenchmarkLevelKernels times the level kernels on the three level
// shapes the served count classes spend their intersections on, over
// the benchmark's own graphs: E = PowerLawGraph(5000, 25000, 1.0) and
// G = RandomGraph(600, 12000). One op sweeps every level-0 segment of
// the graph's trie:
//
//   - child-level0: the segment's children against the whole level 0 of
//     E (ranked: dense and narrowed) — the level of a triangle or cycle
//     where one atom binds its first variable;
//   - child-child: E's largest children range (the hub's) against the
//     segment's — a skewed pair of child ranges;
//   - clique: G's segment a, its first child b, and the whole level 0:
//     a ~20/20/600 clique level.
//
// Each shape runs through the materializing (IntersectLevelsAt),
// counting and streaming (StreamLevels) entries.
func BenchmarkLevelKernels(b *testing.B) {
	build := func(r *relation.Relation) *Trie {
		tr, err := Build(r, r.Attrs())
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	e := build(dataset.PowerLawGraph(5000, 25000, 1.0, 1))
	g := build(dataset.RandomGraph(600, 12000, 3))
	children := func(tr *Trie, s int) LevelRange {
		lo, hi := tr.Children(0, s)
		return tr.SegLevel(1, lo, hi)
	}
	whole := func(tr *Trie) LevelRange { return tr.SegLevel(0, 0, tr.NumSegs(0)) }
	hub := 0
	for s := 0; s < e.NumSegs(0); s++ {
		if children(e, s).Size() > children(e, hub).Size() {
			hub = s
		}
	}
	// levels holds every op's level ranges, built once.
	var levels = map[string][][]LevelRange{}
	for s := 0; s < e.NumSegs(0); s++ {
		levels["child-level0"] = append(levels["child-level0"], []LevelRange{children(e, s), whole(e)})
		levels["child-child"] = append(levels["child-child"], []LevelRange{children(e, hub), children(e, s)})
	}
	for a := 0; a < g.NumSegs(0); a++ {
		ca := children(g, a)
		if ca.Size() == 0 {
			continue
		}
		// b is a's first neighbour, as a level-0 segment of G.
		first := g.SegKey(1, ca.Lo)
		bs := sort.Search(g.NumSegs(0), func(s int) bool { return g.SegKey(0, s) >= first })
		if bs == g.NumSegs(0) || g.SegKey(0, bs) != first {
			continue
		}
		levels["clique"] = append(levels["clique"], []LevelRange{ca, children(g, bs), whole(g)})
	}
	for _, shape := range []string{"child-level0", "child-child", "clique"} {
		ops := levels[shape]
		var vals []relation.Value
		var at []int
		scratch := make([]int, 3)
		n := 0
		for _, entry := range []struct {
			name string
			run  func(rs []LevelRange)
		}{
			{"at", func(rs []LevelRange) { vals, at = IntersectLevelsAt(vals[:0], at[:0], rs); n += len(vals) }},
			{"count", func(rs []LevelRange) { n += IntersectLevelsCount(rs, math.MaxInt) }},
			{"stream", func(rs []LevelRange) {
				StreamLevels(rs, scratch, func(relation.Value, []int) bool { n++; return false })
			}},
		} {
			b.Run(shape+"/"+entry.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, rs := range ops {
						entry.run(rs)
					}
				}
			})
		}
		_ = n
	}
}
