package trie

import (
	"fmt"
	"math"
	"testing"

	"wcoj/internal/relation"
)

// TestKernelAllocs: on same-width input every kernel entry allocates
// nothing once the caller's buffers are warm — the span cursors live on
// the stack and values and positions go to the caller's buffers. It
// covers k = 1, k = 2 through the merge and through the gallop, and
// k = 3, over the level-0 keys of narrowed and wide tries.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// keyTrie builds a one-attribute trie over n multiples of step,
	// shifted past uint32 for the wide variant.
	keyTrie := func(n, step int, wide bool) LevelRange {
		b := relation.NewBuilder("R", "A")
		for i := 0; i < n; i++ {
			v := relation.Value(i * step)
			if wide {
				v += 1 << 33
			}
			if err := b.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := Build(b.Build(), []string{"A"})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Narrowed() == wide {
			t.Fatalf("trie narrowed = %v, want %v", tr.Narrowed(), !wide)
		}
		return tr.SegLevel(0, 0, tr.NumSegs(0))
	}
	for _, wide := range []bool{false, true} {
		big, mid, small := keyTrie(4000, 2, wide), keyTrie(3000, 3, wide), keyTrie(64, 7, wide)
		for _, c := range []struct {
			name   string
			ranges []LevelRange
		}{
			{"k=1", []LevelRange{big}},
			{"k=2/merge", []LevelRange{big, mid}},
			{"k=2/gallop", []LevelRange{small, big}},
			{"k=3", []LevelRange{big, mid, small}},
		} {
			t.Run(fmt.Sprintf("wide=%v/%s", wide, c.name), func(t *testing.T) {
				ranges := c.ranges
				dst := IntersectLevels(nil, ranges)
				vals, at := IntersectLevelsAt(nil, nil, ranges)
				if len(dst) == 0 || len(vals) != len(dst) {
					t.Fatalf("%d values, %d with positions: the case must intersect", len(dst), len(vals))
				}
				scratch := make([]int, len(ranges))
				n := 0
				for name, f := range map[string]func(){
					"IntersectLevels":             func() { dst = IntersectLevels(dst[:0], ranges) },
					"IntersectLevelsAt":           func() { vals, at = IntersectLevelsAt(vals[:0], at[:0], ranges) },
					"IntersectLevelsCount":        func() { n += IntersectLevelsCount(ranges, math.MaxInt) },
					"IntersectLevelsCount(cap 1)": func() { n += IntersectLevelsCount(ranges, 1) },
					"LeapfrogLevels": func() {
						LeapfrogLevels(ranges, scratch, func(relation.Value, []int) bool { n++; return false })
					},
				} {
					if a := testing.AllocsPerRun(20, f); a != 0 {
						t.Errorf("%s: %v allocations per call, want 0", name, a)
					}
				}
			})
		}
	}
}
