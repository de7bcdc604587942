package trie

import (
	"fmt"
	"math"
	"testing"

	"wcoj/internal/relation"
)

// TestKernelAllocs: on same-width input every kernel entry allocates
// nothing once the caller's buffers are warm — k <= 2 reads the ranges
// in place, k >= 3 keeps its cursors on the stack, and values and
// positions go to the caller's buffers. It covers k = 1, k = 2 through
// the merge, the gallop and (narrowed) every dense branch — the probe
// into a dense set from a smaller or a larger sparse side, and the AND
// of two dense sets — and k = 3 smallest-pair-first over sparse
// windows and (narrowed) over dense whole levels, all ANDed or with a
// sparse range probed, over the level-0 keys of narrowed and wide
// tries. Each k = 2 row asserts that its inputs take the branch its
// name states.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// keyTrie builds a one-attribute trie over n multiples of step,
	// shifted past uint32 for the wide variant. Its keys are dense, so
	// a narrowed trie stores its level 0 as a bitset.
	keyTrie := func(n, step int, wide bool) *Trie {
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
		return tr
	}
	// whole is the trie's level 0 as the search sees it at an atom's
	// first variable (dense when the trie has a bitset for it); inner
	// drops the first key, so the window is never dense.
	whole := func(tr *Trie) LevelRange { return tr.SegLevel(0, 0, tr.NumSegs(0)) }
	inner := func(tr *Trie) LevelRange { return tr.SegLevel(0, 1, tr.NumSegs(0)) }
	for _, wide := range []bool{false, true} {
		big, mid, small := keyTrie(4000, 2, wide), keyTrie(3000, 3, wide), keyTrie(64, 7, wide)
		type row struct {
			name   string
			branch string // the k = 2 branch: merge, gallop, ranked or and
			ranges []LevelRange
		}
		rows := []row{
			{"k=1", "", []LevelRange{whole(big)}},
			{"k=2/merge", "merge", []LevelRange{inner(big), inner(mid)}},
			{"k=2/gallop", "gallop", []LevelRange{inner(small), inner(big)}},
			{"k=3", "", []LevelRange{inner(big), inner(mid), inner(small)}},
		}
		if !wide {
			rows = append(rows,
				row{"k=2/ranked", "ranked", []LevelRange{inner(mid), whole(big)}},
				row{"k=2/ranked-skewed", "ranked", []LevelRange{inner(small), whole(big)}},
				row{"k=2/ranked-dense-smaller", "ranked", []LevelRange{whole(mid), inner(big)}},
				row{"k=2/and", "and", []LevelRange{whole(big), whole(mid)}},
				row{"k=3/ranked", "", []LevelRange{whole(big), whole(mid), whole(small)}},
				row{"k=3/and-probe", "", []LevelRange{whole(mid), whole(small), inner(big)}},
			)
		}
		for _, c := range rows {
			t.Run(fmt.Sprintf("wide=%v/%s", wide, c.name), func(t *testing.T) {
				ranges := c.ranges
				if c.branch != "" {
					if got := pairBranch(ranges[0], ranges[1]); got != c.branch {
						t.Fatalf("inputs take the %s branch", got)
					}
				}
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
					"StreamLevels": func() {
						StreamLevels(ranges, scratch, func(relation.Value, []int) bool { n++; return false })
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

// pairBranch names the branch the two-way kernels take on a and b:
// "and" when both are dense, "ranked" when they probe a dense set,
// "gallop" when they probe a sparse one gallopRatio times larger,
// "merge" otherwise.
func pairBranch(a, b LevelRange) string {
	if a.Keys32 != nil {
		return branchName(span32(&a, 0), span32(&b, 1))
	}
	return branchName(span64(&a, 0), span64(&b, 1))
}

func branchName[K key](a, b span[K]) string {
	_, probed, br := pairOf(&a, &b)
	switch {
	case br == andBranch:
		return "and"
	case br == mergeBranch:
		return "merge"
	case probed.dense():
		return "ranked"
	}
	return "gallop"
}
