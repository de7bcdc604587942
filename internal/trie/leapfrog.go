package trie

import (
	"wcoj/internal/relation"
)

// LevelRange is one participant in a multiway sorted intersection: a
// dense, strictly increasing, duplicate-free key array restricted to
// segments [Lo,Hi) — one trie level's segment keys within a parent's
// children span (see Trie.SegLevel). Exactly one of Keys and Keys32 is
// non-nil: wide tries expose Keys, uint32-narrowed tries Keys32.
type LevelRange struct {
	Keys   []relation.Value
	Keys32 []uint32
	Lo     int
	Hi     int
}

// Size returns the number of keys in the range.
func (lr LevelRange) Size() int { return lr.Hi - lr.Lo }

// key is the element type the intersection kernels are generic over:
// wide (int64) trie keys or uint32-narrowed ones.
type key interface {
	~int64 | ~uint32
}

// span is a kernel-internal cursor over one key range; the kernels
// advance lo in place. id is the index of the range the span was made
// from: leapfrogUntil reorders spans, and LeapfrogLevels reports
// positions per range.
type span[K key] struct {
	keys []K
	lo   int
	hi   int
	id   int
}

// gallopRatio is the size skew at which a binary intersection switches
// from the linear merge to galloping the small side through the large
// one: with |small|*gallopRatio <= |large| the O(|small| log |large|)
// gallop beats the O(|small|+|large|) merge by enough to pay for its
// worse constant factor.
const gallopRatio = 8

// gallopLB returns the first index i in [lo,hi) with keys[i] >= v by
// exponential probing from lo followed by a binary search over the
// final block — O(1 + log jump) instead of O(log (hi-lo)), which is
// what makes forward-moving cursors (leapfrog seeks, narrowing sweeps)
// amortized cheap.
func gallopLB[K key](keys []K, lo, hi int, v K) int {
	if lo >= hi || keys[lo] >= v {
		return lo
	}
	// Invariant: keys[i] < v.
	i, step := lo, 1
	for i+step < hi && keys[i+step] < v {
		i += step
		step <<= 1
	}
	j := i + step
	if j > hi {
		j = hi
	}
	lo, hi = i+1, j
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// mixedWidth reports whether ranges mixes narrowed and wide key
// arrays (possible when one query joins narrowed and wide relations).
func mixedWidth(ranges []LevelRange) bool {
	narrow := ranges[0].Keys32 != nil
	for _, r := range ranges[1:] {
		if (r.Keys32 != nil) != narrow {
			return true
		}
	}
	return false
}

// widenRanges converts every narrowed range to a wide copy — the
// correctness-first slow path for mixed-width intersections. Already
// wide ranges pass through with their arena-loaned Keys intact.
//
//wcojlint:retains passthrough loans are consumed by the same intersection call, under one snapshot
func widenRanges(ranges []LevelRange) []LevelRange {
	out := make([]LevelRange, len(ranges))
	for i, r := range ranges {
		if r.Keys32 == nil {
			out[i] = r
			continue
		}
		w := make([]relation.Value, r.Hi-r.Lo)
		for j := range w {
			w[j] = relation.Value(r.Keys32[r.Lo+j])
		}
		out[i] = LevelRange{Keys: w, Lo: 0, Hi: len(w)}
	}
	return out
}

// toSpans64 rewraps the loaned Keys arenas as intersection cursors.
//
//wcojlint:retains spans are cursors consumed within the same intersection call, under one snapshot
func toSpans64(ranges []LevelRange) []span[relation.Value] {
	spans := make([]span[relation.Value], len(ranges))
	for i, r := range ranges {
		spans[i] = span[relation.Value]{keys: r.Keys, lo: r.Lo, hi: r.Hi, id: i}
	}
	return spans
}

// toSpans32 rewraps the loaned Keys32 arenas as intersection cursors.
//
//wcojlint:retains spans are cursors consumed within the same intersection call, under one snapshot
func toSpans32(ranges []LevelRange) []span[uint32] {
	spans := make([]span[uint32], len(ranges))
	for i, r := range ranges {
		spans[i] = span[uint32]{keys: r.Keys32, lo: r.Lo, hi: r.Hi, id: i}
	}
	return spans
}

// IntersectLevels computes the sorted values common to all level
// ranges, appending to dst. Keys are duplicate-free, so the k = 1 case
// is a bulk copy, k = 2 picks linear merge or galloping by size skew
// (gallopRatio), and k >= 3 runs the leapfrog search with galloping
// seeks. Per emitted or skipped value the cost is O(k log N), so the
// total is proportional (up to logs) to the smallest range — the
// intersection primitive Algorithm 1 and Generic-Join assume.
func IntersectLevels(dst []relation.Value, ranges []LevelRange) []relation.Value {
	k := len(ranges)
	if k == 0 {
		return dst
	}
	for i := range ranges {
		if ranges[i].Lo >= ranges[i].Hi {
			return dst
		}
	}
	if mixedWidth(ranges) {
		return IntersectLevels(dst, widenRanges(ranges))
	}
	if ranges[0].Keys32 != nil {
		return intersectSpans(dst, toSpans32(ranges))
	}
	return intersectSpans(dst, toSpans64(ranges))
}

// IntersectLevelsCount returns the size of the multiway intersection
// without materializing its values — the tail level of a counting run
// needs only the cardinality, so the append traffic of IntersectLevels
// is pure waste there. Same strategy selection, same cost bound.
func IntersectLevelsCount(ranges []LevelRange) int {
	k := len(ranges)
	if k == 0 {
		return 0
	}
	for i := range ranges {
		if ranges[i].Lo >= ranges[i].Hi {
			return 0
		}
	}
	if mixedWidth(ranges) {
		return IntersectLevelsCount(widenRanges(ranges))
	}
	if ranges[0].Keys32 != nil {
		return countSpans(toSpans32(ranges))
	}
	return countSpans(toSpans64(ranges))
}

// IntersectLevelsAny reports whether the multiway intersection is
// non-empty, stopping at the first common value — the tail level of an
// existence check.
func IntersectLevelsAny(ranges []LevelRange) bool {
	k := len(ranges)
	if k == 0 {
		return false
	}
	for i := range ranges {
		if ranges[i].Lo >= ranges[i].Hi {
			return false
		}
	}
	if k == 1 {
		return true
	}
	if mixedWidth(ranges) {
		return IntersectLevelsAny(widenRanges(ranges))
	}
	if ranges[0].Keys32 != nil {
		return anySpans(toSpans32(ranges))
	}
	return anySpans(toSpans64(ranges))
}

// LeapfrogLevels streams the values common to all level ranges to emit
// in ascending order without materializing them — the level strategy of
// Leapfrog Triejoin. Every arity, k = 1 and 2 included, runs the
// leapfrog search. Alongside each value emit receives at, where at[i]
// is the value's index in ranges[i]'s key array: the cursors already
// sit on it, so the caller need not search for it again. at is reused
// between calls; emit returns true to stop the level early.
func LeapfrogLevels(ranges []LevelRange, emit func(v relation.Value, at []int) bool) {
	if len(ranges) == 0 {
		return
	}
	for i := range ranges {
		if ranges[i].Lo >= ranges[i].Hi {
			return
		}
	}
	// Widened copies start at 0: shift maps their positions back.
	k := len(ranges)
	buf := make([]int, 2*k)
	shift, at := buf[:k], buf[k:]
	if mixedWidth(ranges) {
		wide := widenRanges(ranges)
		for i := range ranges {
			shift[i] = ranges[i].Lo - wide[i].Lo
		}
		ranges = wide
	}
	if ranges[0].Keys32 != nil {
		streamSpans(toSpans32(ranges), shift, at, emit)
		return
	}
	streamSpans(toSpans64(ranges), shift, at, emit)
}

// streamSpans runs the leapfrog search, translating each match to the
// per-range positions LeapfrogLevels reports.
func streamSpans[K key](spans []span[K], shift, at []int, emit func(relation.Value, []int) bool) {
	leapfrogUntil(spans, func(v K) bool {
		for _, s := range spans {
			at[s.id] = s.lo + shift[s.id]
		}
		return emit(relation.Value(v), at)
	})
}

// intersectSpans materializes the intersection; all spans are
// non-empty.
func intersectSpans[K key](dst []relation.Value, spans []span[K]) []relation.Value {
	switch len(spans) {
	case 1:
		s := spans[0]
		for i := s.lo; i < s.hi; i++ {
			dst = append(dst, relation.Value(s.keys[i]))
		}
		return dst
	case 2:
		a, b := spans[0], spans[1]
		if a.hi-a.lo > b.hi-b.lo {
			a, b = b, a
		}
		if (b.hi - b.lo) >= gallopRatio*(a.hi-a.lo) {
			// Gallop the small side through the large one.
			j := b.lo
			for i := a.lo; i < a.hi; i++ {
				v := a.keys[i]
				j = gallopLB(b.keys, j, b.hi, v)
				if j >= b.hi {
					return dst
				}
				if b.keys[j] == v {
					dst = append(dst, relation.Value(v))
					j++
				}
			}
			return dst
		}
		// Linear merge of comparable sizes.
		i, j := a.lo, b.lo
		for i < a.hi && j < b.hi {
			av, bv := a.keys[i], b.keys[j]
			switch {
			case av == bv:
				dst = append(dst, relation.Value(av))
				i++
				j++
			case av < bv:
				i++
			default:
				j++
			}
		}
		return dst
	}
	leapfrogUntil(spans, func(v K) bool {
		dst = append(dst, relation.Value(v))
		return false
	})
	return dst
}

// countSpans is the counting twin of intersectSpans.
func countSpans[K key](spans []span[K]) int {
	switch len(spans) {
	case 1:
		return spans[0].hi - spans[0].lo
	case 2:
		a, b := spans[0], spans[1]
		if a.hi-a.lo > b.hi-b.lo {
			a, b = b, a
		}
		n := 0
		if (b.hi - b.lo) >= gallopRatio*(a.hi-a.lo) {
			j := b.lo
			for i := a.lo; i < a.hi; i++ {
				v := a.keys[i]
				j = gallopLB(b.keys, j, b.hi, v)
				if j >= b.hi {
					return n
				}
				if b.keys[j] == v {
					n++
					j++
				}
			}
			return n
		}
		i, j := a.lo, b.lo
		for i < a.hi && j < b.hi {
			av, bv := a.keys[i], b.keys[j]
			switch {
			case av == bv:
				n++
				i++
				j++
			case av < bv:
				i++
			default:
				j++
			}
		}
		return n
	}
	n := 0
	leapfrogUntil(spans, func(K) bool {
		n++
		return false
	})
	return n
}

// anySpans short-circuits on the first common value; spans are
// non-empty and len(spans) >= 2.
func anySpans[K key](spans []span[K]) bool {
	found := false
	leapfrogUntil(spans, func(K) bool {
		found = true
		return true
	})
	return found
}

// leapfrogUntil is Veldhuizen's leapfrog search over the spans,
// calling emit for every common key; cursors advance in place with
// galloping seeks, so the cost per emitted or skipped key is
// O(k + log jump). Spans must be non-empty. emit returns true to stop
// early (EXISTS). The classic invariant: cursors are kept sorted by
// current key starting from p; when the smallest equals the largest
// all k agree.
func leapfrogUntil[K key](spans []span[K], emit func(K) bool) {
	k := len(spans)
	// Insertion sort by current key (k is the number of atoms on this
	// level — single digits).
	for i := 1; i < k; i++ {
		for j := i; j > 0 && spans[j].keys[spans[j].lo] < spans[j-1].keys[spans[j-1].lo]; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	p := 0
	max := spans[k-1].keys[spans[k-1].lo]
	for {
		s := &spans[p]
		x := s.keys[s.lo]
		if x == max {
			// All cursors agree on x.
			if emit(x) {
				return
			}
			s.lo++
			if s.lo >= s.hi {
				return
			}
			max = s.keys[s.lo]
		} else {
			s.lo = gallopLB(s.keys, s.lo, s.hi, max)
			if s.lo >= s.hi {
				return
			}
			max = s.keys[s.lo]
		}
		p++
		if p == k {
			p = 0
		}
	}
}

// SmallestRange returns the index of the range with the fewest keys,
// used by variable-ordering heuristics.
func SmallestRange(ranges []LevelRange) int {
	best, arg := -1, -1
	for i, r := range ranges {
		if s := r.Size(); best < 0 || s < best {
			best, arg = s, i
		}
	}
	return arg
}

// DistinctCount returns the number of distinct values in a raw column
// range (by group-skipping, O(d log N) for d distinct values). Compat
// helper over row-addressed columns; trie levels answer this in O(1)
// via NumSegs/Children.
func DistinctCount(col []relation.Value, lo, hi int) int {
	n := 0
	i := lo
	for i < hi {
		i = upperBound(col, i, hi, col[i])
		n++
	}
	return n
}

// Distinct appends the distinct values of a raw column range to dst.
func Distinct(dst []relation.Value, col []relation.Value, lo, hi int) []relation.Value {
	i := lo
	for i < hi {
		v := col[i]
		dst = append(dst, v)
		i = upperBound(col, i, hi, v)
	}
	return dst
}
