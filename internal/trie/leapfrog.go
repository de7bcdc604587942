package trie

// The multiway level-intersection kernels: materializing
// (IntersectLevels, and IntersectLevelsAt, which also reports where
// every value matched), counting up to a cap (IntersectLevelsCount,
// which with cap 1 is the existence check) and streaming
// (LeapfrogLevels). The search calls one of them per level, and per
// value it then pays only its share of that one intersection — the
// primitive Algorithm 1 and Generic-Join assume. So no entry allocates on the same-width path: the span cursors
// live in a fixed stack buffer, and values and positions go to the
// caller's buffers, which grow at most once per call, to the smallest
// range's size. The positions mean a caller never searches again for a
// value the kernel has already matched. Only the mixed-width widening
// copy allocates per call.

import (
	"slices"

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
// from: leapfrogUntil reorders spans, and positions are reported per
// range.
type span[K key] struct {
	keys []K
	lo   int
	hi   int
	id   int
}

// stackSpans is how many span cursors an entry keeps in its stack
// buffer. A level's participants are the atoms that share one variable,
// single digits in practice; a wider level spills its cursors to one
// heap allocation.
const stackSpans = 8

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

// toSpans64 rewraps the loaned Keys arenas as intersection cursors,
// appending them to the caller's (stack) buffer.
//
//wcojlint:retains spans are cursors consumed within the same intersection call, under one snapshot
func toSpans64(buf []span[relation.Value], ranges []LevelRange) []span[relation.Value] {
	for i, r := range ranges {
		buf = append(buf, span[relation.Value]{keys: r.Keys, lo: r.Lo, hi: r.Hi, id: i})
	}
	return buf
}

// toSpans32 rewraps the loaned Keys32 arenas as intersection cursors,
// appending them to the caller's (stack) buffer.
//
//wcojlint:retains spans are cursors consumed within the same intersection call, under one snapshot
func toSpans32(buf []span[uint32], ranges []LevelRange) []span[uint32] {
	for i, r := range ranges {
		buf = append(buf, span[uint32]{keys: r.Keys32, lo: r.Lo, hi: r.Hi, id: i})
	}
	return buf
}

// anyEmpty reports whether some range has no keys, which empties the
// intersection.
func anyEmpty(ranges []LevelRange) bool {
	for i := range ranges {
		if ranges[i].Lo >= ranges[i].Hi {
			return true
		}
	}
	return false
}

// IntersectLevels computes the sorted values common to all level
// ranges, appending to dst. Keys are duplicate-free, so the k = 1 case
// is a bulk copy, k = 2 picks linear merge or galloping by size skew
// (gallopRatio), and k >= 3 runs the leapfrog search with galloping
// seeks. Per emitted or skipped value the cost is O(k log N), so the
// total is proportional (up to logs) to the smallest range — the
// intersection primitive Algorithm 1 and Generic-Join assume.
func IntersectLevels(dst []relation.Value, ranges []LevelRange) []relation.Value {
	dst, _ = intersectLevels(dst, nil, false, ranges)
	return dst
}

// IntersectLevelsAt is IntersectLevels that also reports where each
// value matched: for every value appended to dst, len(ranges) entries
// are appended to at, the value's index in each range's key array in
// range order — the positions LeapfrogLevels hands its emit. A caller
// that binds the values takes their segments from at instead of
// searching for them again.
func IntersectLevelsAt(dst []relation.Value, at []int, ranges []LevelRange) ([]relation.Value, []int) {
	return intersectLevels(dst, at, true, ranges)
}

// intersectLevels is the materializing entry; pos selects whether the
// match positions are appended to at.
func intersectLevels(dst []relation.Value, at []int, pos bool, ranges []LevelRange) ([]relation.Value, []int) {
	if len(ranges) == 0 || anyEmpty(ranges) {
		return dst, at
	}
	if mixedWidth(ranges) {
		wide := widenRanges(ranges)
		n := len(at)
		dst, at = intersectLevels(dst, at, pos, wide)
		// Widened copies start at 0: shift their positions back.
		for i := n; i < len(at); i += len(ranges) {
			for j := range ranges {
				at[i+j] += ranges[j].Lo - wide[j].Lo
			}
		}
		return dst, at
	}
	// The smallest range bounds the output: a caller's buffer grows to
	// that once instead of doubling its way there.
	bound := ranges[smallestRange(ranges)].Size()
	dst = slices.Grow(dst, bound)
	if pos {
		at = slices.Grow(at, bound*len(ranges))
	}
	if ranges[0].Keys32 != nil {
		var buf [stackSpans]span[uint32]
		return intersectSpans(dst, at, pos, toSpans32(buf[:0], ranges))
	}
	var buf [stackSpans]span[relation.Value]
	return intersectSpans(dst, at, pos, toSpans64(buf[:0], ranges))
}

// IntersectLevelsCount returns min(|∩ ranges|, cap) without
// materializing the intersection — the tail level of a counting run
// needs only the cardinality, and an existence check (cap 1) only the
// first common value, so every strategy stops once it has counted cap
// values; cap must be at least 1. Same strategy selection, same cost
// bound as IntersectLevels.
func IntersectLevelsCount(ranges []LevelRange, cap int) int {
	if len(ranges) == 0 || anyEmpty(ranges) {
		return 0
	}
	if mixedWidth(ranges) {
		return IntersectLevelsCount(widenRanges(ranges), cap)
	}
	if ranges[0].Keys32 != nil {
		var buf [stackSpans]span[uint32]
		return countSpans(toSpans32(buf[:0], ranges), cap)
	}
	var buf [stackSpans]span[relation.Value]
	return countSpans(toSpans64(buf[:0], ranges), cap)
}

// LeapfrogLevels streams the values common to all level ranges to emit
// in ascending order without materializing them — the level strategy of
// Leapfrog Triejoin. Every arity, k = 1 and 2 included, runs the
// leapfrog search. Alongside each value emit receives at, where at[i]
// is the value's index in ranges[i]'s key array: the cursors already
// sit on it, so the caller need not search for it again. at is the
// caller's scratch, overwritten before every emit (it is allocated only
// when it has room for fewer than len(ranges) positions); emit returns
// true to stop the level early.
func LeapfrogLevels(ranges []LevelRange, at []int, emit func(v relation.Value, at []int) bool) {
	if len(ranges) == 0 || anyEmpty(ranges) {
		return
	}
	if cap(at) < len(ranges) {
		at = make([]int, len(ranges))
	}
	at = at[:len(ranges)]
	if mixedWidth(ranges) {
		wide := widenRanges(ranges)
		// Widened copies start at 0: shift their positions back.
		shift := make([]int, len(ranges))
		for j := range ranges {
			shift[j] = ranges[j].Lo - wide[j].Lo
		}
		LeapfrogLevels(wide, at, func(v relation.Value, at []int) bool {
			for j := range at {
				at[j] += shift[j]
			}
			return emit(v, at)
		})
		return
	}
	if ranges[0].Keys32 != nil {
		var buf [stackSpans]span[uint32]
		streamSpans(toSpans32(buf[:0], ranges), at, emit)
		return
	}
	var buf [stackSpans]span[relation.Value]
	streamSpans(toSpans64(buf[:0], ranges), at, emit)
}

// streamSpans runs the leapfrog search, translating each match to the
// per-range positions LeapfrogLevels reports.
func streamSpans[K key](spans []span[K], at []int, emit func(relation.Value, []int) bool) {
	leapfrogUntil(spans, func(v K) bool {
		for _, s := range spans {
			at[s.id] = s.lo
		}
		return emit(relation.Value(v), at)
	})
}

// intersectSpans materializes the intersection, appending with pos the
// positions of each value in range order; all spans are non-empty.
func intersectSpans[K key](dst []relation.Value, at []int, pos bool, spans []span[K]) ([]relation.Value, []int) {
	switch len(spans) {
	case 1:
		s := spans[0]
		for i := s.lo; i < s.hi; i++ {
			dst = append(dst, relation.Value(s.keys[i]))
			if pos {
				at = append(at, i)
			}
		}
		return dst, at
	case 2:
		a, b := spans[0], spans[1]
		if a.hi-a.lo > b.hi-b.lo {
			a, b = b, a
		}
		n := len(at)
		if (b.hi - b.lo) >= gallopRatio*(a.hi-a.lo) {
			// Gallop the small side through the large one.
			j := b.lo
			for i := a.lo; i < a.hi; i++ {
				v := a.keys[i]
				if j = gallopLB(b.keys, j, b.hi, v); j >= b.hi {
					break
				}
				if b.keys[j] == v {
					dst = append(dst, relation.Value(v))
					if pos {
						at = append(at, i, j)
					}
					j++
				}
			}
		} else {
			// Linear merge of comparable sizes.
			i, j := a.lo, b.lo
			for i < a.hi && j < b.hi {
				av, bv := a.keys[i], b.keys[j]
				switch {
				case av == bv:
					dst = append(dst, relation.Value(av))
					if pos {
						at = append(at, i, j)
					}
					i++
					j++
				case av < bv:
					i++
				default:
					j++
				}
			}
		}
		if a.id != 0 {
			// The pairs went in smaller range first; restore range order.
			for p := n; p < len(at); p += 2 {
				at[p], at[p+1] = at[p+1], at[p]
			}
		}
		return dst, at
	}
	leapfrogUntil(spans, func(v K) bool {
		dst = append(dst, relation.Value(v))
		if pos {
			n := len(at)
			at = slices.Grow(at, len(spans))[:n+len(spans)]
			for _, s := range spans {
				at[n+s.id] = s.lo
			}
		}
		return false
	})
	return dst, at
}

// countSpans is the counting twin of intersectSpans: it stops at the
// cap-th common value.
func countSpans[K key](spans []span[K], cap int) int {
	switch len(spans) {
	case 1:
		return min(spans[0].hi-spans[0].lo, cap)
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
					if n++; n == cap {
						return n
					}
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
				if n++; n == cap {
					return n
				}
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
		return n == cap
	})
	return n
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

// smallestRange returns the index of the range with the fewest keys,
// which bounds the size of their intersection.
func smallestRange(ranges []LevelRange) int {
	best, arg := -1, -1
	for i, r := range ranges {
		if s := r.Size(); best < 0 || s < best {
			best, arg = s, i
		}
	}
	return arg
}
