package trie

// The multiway level-intersection kernels: materializing
// (IntersectLevels, and IntersectLevelsAt, which also reports where
// every value matched), counting up to a cap (IntersectLevelsCount,
// which with cap 1 is the existence check) and streaming
// (StreamLevels). The search calls one of them per level, and per
// value it then pays only its share of that one intersection — the
// primitive Algorithm 1 and Generic-Join assume. Every seek goes
// through seek: O(1) into the whole of a ranked level 0, a gallop
// otherwise. No entry allocates on the same-width path: k <= 2 reads
// the caller's ranges in place, k >= 3 keeps its cursors in a fixed
// stack buffer, and values and positions go to the caller's buffers,
// which grow at most once per call, to the smallest range's size. The
// positions mean a caller never searches again for a value the kernel
// has already matched. Only the mixed-width widening copy allocates
// per call.

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
	// rank is the trie's level-0 rank array when the range is the whole
	// of a ranked level 0 (Trie.SegLevel attaches it), nil otherwise:
	// rank[v] is the index of the first key >= v, for v up to the
	// largest key.
	rank []int32
}

// Size returns the number of keys in the range.
func (lr LevelRange) Size() int { return lr.Hi - lr.Lo }

// key is the element type the intersection kernels are generic over:
// wide (int64) trie keys or uint32-narrowed ones.
type key interface {
	~int64 | ~uint32
}

// span is a kernel-internal cursor over one key range; the kernels
// advance lo in place. rank is the range's rank array, if any. id is
// the index of the range the span was made from: the kernels reorder
// spans, and positions are reported per range.
type span[K key] struct {
	keys []K
	rank []int32
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
// what makes forward-moving cursors (probes, narrowing sweeps)
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

// seek returns the first index i in [lo,hi) with keys[i] >= v, or hi
// if there is none. Seeks only move forward: every key before lo is
// below v. A ranked range is the whole of level 0, so for any v up to
// its largest key the answer is one read of the rank array; every
// other seek gallops from lo (a nil rank has no entries). Every kernel
// seeks through here.
func seek[K key](keys []K, rank []int32, lo, hi int, v K) int {
	if uint(v) < uint(len(rank)) {
		return int(rank[v])
	}
	return gallopLB(keys, lo, hi, v)
}

// mixedWidth reports whether ranges mixes narrowed and wide key
// arrays (possible when one query joins narrowed and wide relations).
func mixedWidth(ranges []LevelRange) bool {
	narrow := ranges[0].Keys32 != nil
	for i := 1; i < len(ranges); i++ {
		if (ranges[i].Keys32 != nil) != narrow {
			return true
		}
	}
	return false
}

// widenRanges converts every narrowed range to a wide copy — the
// correctness-first slow path for mixed-width intersections. Already
// wide ranges pass through with their arena-loaned Keys intact.
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

// span32 wraps a narrowed range as an intersection cursor, carrying
// its rank array if it has one.
func span32(r *LevelRange, id int) span[uint32] {
	return span[uint32]{keys: r.Keys32, rank: r.rank, lo: r.Lo, hi: r.Hi, id: id}
}

// span64 wraps a wide range as an intersection cursor; wide ranges are
// never ranked.
func span64(r *LevelRange, id int) span[relation.Value] {
	return span[relation.Value]{keys: r.Keys, lo: r.Lo, hi: r.Hi, id: id}
}

// toSpans32 wraps every narrowed range as a cursor, appending to the
// caller's (stack) buffer.
func toSpans32(buf []span[uint32], ranges []LevelRange) []span[uint32] {
	for i := range ranges {
		buf = append(buf, span32(&ranges[i], i))
	}
	return buf
}

// toSpans64 wraps every wide range as a cursor, appending to the
// caller's (stack) buffer.
func toSpans64(buf []span[relation.Value], ranges []LevelRange) []span[relation.Value] {
	for i := range ranges {
		buf = append(buf, span64(&ranges[i], i))
	}
	return buf
}

// bySize orders the cursors by size, smallest first (k is the number
// of atoms on the level — single digits).
func bySize[K key](spans []span[K]) []span[K] {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].hi-spans[j].lo < spans[j-1].hi-spans[j-1].lo; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	return spans
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
// is a bulk copy. k = 2 probes the larger range from every key of the
// smaller one when the larger is ranked or gallopRatio times larger,
// and merges linearly otherwise. k >= 3 intersects the two smallest
// ranges that way and probes each common key in the others, smallest
// first. Per key of the smallest range the cost is O(k log N), so the
// total is proportional (up to logs) to the smallest range — the
// intersection primitive Algorithm 1 and Generic-Join assume.
func IntersectLevels(dst []relation.Value, ranges []LevelRange) []relation.Value {
	dst, _ = intersectLevels(dst, nil, false, ranges)
	return dst
}

// IntersectLevelsAt is IntersectLevels that also reports where each
// value matched: for every value appended to dst, len(ranges) entries
// are appended to at, the value's index in each range's key array in
// range order — the positions StreamLevels hands its emit. A caller
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
	small := &ranges[smallestRange(ranges)]
	bound := small.Hi - small.Lo
	dst = slices.Grow(dst, bound)
	if pos {
		at = slices.Grow(at, bound*len(ranges))
	}
	// k <= 2 reads the ranges in place; only k >= 3 fills a cursor
	// buffer, ordered smallest first.
	if ranges[0].Keys32 != nil {
		a := span32(&ranges[0], 0)
		switch len(ranges) {
		case 1:
			return appendSpan(dst, at, pos, &a)
		case 2:
			b := span32(&ranges[1], 1)
			return intersectPair(dst, at, pos, &a, &b, nil, nil)
		}
		var buf [stackSpans]span[uint32]
		spans := bySize(toSpans32(buf[:0], ranges))
		return intersectPair(dst, at, pos, &spans[0], &spans[1], spans[2:], nil)
	}
	a := span64(&ranges[0], 0)
	switch len(ranges) {
	case 1:
		return appendSpan(dst, at, pos, &a)
	case 2:
		b := span64(&ranges[1], 1)
		return intersectPair(dst, at, pos, &a, &b, nil, nil)
	}
	var buf [stackSpans]span[relation.Value]
	spans := bySize(toSpans64(buf[:0], ranges))
	return intersectPair(dst, at, pos, &spans[0], &spans[1], spans[2:], nil)
}

// appendSpan is the k = 1 materializer: every key of s, in order.
func appendSpan[K key](dst []relation.Value, at []int, pos bool, s *span[K]) ([]relation.Value, []int) {
	for i := s.lo; i < s.hi; i++ {
		dst = append(dst, relation.Value(s.keys[i]))
		if pos {
			at = append(at, i)
		}
	}
	return dst, at
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
	if len(ranges) == 1 {
		return min(ranges[0].Hi-ranges[0].Lo, cap)
	}
	if ranges[0].Keys32 != nil {
		if len(ranges) == 2 {
			a, b := span32(&ranges[0], 0), span32(&ranges[1], 1)
			return countPair(&a, &b, nil, cap)
		}
		var buf [stackSpans]span[uint32]
		spans := bySize(toSpans32(buf[:0], ranges))
		return countPair(&spans[0], &spans[1], spans[2:], cap)
	}
	if len(ranges) == 2 {
		a, b := span64(&ranges[0], 0), span64(&ranges[1], 1)
		return countPair(&a, &b, nil, cap)
	}
	var buf [stackSpans]span[relation.Value]
	spans := bySize(toSpans64(buf[:0], ranges))
	return countPair(&spans[0], &spans[1], spans[2:], cap)
}

// StreamLevels streams the values common to all level ranges to emit
// in ascending order without materializing them — the streamed level
// strategy. It runs IntersectLevels' loop (the two smallest ranges
// probed or merged, the rest probed per common key) and hands each
// match to emit as the loop finds it, so a level that stops early pays
// only for the keys before its stop. Alongside each value emit receives
// at, where at[i] is the value's index in ranges[i]'s key array: the
// caller need not search for it again. at is the caller's scratch,
// overwritten before every emit (it is allocated only when it has room
// for fewer than len(ranges) positions); emit returns true to stop the
// level early.
func StreamLevels(ranges []LevelRange, at []int, emit func(v relation.Value, at []int) bool) {
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
		StreamLevels(wide, at, func(v relation.Value, at []int) bool {
			for j := range at {
				at[j] += shift[j]
			}
			return emit(v, at)
		})
		return
	}
	if ranges[0].Keys32 != nil {
		a := span32(&ranges[0], 0)
		switch len(ranges) {
		case 1:
			streamSpan(&a, at, emit)
		case 2:
			b := span32(&ranges[1], 1)
			intersectPair(nil, at, false, &a, &b, nil, emit)
		default:
			var buf [stackSpans]span[uint32]
			spans := bySize(toSpans32(buf[:0], ranges))
			intersectPair(nil, at, false, &spans[0], &spans[1], spans[2:], emit)
		}
		return
	}
	a := span64(&ranges[0], 0)
	switch len(ranges) {
	case 1:
		streamSpan(&a, at, emit)
	case 2:
		b := span64(&ranges[1], 1)
		intersectPair(nil, at, false, &a, &b, nil, emit)
	default:
		var buf [stackSpans]span[relation.Value]
		spans := bySize(toSpans64(buf[:0], ranges))
		intersectPair(nil, at, false, &spans[0], &spans[1], spans[2:], emit)
	}
}

// streamSpan streams every key of s, the k = 1 level.
func streamSpan[K key](s *span[K], at []int, emit func(relation.Value, []int) bool) {
	for i := s.lo; i < s.hi; i++ {
		at[0] = i
		if emit(relation.Value(s.keys[i]), at) {
			return
		}
	}
}

// probeRest seeks every cursor of rest to v, in order, and reports
// whether all of them hold it; more is false once a cursor has run past
// its range, which ends the intersection.
func probeRest[K key](rest []span[K], v K) (hit, more bool) {
	for r := range rest {
		s := &rest[r]
		if s.lo = seek(s.keys, s.rank, s.lo, s.hi, v); s.lo >= s.hi {
			return false, false
		}
		if s.keys[s.lo] != v {
			return false, true
		}
	}
	return true, true
}

// probes reports whether the pair kernels intersect a and b (|a| <=
// |b|) by seeking into b from every key of a — one read per key when b
// is ranked, a gallop when b is gallopRatio times larger — rather than
// by a linear merge.
func probes[K key](a, b *span[K]) bool {
	return b.rank != nil || b.hi-b.lo >= gallopRatio*(a.hi-a.lo)
}

// intersectPair intersects a ∩ b ∩ rest: it intersects the pair (by
// probing the larger side, see probes, or merging), then probes each
// common key in rest, which the k >= 3 entries order smallest first.
// The pair's common keys bound the probes, so the level costs
// O(k·min·log N) for the smallest range's min keys. With a nil emit it
// materializes: values go to dst and, with pos, positions to at in
// range order, by span id. With a non-nil emit it streams: at is the
// caller's scratch of k positions, overwritten before each emit, and
// emit returns true to stop.
func intersectPair[K key](dst []relation.Value, at []int, pos bool, a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) ([]relation.Value, []int) {
	if a.hi-a.lo > b.hi-b.lo {
		a, b = b, a
	}
	ak, alo, ahi, aid := a.keys, a.lo, a.hi, a.id
	bk, brank, blo, bhi, bid := b.keys, b.rank, b.lo, b.hi, b.id
	k := 2 + len(rest)
	// match takes one common value, found at i in a and j in b, and
	// reports whether the level stops.
	match := func(v K, i, j int) bool {
		if emit != nil {
			at[aid], at[bid] = i, j
			for _, s := range rest {
				at[s.id] = s.lo
			}
			return emit(relation.Value(v), at)
		}
		dst = append(dst, relation.Value(v))
		if pos {
			n := len(at)
			at = slices.Grow(at, k)[:n+k]
			at[n+aid], at[n+bid] = i, j
			for _, s := range rest {
				at[n+s.id] = s.lo
			}
		}
		return false
	}
	if probes(a, b) {
		j := blo
		for i := alo; i < ahi; i++ {
			v := ak[i]
			if j = seek(bk, brank, j, bhi, v); j >= bhi {
				break
			}
			if bk[j] != v {
				continue
			}
			if len(rest) > 0 {
				hit, more := probeRest(rest, v)
				if !more {
					break
				}
				if !hit {
					continue
				}
			}
			if match(v, i, j) {
				break
			}
		}
		return dst, at
	}
	i, j := alo, blo
	for i < ahi && j < bhi {
		av, bv := ak[i], bk[j]
		if av < bv {
			i++
			continue
		}
		if av > bv {
			j++
			continue
		}
		if len(rest) > 0 {
			hit, more := probeRest(rest, av)
			if !more {
				break
			}
			if !hit {
				i++
				j++
				continue
			}
		}
		if match(av, i, j) {
			break
		}
		i++
		j++
	}
	return dst, at
}

// countPair is the counting twin of intersectPair: it stops at the
// cap-th common value.
func countPair[K key](a, b *span[K], rest []span[K], cap int) int {
	if a.hi-a.lo > b.hi-b.lo {
		a, b = b, a
	}
	ak, alo, ahi := a.keys, a.lo, a.hi
	bk, brank, blo, bhi := b.keys, b.rank, b.lo, b.hi
	n := 0
	if probes(a, b) {
		j := blo
		for i := alo; i < ahi; i++ {
			v := ak[i]
			if j = seek(bk, brank, j, bhi, v); j >= bhi {
				return n
			}
			if bk[j] != v {
				continue
			}
			if len(rest) > 0 {
				hit, more := probeRest(rest, v)
				if !more {
					return n
				}
				if !hit {
					continue
				}
			}
			if n++; n == cap {
				return n
			}
		}
		return n
	}
	i, j := alo, blo
	for i < ahi && j < bhi {
		av, bv := ak[i], bk[j]
		if av < bv {
			i++
			continue
		}
		if av > bv {
			j++
			continue
		}
		i++
		j++
		if len(rest) > 0 {
			hit, more := probeRest(rest, av)
			if !more {
				return n
			}
			if !hit {
				continue
			}
		}
		if n++; n == cap {
			return n
		}
	}
	return n
}

// smallestRange returns the index of the range with the fewest keys,
// which bounds the size of their intersection. It reads the windows in
// place: a LevelRange is too large to copy per call.
func smallestRange(ranges []LevelRange) int {
	best, arg := -1, -1
	for i := range ranges {
		if s := ranges[i].Hi - ranges[i].Lo; best < 0 || s < best {
			best, arg = s, i
		}
	}
	return arg
}
