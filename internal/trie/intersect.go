package trie

// The multiway level-intersection kernels: materializing
// (IntersectLevels, and IntersectLevelsAt, which also reports where
// every value matched), counting up to a cap (IntersectLevelsCount,
// which with cap 1 is the existence check) and streaming
// (StreamLevels). The search calls one of them per level, and per
// value it then pays only its share of that one intersection — the
// primitive Algorithm 1 and Generic-Join assume. Each pair of ranges
// takes the cheapest branch their layouts allow: two dense sets AND
// their common words, a dense set is probed from the other side's keys,
// and two sorted arrays merge or gallop. Every lookup follows seek's
// rule: on a dense range it is a bit test and a value's position its
// rank, a word read and a popcount or two; otherwise it gallops. No
// entry allocates on the same-width path: k <= 2 reads the caller's
// ranges in place, k >= 3 keeps its cursors in a fixed stack buffer,
// and values and positions go to the caller's buffers, which grow at
// most once per call, to the smallest range's size. The positions mean
// a caller never searches again for a value the kernel has already
// matched. Only the mixed-width widening copy allocates per call.

import (
	"math/bits"
	"slices"

	"wcoj/internal/relation"
)

// LevelRange is one participant in a multiway sorted intersection: a
// dense, strictly increasing, duplicate-free key array restricted to
// segments [Lo,Hi) — one trie level's segment keys within a parent's
// children span (see Trie.SegLevel and Trie.Child). Exactly one of Keys
// and Keys32 is non-nil: wide tries expose Keys, uint32-narrowed tries
// Keys32.
type LevelRange struct {
	Keys   []relation.Value
	Keys32 []uint32
	Lo     int
	Hi     int
	// t is the narrowed trie the range was cut from, and [w0,w1) the
	// words of the window's bitset in t's arena when the window is one
	// of t's dense sets (SegLevel and Child attach it); w0 == w1
	// otherwise. Bit i of the set stands for key 64·wb + i. dense
	// indexes the dense sets of the range's level, nil when it has
	// none, so Child tests a parent's flag in two reads.
	t          *Trie
	dense      *denseLevel
	w0, w1, wb int32
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
// from: the kernels reorder spans, and positions are reported per
// range. A dense span also carries its trie, whose arenas hold its
// bitset's nw words from the even word w0 with their rank pairs, and
// wb, the absolute index (key / 64) of its first word. The span is 64
// bytes, so the k >= 3 entries copy their cursors by plain moves.
type span[K key] struct {
	keys []K
	lo   int
	hi   int
	t    *Trie
	id   int32
	w0   int32
	nw   int32
	wb   int32
}

// dense reports whether the span carries a bitset.
func (s *span[K]) dense() bool { return s.t != nil }

// bitPos returns the position of the key at bit i of a dense span's set,
// which holds it.
func (s *span[K]) bitPos(i int) int {
	return s.at(int(s.w0)+i>>6, s.t.words[int(s.w0)+i>>6]&(1<<(uint(i)&63)-1))
}

// at returns the position of the first member of a dense span's set at
// or past arena word w, plus the members of x: the rank of word w's
// pair plus, when w is its pair's second word (the set starts on an
// even word), the members of the first.
func (s *span[K]) at(w int, x uint64) int {
	return int(s.t.ranks[w>>1]) + bits.OnesCount64(x) + bits.OnesCount64(s.t.words[w&^1])&-(w&1)
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

// seek looks v up in s from the cursor lo: it reports whether s holds
// v, with its position at when it does, and more = false when v is past
// s's last key, which ends an intersection (a dense span notices only
// once v is past its last word). Seeks only move forward: every key
// before lo is below v. On a dense span a lookup is a bit test and a
// hit's position its rank (see at), so a miss leaves the cursor as it
// was; every other seek gallops from lo, and at is then the first index
// >= v, the next seek's cursor. It is the one lookup rule: the rest
// probes call it, and the pair kernels' probe loops run its two halves
// inline (probeBits, probePair).
func seek[K key](s *span[K], lo int, v K) (at int, hit, more bool) {
	if s.dense() {
		return seekBits(s, lo, v)
	}
	at = gallopLB(s.keys, lo, s.hi, v)
	return at, at < s.hi && s.keys[at] == v, at < s.hi
}

// seekBits is seek on a dense span.
func seekBits[K key](s *span[K], lo int, v K) (at int, hit, more bool) {
	base := uint64(s.wb) << 6
	if uint64(v) < base {
		return lo, false, true
	}
	i := uint64(v) - base
	if i >= uint64(s.nw)<<6 {
		return s.hi, false, false
	}
	w := int(s.w0) + int(i>>6)
	x := s.t.words[w] & (2<<(i&63) - 1)
	if x>>(i&63) == 0 {
		return lo, false, true
	}
	return s.at(w, x) - 1, true, true
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
// its bitset if it has one.
func span32(r *LevelRange, id int) span[uint32] {
	if r.w0 == r.w1 {
		return span[uint32]{keys: r.Keys32, lo: r.Lo, hi: r.Hi, id: int32(id)}
	}
	return span[uint32]{keys: r.Keys32, lo: r.Lo, hi: r.Hi, id: int32(id),
		t: r.t, w0: r.w0, nw: r.w1 - r.w0, wb: r.wb}
}

// span64 wraps a wide range as an intersection cursor; wide ranges are
// never dense.
func span64(r *LevelRange, id int) span[relation.Value] {
	return span[relation.Value]{keys: r.Keys, lo: r.Lo, hi: r.Hi, id: int32(id)}
}

// pairs32 runs the pair kernels into o over k >= 2 narrowed ranges:
// k = 2 reads the ranges in place; only k >= 3 fills a cursor buffer on
// the stack, ordered smallest first, and probes the rest.
func pairs32(o *sink[uint32], ranges []LevelRange, emit func(relation.Value, []int) bool) {
	if len(ranges) == 2 {
		a, b := span32(&ranges[0], 0), span32(&ranges[1], 1)
		intersectPair(o, &a, &b, nil, emit)
		return
	}
	var buf [stackSpans]span[uint32]
	spans := buf[:0]
	for i := range ranges {
		spans = append(spans, span32(&ranges[i], i))
	}
	spans = bySize(spans)
	intersectPair(o, &spans[0], &spans[1], spans[2:], emit)
}

// pairs64 is pairs32 over wide ranges.
func pairs64(o *sink[relation.Value], ranges []LevelRange, emit func(relation.Value, []int) bool) {
	if len(ranges) == 2 {
		a, b := span64(&ranges[0], 0), span64(&ranges[1], 1)
		intersectPair(o, &a, &b, nil, emit)
		return
	}
	var buf [stackSpans]span[relation.Value]
	spans := buf[:0]
	for i := range ranges {
		spans = append(spans, span64(&ranges[i], i))
	}
	spans = bySize(spans)
	intersectPair(o, &spans[0], &spans[1], spans[2:], emit)
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
// is a bulk copy. k = 2 ANDs two dense ranges' common words, probes a
// dense range (or one gallopRatio times larger than the other) from
// every key of the other side, and merges linearly otherwise (see
// pairOf). k >= 3 intersects the two smallest
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
	if ranges[0].Keys32 != nil {
		if len(ranges) == 1 {
			a := span32(&ranges[0], 0)
			return appendSpan(dst, at, pos, &a)
		}
		o := sink[uint32]{dst: dst, at: at, pos: pos}
		pairs32(&o, ranges, nil)
		return o.dst, o.at
	}
	if len(ranges) == 1 {
		a := span64(&ranges[0], 0)
		return appendSpan(dst, at, pos, &a)
	}
	o := sink[relation.Value]{dst: dst, at: at, pos: pos}
	pairs64(&o, ranges, nil)
	return o.dst, o.at
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
		o := sink[uint32]{count: true, cap: cap}
		pairs32(&o, ranges, nil)
		return o.n
	}
	o := sink[relation.Value]{count: true, cap: cap}
	pairs64(&o, ranges, nil)
	return o.n
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
	switch {
	case len(ranges) == 1 && ranges[0].Keys32 != nil:
		a := span32(&ranges[0], 0)
		streamSpan(&a, at, emit)
	case len(ranges) == 1:
		a := span64(&ranges[0], 0)
		streamSpan(&a, at, emit)
	case ranges[0].Keys32 != nil:
		pairs32(&sink[uint32]{at: at}, ranges, emit)
	default:
		pairs64(&sink[relation.Value]{at: at}, ranges, emit)
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
		if s.lo, hit, more = seek(s, s.lo, v); !hit {
			return false, more
		}
	}
	return true, true
}

// branch names how the pair kernels intersect two ranges.
type branch uint8

const (
	// mergeBranch walks both sorted key arrays in one linear merge.
	mergeBranch branch = iota
	// probeBranch seeks into b from every key of a: O(1) per key when
	// b is dense, a gallop when b is gallopRatio times larger.
	probeBranch
	// andBranch ANDs the two dense sets' common words.
	andBranch
)

// pairOf orders a and b for the pair kernels and picks their branch.
// Two dense sets AND. Otherwise the keys of the smaller side are
// probed into the larger when it is dense or gallopRatio times larger,
// and merged with it when not — except that a dense smaller side is
// probed from a sparse larger one that is less than gallopRatio times
// its size, which costs one bit probe per key instead of a merge step
// per key of both.
func pairOf[K key](a, b *span[K]) (*span[K], *span[K], branch) {
	if a.hi-a.lo > b.hi-b.lo {
		a, b = b, a
	}
	skewed := b.hi-b.lo >= gallopRatio*(a.hi-a.lo)
	switch {
	case a.dense() && b.dense():
		return a, b, andBranch
	case a.dense() && !skewed:
		return b, a, probeBranch
	case b.dense() || skewed:
		return a, b, probeBranch
	}
	return a, b, mergeBranch
}

// andWindow returns the absolute word range [lo,hi) common to the dense
// a and b and, when every span of rest is dense too (all), to rest.
func andWindow[K key](a, b *span[K], rest []span[K]) (lo, hi int, all bool) {
	lo, hi, all = int(max(a.wb, b.wb)), int(min(a.wb+a.nw, b.wb+b.nw)), true
	for r := range rest {
		all = all && rest[r].dense()
	}
	if all {
		for r := range rest {
			lo, hi = max(lo, int(rest[r].wb)), min(hi, int(rest[r].wb+rest[r].nw))
		}
	}
	return lo, hi, all
}

// andRest ANDs x, the pair's word at absolute word w, with every rest
// span's when all of them are dense (all).
func andRest[K key](rest []span[K], all bool, w int, x uint64) uint64 {
	if all {
		for r := range rest {
			s := &rest[r]
			x &= s.t.words[int(s.w0-s.wb)+w]
		}
	}
	return x
}

// sink receives a level's common values in ascending order, as the
// entry that runs the pair kernels asks: it materializes them (to dst,
// with their positions appended to at when pos), streams them (to the
// kernels' emit, with their positions in the scratch at), or counts
// them up to cap (count). a and b are the ids of the pair's ranges.
// The rest cursors and emit travel beside it as parameters: passing at
// to emit leaks whatever the sink holds, and they must stay on the
// caller's stack. The kernels keep dst, at and n in locals while they
// run and store them back when they return.
type sink[K key] struct {
	dst   []relation.Value
	at    []int
	pos   bool
	count bool
	n     int
	cap   int
	a, b  int
}

// stream hands one value, found at i in a, j in b and the rest's
// cursors, to emit and reports whether the level stops.
func (o *sink[K]) stream(v K, i, j int, rest []span[K], emit func(relation.Value, []int) bool) bool {
	o.at[o.a], o.at[o.b] = i, j
	for _, s := range rest {
		o.at[s.id] = s.lo
	}
	return emit(relation.Value(v), o.at)
}

// appendAt appends one value's positions in range order: i and j for
// the pair's ranges a and b, and each rest cursor's lo for its range.
// The materializing entry grows at once to room for a position per
// range for every key of the smallest range, so this never reallocates.
func appendAt[K key](at []int, a, b, i, j int, rest []span[K]) []int {
	n := len(at)
	at = at[:n+2+len(rest)]
	at[n+a], at[n+b] = i, j
	for r := range rest {
		at[n+int(rest[r].id)] = rest[r].lo
	}
	return at
}

// intersectPair intersects a ∩ b ∩ rest into o: it intersects the
// pair by the branch pairOf picks, then probes each common key in the
// rest, smallest first; when the pair ANDs and every rest span is dense
// too, the rest are ANDed in the same word loop. The pair's common keys
// bound the probes, so the level costs O(k·min·log N) for the smallest
// range's min keys. Each branch is a function of its own, so each loop
// keeps its cursors in registers.
func intersectPair[K key](o *sink[K], a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) {
	a, b, br := pairOf(a, b)
	o.a, o.b = int(a.id), int(b.id)
	switch br {
	case andBranch:
		andPair(o, a, b, rest, emit)
	case probeBranch:
		if b.dense() {
			probeBits(o, a, b, rest, emit)
		} else {
			probePair(o, a, b, rest, emit)
		}
	default:
		mergePair(o, a, b, rest, emit)
	}
}

// andPair ANDs the dense a's and b's common words and hands o each set
// bit that the rest hold too. A count over all-dense ranges adds whole
// words by popcount; otherwise the positions of a's and b's first
// members at the current word run along, so a match's position is one
// popcount away.
func andPair[K key](o *sink[K], a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) {
	lo, hi, all := andWindow(a, b, rest)
	if lo >= hi {
		return
	}
	aw, bw, ao, bo := a.t.words, b.t.words, int(a.w0-a.wb), int(b.w0-b.wb)
	if o.count && all {
		for w := lo; w < hi; w++ {
			if o.n += bits.OnesCount64(andRest(rest, all, w, aw[ao+w]&bw[bo+w])); o.n >= o.cap {
				o.n = o.cap
				return
			}
		}
		return
	}
	dst, at, n := o.dst, o.at, o.n
	i, j := a.at(ao+lo, 0), b.at(bo+lo, 0)
words:
	for w := lo; w < hi; w++ {
		ax, bx := aw[ao+w], bw[bo+w]
		for x := andRest(rest, all, w, ax&bx); x != 0; x &= x - 1 {
			bit, low := uint(bits.TrailingZeros64(x)), x&-x-1
			v := K(uint64(w)<<6 | uint64(bit))
			if all {
				for r := range rest {
					rest[r].lo = rest[r].bitPos((w-int(rest[r].wb))<<6 | int(bit))
				}
			} else if len(rest) > 0 {
				hit, more := probeRest(rest, v)
				if !more {
					break words
				}
				if !hit {
					continue
				}
			}
			pi, pj := i+bits.OnesCount64(ax&low), j+bits.OnesCount64(bx&low)
			switch {
			case o.count:
				if n++; n == o.cap {
					break words
				}
			case emit != nil:
				if o.stream(v, pi, pj, rest, emit) {
					break words
				}
			default:
				dst = append(dst, relation.Value(v))
				if o.pos {
					at = appendAt(at, o.a, o.b, pi, pj, rest)
				}
			}
		}
		i, j = i+bits.OnesCount64(ax), j+bits.OnesCount64(bx)
	}
	o.dst, o.at, o.n = dst, at, n
}

// probeBits probes the dense b from every key of a — one bit test per
// key, and a rank for each hit — and hands o each hit that the rest
// hold too.
func probeBits[K key](o *sink[K], a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) {
	ak, ahi := a.keys, a.hi
	words, w0, base, nbits := b.t.words, int(b.w0), uint64(b.wb)<<6, uint64(b.nw)<<6
	dst, at, n := o.dst, o.at, o.n
keys:
	for i := a.lo; i < ahi; i++ {
		v := ak[i]
		off := uint64(v) - base
		if off >= nbits {
			if uint64(v) < base {
				continue
			}
			break
		}
		w := w0 + int(off>>6)
		x := words[w] & (2<<(off&63) - 1)
		if x>>(off&63) == 0 {
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
		switch j := b.at(w, x) - 1; {
		case o.count:
			if n++; n == o.cap {
				break keys
			}
		case emit != nil:
			if o.stream(v, i, j, rest, emit) {
				break keys
			}
		default:
			dst = append(dst, relation.Value(v))
			if o.pos {
				at = appendAt(at, o.a, o.b, i, j, rest)
			}
		}
	}
	o.dst, o.at, o.n = dst, at, n
}

// probePair gallops into the sparse b from every key of a and hands o
// each hit that the rest hold too.
func probePair[K key](o *sink[K], a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) {
	ak, ahi, bk, bhi := a.keys, a.hi, b.keys, b.hi
	dst, at, n := o.dst, o.at, o.n
	j := b.lo
keys:
	for i := a.lo; i < ahi; i++ {
		v := ak[i]
		if j = gallopLB(bk, j, bhi, v); j >= bhi {
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
		switch {
		case o.count:
			if n++; n == o.cap {
				break keys
			}
		case emit != nil:
			if o.stream(v, i, j, rest, emit) {
				break keys
			}
		default:
			dst = append(dst, relation.Value(v))
			if o.pos {
				at = appendAt(at, o.a, o.b, i, j, rest)
			}
		}
	}
	o.dst, o.at, o.n = dst, at, n
}

// mergePair walks a's and b's sorted keys in one linear merge and hands
// o each common key that the rest hold too.
func mergePair[K key](o *sink[K], a, b *span[K], rest []span[K], emit func(relation.Value, []int) bool) {
	ak, bk, ahi, bhi := a.keys, b.keys, a.hi, b.hi
	dst, at, n := o.dst, o.at, o.n
	i, j := a.lo, b.lo
keys:
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
		i, j = i+1, j+1
		if len(rest) > 0 {
			hit, more := probeRest(rest, av)
			if !more {
				break
			}
			if !hit {
				continue
			}
		}
		switch {
		case o.count:
			if n++; n == o.cap {
				break keys
			}
		case emit != nil:
			if o.stream(av, i-1, j-1, rest, emit) {
				break keys
			}
		default:
			dst = append(dst, relation.Value(av))
			if o.pos {
				at = appendAt(at, o.a, o.b, i-1, j-1, rest)
			}
		}
	}
	o.dst, o.at, o.n = dst, at, n
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
