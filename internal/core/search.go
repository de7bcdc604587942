package core

// The one depth-first search every run executes. Generic-Join, Leapfrog
// Triejoin and Algorithm 3 are the same algorithm — fix a variable order,
// intersect the participating atoms at each level, recurse per value —
// and share this searcher: the per-atom CSR cursor stacks, the two
// recursions (visit and count, with the per-value loops the sharded
// runner enters at depth 0), the poll site, the sticky abort and the
// Stats accounting. Algorithm 3 differs only in how the order is chosen
// (BacktrackOrder). How a level's intersection reaches the recursion
// follows from the level's cap: a count level with a finite cap (EXISTS,
// and the existence checks below a projection boundary) may stop at its
// first values, so it streams them (trie.StreamLevels, the survey's
// Leapfrog Triejoin level); an uncapped count and an emitting level
// visit every value, so they materialize the level first
// (trie.IntersectLevelsAt, Generic-Join's). Either way each value
// arrives with its position in every participating level range — the
// kernel matched it there — so the atoms take their segments without a
// second search, and no level allocates: a materialized level keeps
// values and positions in per-depth buffers, a streamed level reuses its
// depth's position slot.
//
// The aggregate-aware modes skip the enumeration work an answer does
// not need, driven by the level classification of internal/agg. Every
// aggregate is one count, taken in the truncated semiring {0, …, cap}
// of its searcher: COUNT is uncapped, and EXISTS — like the existence
// check at a projection boundary — is the count capped at 1, since
// min(·, 1) maps (ℕ, +, ×) onto (𝔹, ∨, ∧).
//
//   - free-counted suffix levels are never recursed into — the number
//     of extensions is the product of the active atoms' row-range sizes
//     (relations are duplicate-free sets, so a range size is a
//     distinct-tuple count), and the deepest level asks the kernel for
//     the intersection's size up to the cap;
//   - bound levels below the projection boundary and below a separator
//     (a bound variable no active atom contains) consult a
//     per-(trie,prefix) memo, so the subtree is counted once per
//     separator value;
//   - a level whose partial sum reaches the cap stops (EXISTS stops at
//     the first witness), across shards via a shared stop flag.
//
// Results are byte-identical to enumerate-then-aggregate at every
// parallelism setting and under every order policy.

import (
	"math"
	"slices"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// gjAtom is the per-atom, per-worker execution state of the search,
// navigating the trie's CSR index by segment.
type gjAtom struct {
	trie *trie.Trie
	// levelOf[d] is this atom's trie level bound when the global
	// variable at depth d is bound, or -1 if the atom lacks that
	// variable.
	levelOf []int
	// segLo/segHi[l] is the candidate segment range at trie level l
	// after binding the atom's first l variables (the children span of
	// the segment chosen at level l-1; the whole level for l = 0).
	segLo []int
	segHi []int
	// segAt[l] is the segment chosen at level l by the current prefix;
	// its row range (SegRows) is what the aggregate modes' products and
	// memo keys are built from.
	segAt []int
}

// take records segment s, where the level kernel matched the value, as
// the one chosen at trie level l and pushes its children span.
func (ga *gjAtom) take(l, s int) {
	ga.segAt[l] = s
	if l+1 < ga.trie.Depth() {
		ga.segLo[l+1], ga.segHi[l+1] = ga.trie.Children(l, s)
	}
}

// rows returns the row range selected after this atom's first l
// variables are bound: the whole relation for l = 0, the chosen
// level-(l-1) segment's rows otherwise.
func (ga *gjAtom) rows(l int) (lo, hi int) {
	if l == 0 {
		return 0, ga.trie.Len()
	}
	return ga.trie.SegRows(l-1, ga.segAt[l-1])
}

// searcher is the mutable state of one search goroutine. Searchers
// share only the immutable Plan and Classification with siblings.
type searcher struct {
	plan *Plan
	// cls drives the aggregate modes; nil for plain full-tuple
	// enumeration, which only ever runs visit.
	cls *agg.Classification
	// enumEnd is the depth at which visit stops enumerating and
	// existence-checks the rest: the projection boundary, or the full
	// order when every variable is output.
	enumEnd int
	// cap is the run's cap: count returns min(count, cap). It is 1 for
	// EXISTS and for every enumeration (whose only counts are visit's
	// existence checks), uncapped for COUNT.
	cap int64

	atoms   []*gjAtom
	binding relation.Tuple
	// scratch[d] holds level d's materialized intersection; ranges[d]
	// the level ranges it (or the stream) is computed from. pos[d] holds
	// where each value matched, len(Participants[d]) positions per value
	// (the streamed level's current value only), so the atoms take
	// their segments without searching again.
	scratch [][]relation.Value
	ranges  [][]trie.LevelRange
	pos     [][]int

	stats *Stats
	emit  func(relation.Tuple) error
	// out is the tuple handed to emit — binding itself, or the
	// projection buffer filled through projPos (the binding position of
	// each projected variable).
	out     relation.Tuple
	projPos []int

	// stop, when non-nil, and budget, when non-nil, are polled every
	// 256 search nodes (see node): a cancelled run, a sharded EXISTS
	// whose sibling found the witness, and an exhausted node budget all
	// unwind through err.
	stop   *atomic.Bool
	budget *NodeBudget
	// err is the sticky abort: ErrAborted, ErrNodeBudget or
	// agg.ErrCountOverflow. Once set every mode unwinds — count with 0,
	// visit with the error — and the entry points report it in place of
	// the result.
	err error

	// memo is nil unless some depth is below a separator
	// (agg.Classification.MemoDepths); a nil memo is never enabled.
	memo      *agg.Memo
	keyRanges []int // scratch the memo key is built from
}

// newSearcher prepares one search goroutine's state over plan p,
// including every depth's level ranges (see levelRanges).
func newSearcher(p *Plan, cls *agg.Classification, cap int64, stats *Stats,
	emit func(relation.Tuple) error, stop *atomic.Bool, budget *NodeBudget) *searcher {
	n := len(p.Order)
	s := &searcher{
		plan:    p,
		cls:     cls,
		enumEnd: n,
		cap:     cap,
		atoms:   make([]*gjAtom, len(p.Tries)),
		binding: make(relation.Tuple, len(p.Q.Vars)),
		scratch: make([][]relation.Value, n),
		ranges:  make([][]trie.LevelRange, n),
		pos:     make([][]int, n),
		stats:   stats,
		emit:    emit,
		stop:    stop,
		budget:  budget,
	}
	s.out = s.binding
	for i, tr := range p.Tries {
		k := tr.Depth()
		idx := make([]int, 3*k)
		ga := &gjAtom{
			trie:    tr,
			levelOf: p.LevelOf[i],
			segLo:   idx[:k:k],
			segHi:   idx[k : 2*k : 2*k],
			segAt:   idx[2*k:],
		}
		ga.segLo[0], ga.segHi[0] = 0, tr.NumSegs(0)
		s.atoms[i] = ga
	}
	total := 0
	for _, ps := range p.Participants {
		total += len(ps)
	}
	// Capacity-capped carvings of one slab each: a level that outgrows
	// its slot reallocates instead of overwriting the next depth's.
	slab := make([]trie.LevelRange, total)
	posSlab := make([]int, total)
	for d, ps := range p.Participants {
		s.ranges[d], slab = slab[:len(ps):len(ps)], slab[len(ps):]
		s.pos[d], posSlab = posSlab[:0:len(ps)], posSlab[len(ps):]
		for j, ai := range ps {
			ga := s.atoms[ai]
			l := ga.levelOf[d]
			s.ranges[d][j] = ga.trie.SegLevel(l, ga.segLo[l], ga.segHi[l])
		}
	}
	if cls == nil {
		return s
	}
	if slices.Contains(cls.MemoDepths, true) {
		s.memo = agg.NewMemo()
	}
	if len(cls.Spec.Project) > 0 {
		s.enumEnd = cls.EnumEnd
		s.projPos = make([]int, len(cls.Spec.Project))
		s.out = make(relation.Tuple, len(cls.Spec.Project))
		for i, v := range cls.Spec.Project {
			for j, qv := range p.Q.Vars {
				if qv == v {
					s.projPos[i] = j
				}
			}
		}
	}
	return s
}

// node accounts for one search node and is the search's only poll
// site: every 256th node it checks the stop flag and draws 256 nodes
// from the budget. It reports whether the search may continue.
func (s *searcher) node() bool {
	s.stats.Recursions++
	if s.stats.Recursions&255 == 0 && s.err == nil {
		if s.stop != nil && s.stop.Load() {
			s.err = ErrAborted
		} else if !s.budget.Spend(256) {
			s.err = ErrNodeBudget
		}
	}
	return s.err == nil
}

// levelRanges returns the participating level ranges at depth d. The
// searcher builds them once (newSearcher) and here only moves their
// windows to the atoms' current children spans: a level's key array is
// fixed for the search, and a level-0 window is always the whole level,
// so its rank array stays valid.
func (s *searcher) levelRanges(d int) []trie.LevelRange {
	rs := s.ranges[d]
	for j, ai := range s.plan.Participants[d] {
		ga := s.atoms[ai]
		l := ga.levelOf[d]
		rs[j].Lo, rs[j].Hi = ga.segLo[l], ga.segHi[l]
	}
	return rs
}

// intersect materializes the depth-d level intersection, with where
// each value matched, into the depth's scratch.
func (s *searcher) intersect(d int) ([]relation.Value, []int) {
	vals, at := trie.IntersectLevelsAt(s.scratch[d][:0], s.pos[d][:0], s.levelRanges(d))
	s.scratch[d], s.pos[d] = vals, at
	s.stats.IntersectValues += len(vals)
	return vals, at
}

// stream streams the depth-d level intersection: at each common value
// the participating atoms take the segment the kernel matched it at and
// the value is handed to match, which returns true to stop the level
// early. The level is never materialized, so a stop leaves the rest of
// it unintersected.
func (s *searcher) stream(d int, match func(v relation.Value) bool) {
	trie.StreamLevels(s.levelRanges(d), s.pos[d], func(v relation.Value, at []int) bool {
		s.stats.IntersectValues++
		s.take(d, at)
		return match(v)
	})
}

// take binds every participating atom at depth d to the segment its
// level range matched the value at: at[j] is the position in
// participant j's range, as the kernels report it.
func (s *searcher) take(d int, at []int) {
	for j, ai := range s.plan.Participants[d] {
		ga := s.atoms[ai]
		ga.take(ga.levelOf[d], at[j])
	}
}

// visit enumerates the output prefix, emitting one tuple per prefix
// that has at least one extension (every full binding, when all
// variables are output).
func (s *searcher) visit(d int) error {
	if d == s.enumEnd {
		if s.count(d) > 0 {
			for i, p := range s.projPos {
				s.out[i] = s.binding[p]
			}
			return s.emit(s.out)
		}
		return s.err
	}
	if !s.node() {
		return s.err
	}
	vals, at := s.intersect(d)
	return s.visitVals(d, vals, at)
}

// visitVals and countVals run the per-value loop of depth d over
// materialized values: the participating atoms take the segments at
// lists for the value (k = len(Participants[d]) positions per value, as
// IntersectLevelsAt reports them), then the search recurses. The
// sharded runner enters the search through them at depth 0, with one
// chunk of the precomputed top-level intersection.
func (s *searcher) visitVals(d int, vals []relation.Value, at []int) error {
	k := len(s.plan.Participants[d])
	for i, v := range vals {
		s.binding[s.plan.OutPos[d]] = v
		s.take(d, at[i*k:])
		if err := s.visit(d + 1); err != nil {
			return err
		}
	}
	return nil
}

func (s *searcher) countVals(d int, vals []relation.Value, at []int) int64 {
	k := len(s.plan.Participants[d])
	var total int64
	for i := 0; i < len(vals) && !reached(total, s.cap); i++ {
		s.take(d, at[i*k:])
		total = s.add(total, s.count(d+1))
	}
	return total
}

// uncapped is the cap of a COUNT run: its sums never saturate and never
// stop early, and a sum past math.MaxInt64 is agg.ErrCountOverflow.
const uncapped = math.MaxInt64

// capAdd adds two counts in [0, cap]. The sum saturates at cap; ok is
// false when an uncapped sum overflows.
func capAdd(a, b, cap int64) (sum int64, ok bool) {
	if b > cap-a {
		return cap, cap != uncapped
	}
	return a + b, true
}

// reached reports whether a partial count has reached cap, so that
// nothing left to add can change the capped result. An uncapped count
// never reaches it: a sum at exactly math.MaxInt64 may still overflow.
func reached(total, cap int64) bool { return cap != uncapped && total >= cap }

// add sums two subtree counts at the searcher's cap; a sum that
// overflows aborts the search with agg.ErrCountOverflow instead of
// reporting a wrong count.
func (s *searcher) add(total, n int64) int64 {
	sum, ok := capAdd(total, n, s.cap)
	if !ok {
		s.err = agg.ErrCountOverflow
		return 0
	}
	return sum
}

// product multiplies the active atoms' current row-range sizes — the
// number of suffix extensions below depth d when every remaining level
// is free-counted — saturating at the cap. A saturated product is still
// 0 if a later range is empty; otherwise, uncapped, it is an overflow
// and aborts the search.
func (s *searcher) product(d int) int64 {
	prod, past := int64(1), false
	for j, ai := range s.cls.ActiveAtoms[d] {
		lo, hi := s.atoms[ai].rows(s.cls.BoundLevel[d][j])
		if lo == hi {
			return 0
		}
		p, ok := agg.Mul(prod, int64(hi-lo))
		if !ok || p > s.cap {
			p, past = s.cap, true
		}
		prod = p
	}
	if past && s.cap == uncapped {
		s.err = agg.ErrCountOverflow
		return 0
	}
	return prod
}

// memoKey builds the subtree signature at depth d: the (lo,hi) range
// of every active atom. Identical signatures have identical subtree
// results regardless of the prefix that produced them.
func (s *searcher) memoKey(d int) []byte {
	s.keyRanges = s.keyRanges[:0]
	for j, ai := range s.cls.ActiveAtoms[d] {
		lo, hi := s.atoms[ai].rows(s.cls.BoundLevel[d][j])
		s.keyRanges = append(s.keyRanges, lo, hi)
	}
	return s.memo.Key(d, s.keyRanges)
}

// count returns min(n, cap) for the number n of full result tuples
// below the current prefix at depth d — with cap 1, whether any exists.
// A level stops once its partial sum reaches the cap. The memo stores
// capped values, which is sound because a searcher has one cap.
func (s *searcher) count(d int) int64 {
	if !s.node() {
		return 0
	}
	n := len(s.plan.Order)
	if d == n {
		return 1
	}
	if d >= s.cls.CountFrom {
		s.stats.AggMultiplies++
		return s.product(d)
	}
	useMemo := s.cls.MemoDepths[d] && s.memo.Enabled()
	if useMemo {
		if v, ok := s.memo.Get(s.memoKey(d)); ok {
			s.stats.AggMemoHits++
			return v
		}
	}
	var total int64
	switch {
	case d == n-1:
		// Tail shortcut: each intersection value is one result, so only
		// the cardinality up to the cap is computed.
		s.stats.AggMultiplies++
		c := trie.IntersectLevelsCount(s.levelRanges(d), int(s.cap))
		s.stats.IntersectValues += c
		total = int64(c)
	case s.cap != uncapped:
		// A capped level may stop at its first values: stream them.
		s.stream(d, func(relation.Value) bool {
			total = s.add(total, s.count(d+1))
			return reached(total, s.cap) || s.err != nil
		})
	default:
		vals, at := s.intersect(d)
		total = s.countVals(d, vals, at)
	}
	if useMemo && s.err == nil {
		// The memo's key scratch was clobbered by deeper probes;
		// rebuild it (the ranges at this depth are unchanged).
		s.memo.Put(s.memoKey(d), total)
	}
	return total
}
