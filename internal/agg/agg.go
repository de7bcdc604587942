// Package agg implements the aggregate-aware execution mode shared by
// Generic-Join and Leapfrog Triejoin: the level classification,
// variable sinking and subtree-count memoization that let COUNT,
// EXISTS and projection queries skip the full tuple enumeration the
// paper's algorithms are stated for.
//
// The observation is standard but powerful: relations are duplicate
// free sorted sets, so once the search has bound a prefix of the
// global variable order, the number of extensions contributed by an
// atom all of whose remaining trie levels bind variables private to
// that atom is exactly the atom's current row-range size — no
// recursion required. The classifier partitions the plan levels of a
// variable order into
//
//   - free-output levels: variables the caller wants enumerated (the
//     projection); the engine searches them exactly as before and
//     emits at the projection boundary;
//   - bound levels: variables that are projected away but shared by
//     several atoms; they must still be searched so the join is
//     constrained correctly, but nothing is emitted per value;
//   - free-counted levels: the maximal suffix in which every variable
//     is private to one atom (plus the deepest level of a counting
//     run, whose subtree cardinality is the size of its intersection).
//     The engine multiplies subtree cardinalities here instead of
//     recursing.
//
// A per-(trie,prefix) memo table caches subtree counts at bound
// levels below a separator: the count below depth d is a pure function
// of the row ranges of the atoms still active at depth d, so once the
// prefix binds a variable no active atom contains, the prefixes that
// differ only there narrow the active atoms to identical ranges and
// their subtree is counted once. Above the first separator every key
// is distinct, so the memo is not consulted there. It disables itself
// adaptively when the workload never revisits a range signature.
//
// The package is engine-agnostic: it knows variable orders and atom
// schemas, not tries. The search in internal/core drives the recursion
// and consults the Classification and Memo.
package agg

import (
	"encoding/binary"
	"fmt"
)

// Mode selects what the aggregate-aware engines compute.
type Mode int

// Available modes.
const (
	// ModeEnumerate enumerates the distinct projected tuples (Spec.Project
	// must be set): the engine searches the projected prefix and emits a
	// tuple per prefix that has at least one extension.
	ModeEnumerate Mode = iota
	// ModeCount counts. With a nil Spec.Project it counts full join
	// results (multiplicities included) by multiplying free-counted
	// subtree cardinalities; with Project set it counts distinct
	// projected tuples.
	ModeCount
	// ModeExists reports whether the join is non-empty: it is the
	// ModeCount count capped at 1, so the search stops at the first
	// witness.
	ModeExists
)

func (m Mode) String() string {
	switch m {
	case ModeEnumerate:
		return "enumerate"
	case ModeCount:
		return "count"
	case ModeExists:
		return "exists"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Spec is an aggregate request: the mode plus the projection set (nil
// means no projection — full tuples for ModeEnumerate, full
// multiplicity for ModeCount).
type Spec struct {
	Mode    Mode
	Project []string
}

// Class classifies one plan level for the aggregate-aware engines.
type Class int

// Available classes. See the package comment for semantics.
const (
	// Bound levels are searched per value but not emitted.
	Bound Class = iota
	// FreeOutput levels are searched and their values emitted.
	FreeOutput
	// FreeCounted levels are never recursed into: their subtree
	// cardinalities are multiplied (or, at the deepest level, the
	// intersection size is added) instead.
	FreeCounted
)

func (c Class) String() string {
	switch c {
	case Bound:
		return "bound"
	case FreeOutput:
		return "free-output"
	case FreeCounted:
		return "free-counted"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classification is the per-plan-level analysis the engines execute
// against. It is immutable after Classify and safe to share across
// worker goroutines.
type Classification struct {
	// Spec is the request the classification was computed for.
	Spec Spec
	// Order is the (already sunk) global variable order.
	Order []string
	// Classes[d] classifies level d.
	Classes []Class
	// EnumEnd is the number of leading FreeOutput levels — the
	// projection boundary at which ModeEnumerate emits and
	// ModeCount-with-projection counts. Zero without a projection.
	EnumEnd int
	// CountFrom is the first level of the maximal suffix in which every
	// variable occurs in exactly one atom (and none is projected): from
	// this depth the engines multiply per-atom range sizes instead of
	// recursing. len(Order) when no such suffix exists.
	CountFrom int
	// ActiveAtoms[d] lists the atoms with at least one variable at a
	// level >= d — exactly the atoms whose row ranges determine the
	// subtree result below depth d (memo key and multiplication
	// operands).
	ActiveAtoms [][]int
	// BoundLevel[d][j] is, for atom ActiveAtoms[d][j], the number of
	// its variables bound before depth d — i.e. the trie level whose
	// range stack entry holds the atom's current row range.
	BoundLevel [][]int
	// MemoDepths[d] reports whether the engines should consult the
	// subtree memo at depth d: a bound level below the projection
	// boundary, not the root and not the tail level, and below a
	// separator — some variable bound above d occurs in no atom active
	// at d. Without a separator the memo key (the active atoms' row
	// ranges) fixes every bound variable, so two prefixes never share
	// a key and the memo cannot hit; with one, prefixes that differ
	// only in separated variables can.
	MemoDepths []bool
}

// Classify analyzes order for the given spec. atoms[i] lists the
// variables of atom i in schema order; order must cover every variable
// of every atom. For specs with a projection the projected variables
// must form a prefix of order (apply Sink first); Classify returns an
// error otherwise.
func Classify(order []string, atoms [][]string, spec Spec) (*Classification, error) {
	n := len(order)
	pos := make(map[string]int, n)
	for d, v := range order {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("agg: order repeats variable %q", v)
		}
		pos[v] = d
	}
	if spec.Mode == ModeEnumerate && len(spec.Project) == 0 {
		return nil, fmt.Errorf("agg: enumerate mode requires a projection")
	}
	projected := make(map[string]bool, len(spec.Project))
	for _, v := range spec.Project {
		if _, ok := pos[v]; !ok {
			return nil, fmt.Errorf("agg: projected variable %q is not in the order", v)
		}
		if projected[v] {
			return nil, fmt.Errorf("agg: projection repeats variable %q", v)
		}
		projected[v] = true
	}
	enumEnd := len(spec.Project)
	for _, v := range spec.Project {
		if pos[v] >= enumEnd {
			return nil, fmt.Errorf("agg: projected variable %q at level %d is outside the projected prefix (order must be sunk)", v, pos[v])
		}
	}

	// participants[d] = atoms containing order[d]; lastLevel[i] = the
	// deepest global level of atom i.
	numParticipants := make([]int, n)
	lastLevel := make([]int, len(atoms))
	for i, vars := range atoms {
		lastLevel[i] = -1
		for _, v := range vars {
			d, ok := pos[v]
			if !ok {
				return nil, fmt.Errorf("agg: atom %d variable %q is not in the order", i, v)
			}
			numParticipants[d]++
			if d > lastLevel[i] {
				lastLevel[i] = d
			}
		}
	}
	// reach[d] = the deepest level of any atom containing order[d]:
	// the variable is in an active atom's key through depth reach[d].
	reach := make([]int, n)
	for i, vars := range atoms {
		for _, v := range vars {
			reach[pos[v]] = max(reach[pos[v]], lastLevel[i])
		}
	}

	countFrom := n
	for d := n - 1; d >= enumEnd; d-- {
		if numParticipants[d] != 1 {
			break
		}
		countFrom = d
	}

	c := &Classification{
		Spec:        spec,
		Order:       append([]string(nil), order...),
		Classes:     make([]Class, n),
		EnumEnd:     enumEnd,
		CountFrom:   countFrom,
		ActiveAtoms: make([][]int, n),
		BoundLevel:  make([][]int, n),
		MemoDepths:  make([]bool, n),
	}
	// minReach = the least reach of a variable bound above d: below
	// it, that variable is in no active atom.
	minReach := n
	for d := 0; d < n; d++ {
		if d > 0 {
			minReach = min(minReach, reach[d-1])
		}
		switch {
		case d < enumEnd:
			c.Classes[d] = FreeOutput
		case d >= countFrom || d == n-1:
			// The deepest level of a counting or existence check is
			// free-counted even when shared: its subtree cardinality is
			// the size of the level intersection, no recursion needed.
			c.Classes[d] = FreeCounted
		default:
			c.Classes[d] = Bound
		}
		for i := range atoms {
			if lastLevel[i] >= d {
				c.ActiveAtoms[d] = append(c.ActiveAtoms[d], i)
				bound := 0
				for _, v := range atoms[i] {
					if pos[v] < d {
						bound++
					}
				}
				c.BoundLevel[d] = append(c.BoundLevel[d], bound)
			}
		}
		c.MemoDepths[d] = d > 0 && d >= enumEnd && c.Classes[d] == Bound && minReach < d
	}
	return c, nil
}

// Sink reorders order so that the variables the aggregate-aware
// engines never need to enumerate move, stably, to the end:
//
//   - with a projection (ModeEnumerate, or ModeCount over distinct
//     projected tuples) every non-projected variable is sunk —
//     projected variables keep their relative order up front, then the
//     sunk shared variables, then the sunk single-atom variables;
//   - without a projection (full ModeCount, ModeExists) the variables
//     occurring in exactly one atom are sunk, enabling the
//     free-counted suffix multiplication.
//
// The result is a permutation of order; passing it to the planner's
// CheckOrder stays valid. Sink is idempotent: re-sinking a sunk order
// returns it unchanged, so the planner and the engines can both apply
// it without coordinating.
func Sink(order []string, atoms [][]string, spec Spec) []string {
	keep, sunk := SinkPartition(order, atoms, spec)
	out := make([]string, 0, len(order))
	out = append(out, keep...)
	out = append(out, sunk...)
	return out
}

// SinkPartition splits order into the kept prefix and the sunk suffix
// Sink would concatenate; the cost-based planner enumerates orders
// over the kept variables only, with the sunk sequence fixed behind
// them.
func SinkPartition(order []string, atoms [][]string, spec Spec) (keep, sunk []string) {
	occurrences := make(map[string]int)
	for _, vars := range atoms {
		for _, v := range vars {
			occurrences[v]++
		}
	}
	projected := make(map[string]bool, len(spec.Project))
	for _, v := range spec.Project {
		projected[v] = true
	}
	keep = make([]string, 0, len(order))
	var sharedSunk, privateSunk []string
	for _, v := range order {
		switch {
		case len(spec.Project) > 0 && projected[v]:
			keep = append(keep, v)
		case len(spec.Project) > 0:
			// Projected away: sink. Shared variables first so the
			// free-counted suffix is as long as possible.
			if occurrences[v] > 1 {
				sharedSunk = append(sharedSunk, v)
			} else {
				privateSunk = append(privateSunk, v)
			}
		case occurrences[v] == 1:
			privateSunk = append(privateSunk, v)
		default:
			keep = append(keep, v)
		}
	}
	return keep, append(sharedSunk, privateSunk...)
}

// Memo caches subtree results keyed by the row-range signature of the
// active atoms at a depth — the per-(trie,prefix) table that lets a
// subtree below a separator be counted once. It is single-goroutine
// state: the sharded engines give each chunk its own Memo, so results
// stay deterministic for a fixed worker count.
//
// The memo watches its own hit rate and stops probing (and inserting)
// once a workload has demonstrated it never revisits a signature, so
// memo upkeep cannot asymptotically slow a memo-hostile query.
type Memo struct {
	m      map[string]int64
	key    []byte
	probes uint64
	hits   uint64
	off    bool
}

// Memo tuning: after disableCheckAfter probes the memo turns itself
// off unless at least 1/disableHitFraction of probes hit; maxEntries
// bounds memory on adversarial workloads.
const (
	disableCheckAfter  = 1 << 12
	disableHitFraction = 32
	maxEntries         = 1 << 20
)

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{m: make(map[string]int64)} }

// Mul multiplies two non-negative counts, reporting overflow instead
// of wrapping: a free-counted product over a handful of large private
// ranges can exceed int64 in one step (a cross product of five 100k
// relations is 10^25), and a silently wrapped count would violate the
// engines' identical-to-enumeration contract.
func Mul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// ErrCountOverflow is returned by the counting engines when a result
// cardinality exceeds int64.
var ErrCountOverflow = fmt.Errorf("agg: result count overflows int64")

// Enabled reports whether the memo is still probing.
func (m *Memo) Enabled() bool {
	if m == nil || m.off {
		return false
	}
	if m.probes >= disableCheckAfter && m.hits*disableHitFraction < m.probes {
		m.off = true
		return false
	}
	return true
}

// Key builds the lookup key for depth d from the active atoms' row
// ranges, given as (lo, hi) pairs. The returned slice is reused by the
// next Key call; Get/Put must be called before then.
func (m *Memo) Key(d int, ranges []int) []byte {
	k := m.key[:0]
	k = binary.AppendUvarint(k, uint64(d))
	for _, r := range ranges {
		k = binary.AppendUvarint(k, uint64(r))
	}
	m.key = k
	return k
}

// Get looks up a previously stored subtree result.
func (m *Memo) Get(key []byte) (int64, bool) {
	m.probes++
	v, ok := m.m[string(key)]
	if ok {
		m.hits++
	}
	return v, ok
}

// Put stores a subtree result.
func (m *Memo) Put(key []byte, v int64) {
	if len(m.m) >= maxEntries {
		return
	}
	m.m[string(key)] = v
}
