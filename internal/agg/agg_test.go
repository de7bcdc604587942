package agg

import (
	"fmt"
	"reflect"
	"testing"
)

// triangleAtoms is R(A,B), S(B,C), T(A,C).
var triangleAtoms = [][]string{{"A", "B"}, {"B", "C"}, {"A", "C"}}

// path4Atoms is E1(A,B), E2(B,C), E3(C,D).
var path4Atoms = [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}

func TestClassifyTriangleCount(t *testing.T) {
	c, err := Classify([]string{"A", "B", "C"}, triangleAtoms, Spec{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	// Every variable is shared by two atoms: no multiplicative suffix,
	// but the deepest level is still counted from its intersection.
	if c.CountFrom != 3 {
		t.Errorf("CountFrom = %d, want 3", c.CountFrom)
	}
	want := []Class{Bound, Bound, FreeCounted}
	if !reflect.DeepEqual(c.Classes, want) {
		t.Errorf("Classes = %v, want %v", c.Classes, want)
	}
	if c.EnumEnd != 0 {
		t.Errorf("EnumEnd = %d, want 0", c.EnumEnd)
	}
	// All three atoms stay active through level 2 (each has a level-2
	// variable except R, which ends at level 1).
	if got := c.ActiveAtoms[2]; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("ActiveAtoms[2] = %v, want [1 2]", got)
	}
	// At depth 2, S and T each have one variable bound.
	if got := c.BoundLevel[2]; !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("BoundLevel[2] = %v, want [1 1]", got)
	}
	// A, bound above depth 1, is in R and T, both active there: no
	// separator, so no memo level.
	if want := []bool{false, false, false}; !reflect.DeepEqual(c.MemoDepths, want) {
		t.Errorf("MemoDepths = %v, want %v", c.MemoDepths, want)
	}
}

// TestClassifyMemoDepths: the memo is consulted only at bound levels
// below a separator — a variable bound above the level that no atom
// active at the level contains.
func TestClassifyMemoDepths(t *testing.T) {
	cycle4 := [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}}
	clique4 := [][]string{{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "C"}, {"B", "D"}, {"C", "D"}}
	// Two triangles sharing A: R,S,T on (A,B,C), U,V,W on (A,D,F).
	bowtie := [][]string{{"A", "B"}, {"B", "C"}, {"A", "C"}, {"A", "D"}, {"D", "F"}, {"A", "F"}}
	for _, tc := range []struct {
		name  string
		order []string
		atoms [][]string
		spec  Spec
		want  []bool
	}{
		{"cycle4", []string{"A", "B", "C", "D"}, cycle4, Spec{Mode: ModeCount}, []bool{false, false, false, false}},
		{"clique4", []string{"A", "B", "C", "D"}, clique4, Spec{Mode: ModeExists}, []bool{false, false, false, false}},
		// Only U, V, W are active at D, and none holds B or C.
		{"bowtie", []string{"A", "B", "C", "D", "F"}, bowtie, Spec{Mode: ModeCount}, []bool{false, false, false, true, false}},
		// Projected to A: E1, the only atom holding A, ends at B, so
		// C is below a separator.
		{"path4-project-A", []string{"A", "B", "C", "D"}, path4Atoms,
			Spec{Mode: ModeEnumerate, Project: []string{"A"}}, []bool{false, false, true, false}},
	} {
		c, err := Classify(tc.order, tc.atoms, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(c.MemoDepths, tc.want) {
			t.Errorf("%s: MemoDepths = %v, want %v", tc.name, c.MemoDepths, tc.want)
		}
	}
}

func TestClassifyPathCountSunk(t *testing.T) {
	spec := Spec{Mode: ModeCount}
	sunk := Sink([]string{"A", "B", "C", "D"}, path4Atoms, spec)
	// A and D occur in one atom each: they sink behind the shared B, C.
	if want := []string{"B", "C", "A", "D"}; !reflect.DeepEqual(sunk, want) {
		t.Fatalf("Sink = %v, want %v", sunk, want)
	}
	c, err := Classify(sunk, path4Atoms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountFrom != 2 {
		t.Errorf("CountFrom = %d, want 2", c.CountFrom)
	}
	want := []Class{Bound, Bound, FreeCounted, FreeCounted}
	if !reflect.DeepEqual(c.Classes, want) {
		t.Errorf("Classes = %v, want %v", c.Classes, want)
	}
	// At the multiplication point (depth 2) all three atoms are active:
	// E1 and E3 each contribute a range product factor, E2 is fully
	// bound after depth 2... E2's last variable C is at level 1, so it
	// is inactive from depth 2 on.
	if got := c.ActiveAtoms[2]; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("ActiveAtoms[2] = %v, want [0 2]", got)
	}
	if got := c.BoundLevel[2]; !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("BoundLevel[2] = %v, want [1 1]", got)
	}
}

func TestClassifyProjection(t *testing.T) {
	spec := Spec{Mode: ModeEnumerate, Project: []string{"A", "B"}}
	order := Sink([]string{"A", "B", "C", "D"}, path4Atoms, spec)
	if want := []string{"A", "B", "C", "D"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("Sink = %v, want %v", order, want)
	}
	c, err := Classify(order, path4Atoms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.EnumEnd != 2 {
		t.Errorf("EnumEnd = %d, want 2", c.EnumEnd)
	}
	want := []Class{FreeOutput, FreeOutput, Bound, FreeCounted}
	if !reflect.DeepEqual(c.Classes, want) {
		t.Errorf("Classes = %v, want %v", c.Classes, want)
	}
}

func TestClassifyProjectionSinksShared(t *testing.T) {
	// Projecting the endpoints away: the shared B, C sink ahead of the
	// single-atom D so the counted suffix is maximal.
	spec := Spec{Mode: ModeEnumerate, Project: []string{"A"}}
	order := Sink([]string{"A", "B", "C", "D"}, path4Atoms, spec)
	if want := []string{"A", "B", "C", "D"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("Sink = %v, want %v", order, want)
	}
	spec2 := Spec{Mode: ModeEnumerate, Project: []string{"D"}}
	order2 := Sink([]string{"A", "B", "C", "D"}, path4Atoms, spec2)
	if want := []string{"D", "B", "C", "A"}; !reflect.DeepEqual(order2, want) {
		t.Fatalf("Sink = %v, want %v", order2, want)
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify([]string{"A", "A"}, triangleAtoms, Spec{Mode: ModeCount}); err == nil {
		t.Error("duplicate order variable not rejected")
	}
	if _, err := Classify([]string{"A", "B", "C"}, triangleAtoms, Spec{Mode: ModeEnumerate}); err == nil {
		t.Error("enumerate without projection not rejected")
	}
	if _, err := Classify([]string{"A", "B", "C"}, triangleAtoms,
		Spec{Mode: ModeEnumerate, Project: []string{"X"}}); err == nil {
		t.Error("unknown projected variable not rejected")
	}
	if _, err := Classify([]string{"A", "B", "C"}, triangleAtoms,
		Spec{Mode: ModeEnumerate, Project: []string{"A", "A"}}); err == nil {
		t.Error("duplicate projected variable not rejected")
	}
	// Projection must be a prefix: B,C projected but order starts A.
	if _, err := Classify([]string{"A", "B", "C"}, triangleAtoms,
		Spec{Mode: ModeEnumerate, Project: []string{"B", "C"}}); err == nil {
		t.Error("non-prefix projection not rejected")
	}
	if _, err := Classify([]string{"A", "B"}, triangleAtoms, Spec{Mode: ModeCount}); err == nil {
		t.Error("order missing an atom variable not rejected")
	}
}

func TestMemoRoundTrip(t *testing.T) {
	m := NewMemo()
	k := m.Key(2, []int{0, 10, 5, 9})
	if _, ok := m.Get(k); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.Put(k, 42)
	k2 := m.Key(2, []int{0, 10, 5, 9})
	v, ok := m.Get(k2)
	if !ok || v != 42 {
		t.Fatalf("Get = %d,%v after Put 42", v, ok)
	}
	// Same ranges at a different depth are a different subtree.
	k3 := m.Key(3, []int{0, 10, 5, 9})
	if _, ok := m.Get(k3); ok {
		t.Fatal("depth is not part of the key")
	}
	if m.hits != 1 {
		t.Fatalf("hits = %d, want 1", m.hits)
	}
}

func TestMemoAdaptiveDisable(t *testing.T) {
	m := NewMemo()
	for i := 0; i < disableCheckAfter+1; i++ {
		if !m.Enabled() {
			break
		}
		k := m.Key(1, []int{i, i + 1})
		if _, ok := m.Get(k); !ok {
			m.Put(k, 1)
		}
	}
	if m.Enabled() {
		t.Fatal("memo stayed enabled despite a zero hit rate")
	}
	// A memo with a healthy hit rate stays on.
	h := NewMemo()
	k := h.Key(1, []int{1, 2})
	h.Put(k, 7)
	for i := 0; i < disableCheckAfter+1; i++ {
		h.Get(h.Key(1, []int{1, 2}))
	}
	if !h.Enabled() {
		t.Fatal("memo disabled despite a 100% hit rate")
	}
}

func TestModeAndClassStrings(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{ModeEnumerate.String(), "enumerate"},
		{ModeCount.String(), "count"},
		{ModeExists.String(), "exists"},
		{Mode(99).String(), "Mode(99)"},
		{Bound.String(), "bound"},
		{FreeOutput.String(), "free-output"},
		{FreeCounted.String(), "free-counted"},
		{Class(99).String(), "Class(99)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestMulOverflow(t *testing.T) {
	const maxI64 = int64(^uint64(0) >> 1)
	cases := []struct {
		a, b, want int64
		ok         bool
	}{
		{0, maxI64, 0, true},
		{maxI64, 0, 0, true},
		{1, maxI64, maxI64, true},
		{100000, 100000, 10000000000, true},
		{maxI64, 2, 0, false},
		{3037000500, 3037000500, 0, false}, // ~sqrt(2^63) squared overflows
	}
	for _, c := range cases {
		got, ok := Mul(c.a, c.b)
		if got != c.want || ok != c.ok {
			t.Errorf("Mul(%d, %d) = (%d, %v), want (%d, %v)", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestClassifyFullyFactorizable(t *testing.T) {
	// Cartesian product R(A) x S(B): both variables are private, the
	// whole order is a counted suffix.
	atoms := [][]string{{"A"}, {"B"}}
	c, err := Classify([]string{"A", "B"}, atoms, Spec{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if c.CountFrom != 0 {
		t.Errorf("CountFrom = %d, want 0", c.CountFrom)
	}
	if got := fmt.Sprint(c.Classes); got != "[free-counted free-counted]" {
		t.Errorf("Classes = %s", got)
	}
}
