package core

import (
	"fmt"
	"math"

	"wcoj/internal/relation"
)

// TriangleHeavyLight evaluates the triangle query
//
//	Q(A,B,C) ← R(A,B), S(B,C), T(A,C)
//
// with Algorithm 2 of the paper, the algorithm read off the entropy
// (submodularity) proof of 2H[ABC] ≤ H[AB] + H[BC] + H[AC]:
//
//	θ      ← sqrt(|R|·|S|/|T|)
//	Rheavy ← {(a,b) ∈ R : |σ_{A=a}R| > θ}
//	Rlight ← R − Rheavy
//	return (Rheavy ⋈ S) ⋉ T  ∪  (Rlight ⋈ T) ⋉ S
//
// Both branches produce at most sqrt(|R|·|S|·|T|) intermediate tuples,
// so the runtime is Õ(N + sqrt(|R|·|S|·|T|)) — worst-case optimal.
//
// The relations must follow the triangle pattern: R and S share exactly
// one attribute (B), S and T share exactly one (C), and T and R share
// exactly one (A), with R = (A,B), S = (B,C), T = (A,C) up to names.
func TriangleHeavyLight(r, s, t *relation.Relation) (*relation.Relation, *Stats, error) {
	a, b, c, err := trianglePattern(r, s, t)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	if r.Len() == 0 || s.Len() == 0 || t.Len() == 0 {
		return relation.Empty("Q", a, b, c), stats, nil
	}
	theta := math.Sqrt(float64(r.Len()) * float64(s.Len()) / float64(t.Len()))
	threshold := int(math.Floor(theta))

	heavy, light, err := r.Partition([]string{a}, threshold)
	if err != nil {
		return nil, nil, err
	}

	// Heavy branch: (Rheavy ⋈ S) ⋉ T. |Rheavy ⋈ S| ≤ (|R|/θ)·|S| =
	// sqrt(|R||S||T|).
	hs, err := relation.Join(heavy, s)
	if err != nil {
		return nil, nil, err
	}
	if hs.Len() > stats.Intermediate {
		stats.Intermediate = hs.Len()
	}
	hst, err := hs.Semijoin(t)
	if err != nil {
		return nil, nil, err
	}

	// Light branch: (Rlight ⋈ T) ⋉ S. |Rlight ⋈ T| ≤ θ·|T| =
	// sqrt(|R||S||T|).
	lt, err := relation.Join(light, t)
	if err != nil {
		return nil, nil, err
	}
	if lt.Len() > stats.Intermediate {
		stats.Intermediate = lt.Len()
	}
	lts, err := lt.Semijoin(s)
	if err != nil {
		return nil, nil, err
	}

	// Normalize both to (a, b, c) and union.
	hOut, err := hst.Project(a, b, c)
	if err != nil {
		return nil, nil, err
	}
	lOut, err := lts.Project(a, b, c)
	if err != nil {
		return nil, nil, err
	}
	res, err := hOut.Union(lOut)
	if err != nil {
		return nil, nil, err
	}
	res, err = res.Rename("Q", a, b, c)
	if err != nil {
		return nil, nil, err
	}
	stats.Output = res.Len()
	return res, stats, nil
}

// trianglePattern validates the triangle schema and returns the
// attribute names (a, b, c) with r=(a,b), s=(b,c), t=(a,c).
func trianglePattern(r, s, t *relation.Relation) (string, string, string, error) {
	if r.Arity() != 2 || s.Arity() != 2 || t.Arity() != 2 {
		return "", "", "", fmt.Errorf("core: triangle relations must be binary, got %d/%d/%d",
			r.Arity(), s.Arity(), t.Arity())
	}
	shared := func(x, y *relation.Relation) []string {
		var out []string
		for _, a := range x.Attrs() {
			if y.HasAttr(a) {
				out = append(out, a)
			}
		}
		return out
	}
	rs, st, tr := shared(r, s), shared(s, t), shared(t, r)
	if len(rs) != 1 || len(st) != 1 || len(tr) != 1 {
		return "", "", "", fmt.Errorf("core: relations do not form a triangle pattern: shared attrs %v/%v/%v", rs, st, tr)
	}
	b, c, a := rs[0], st[0], tr[0]
	if a == b || b == c || a == c {
		return "", "", "", fmt.Errorf("core: degenerate triangle pattern (a=%s b=%s c=%s)", a, b, c)
	}
	return a, b, c, nil
}
