package query

import (
	"testing"

	"wcoj/internal/baseline"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

func TestParseTriangle(t *testing.T) {
	p, err := Parse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).")
	if err != nil {
		t.Fatal(err)
	}
	if p.HeadName != "Q" || len(p.HeadVars) != 3 || len(p.Atoms) != 3 {
		t.Fatalf("parsed: %+v", p)
	}
	if p.Atoms[1].Name != "S" || p.Atoms[1].Vars[1] != "C" {
		t.Fatalf("atom: %+v", p.Atoms[1])
	}
	if p.String() != "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)." {
		t.Fatalf("String = %q", p.String())
	}
}

func TestParseVariants(t *testing.T) {
	for _, src := range []string{
		"Q(A) <- R(A)",
		"Q(A) ← R(A).",
		"  Q ( A )  :-  R ( A )  .  ",
		"Q(Long_Name1,B2) :- Rel_3(Long_Name1,B2)",
	} {
		if _, err := Parse(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"Q(A)",
		"Q(A) :-",
		"Q(A) : R(A)",
		"Q(A) :- R(A) extra",
		"Q() :- R(A)",
		"Q(A :- R(A)",
		"Q(A) :- R(A,)",
		"1Q(A) :- R(A)",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("%q should fail to parse", src)
		}
	}
}

func TestBind(t *testing.T) {
	db := relation.NewDatabase()
	tri := dataset.TriangleAGMTight(25)
	db.Put(tri.R)
	db.Put(tri.S)
	db.Put(tri.T)
	p, err := Parse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := baseline.JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 125 { // 5^3
		t.Fatalf("bound query output = %d, want 125", out.Len())
	}
	// Unknown relation.
	p2, _ := Parse("Q(A,B) :- Nope(A,B)")
	if _, err := p2.Bind(db); err == nil {
		t.Fatal("unknown relation must fail to bind")
	}
	// Arity mismatch.
	p3, _ := Parse("Q(A) :- R(A)")
	if _, err := p3.Bind(db); err == nil {
		t.Fatal("arity mismatch must fail to bind")
	}
	// Non-full query (variable not in head).
	p4, _ := Parse("Q(A) :- R(A,B)")
	if _, err := p4.Bind(db); err == nil {
		t.Fatal("non-full query must fail to bind")
	}
}
