package wcoj

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// ctxTestQuery binds the unabortable-without-polling product query
// over a complete bipartite K (same shape as the prepared-query
// cancellation tests, ~26G results at 150x150).
func ctxTestQuery(t testing.TB) *Query {
	t.Helper()
	db := NewDatabase()
	b := NewRelationBuilder("K", "x", "y")
	for i := 0; i < 150; i++ {
		for j := 0; j < 150; j++ {
			if err := b.Add(Value(i), Value(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Put(b.Build())
	q, err := MustParse("Q(A,B,C,D) :- K(A,B), K(B,C), K(C,D)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestOptionsContextCancellation: Options.Context cancels the free
// functions mid-run exactly like the ctx parameter of the prepared
// entry points — the search workers poll it and unwind promptly.
func TestOptionsContextCancellation(t *testing.T) {
	q := ctxTestQuery(t)
	for _, par := range []int{1, 4} {
		for _, a := range algoAxis {
			algo, name := a.algo, fmt.Sprintf("%s/p=%d", a.name, par)
			run := func(t *testing.T, f func(Options) error) {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				start := time.Now()
				err := f(Options{Algorithm: algo, Parallelism: par, Context: ctx, DisablePushdown: true})
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("cancellation took %v", elapsed)
				}
			}
			t.Run("execute/"+name, func(t *testing.T) {
				run(t, func(o Options) error { _, _, err := Execute(q, o); return err })
			})
			t.Run("count/"+name, func(t *testing.T) {
				run(t, func(o Options) error { _, _, err := Count(q, o); return err })
			})
			t.Run("executefunc/"+name, func(t *testing.T) {
				run(t, func(o Options) error {
					_, err := ExecuteFunc(q, o, func(Tuple) error { return nil })
					return err
				})
			})
		}
	}
}

// TestOptionsContextPreChecked: backtracking is the same search, so
// Options.Context cancels it mid-run too, at every parallelism; an
// already-cancelled context stops it before it starts.
func TestOptionsContextPreChecked(t *testing.T) {
	q := ctxTestQuery(t)
	for _, par := range []int{1, 4} {
		opts := func(ctx context.Context) Options {
			return Options{Algorithm: AlgoBacktracking, Parallelism: par, Context: ctx, DisablePushdown: true}
		}
		for name, f := range map[string]func(Options) error{
			"Execute": func(o Options) error { _, _, err := Execute(q, o); return err },
			"Count":   func(o Options) error { _, _, err := Count(q, o); return err },
			"ExecuteFunc": func(o Options) error {
				_, err := ExecuteFunc(q, o, func(Tuple) error { return nil })
				return err
			},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			start := time.Now()
			err := f(opts(ctx))
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("p=%d %s: err = %v, want deadline exceeded", par, name, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("p=%d %s: cancellation took %v", par, name, elapsed)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := Exists(q, opts(ctx)); !errors.Is(err, context.Canceled) {
			t.Errorf("p=%d Exists: err = %v, want canceled", par, err)
		}
	}
}

// TestCountPushdownToggle: Count with and without DisablePushdown
// agree, for plain and projected counting, on both WCOJ algorithms.
func TestCountPushdownToggle(t *testing.T) {
	db := NewDatabase()
	b := NewRelationBuilder("E", "x", "y")
	for i := 0; i < 40; i++ {
		for _, j := range []int{(i * 3) % 40, (i * 7) % 40, (i + 11) % 40} {
			if err := b.Add(Value(i), Value(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Put(b.Build())
	q, err := MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoBacktracking} {
		base := Options{Algorithm: algo}
		push, pushStats, err := Count(q, base)
		if err != nil {
			t.Fatal(err)
		}
		slow := base
		slow.DisablePushdown = true
		enum, _, err := Count(q, slow)
		if err != nil {
			t.Fatal(err)
		}
		if push != enum {
			t.Fatalf("%v: pushdown count %d vs enumerated %d", algo, push, enum)
		}
		if pushStats.AggMultiplies == 0 && pushStats.Recursions >= push {
			t.Errorf("%v: pushdown plan took no shortcut (%+v)", algo, *pushStats)
		}
		proj := base
		proj.Project = []string{"A"}
		pn, _, err := Count(q, proj)
		if err != nil {
			t.Fatal(err)
		}
		projSlow := proj
		projSlow.DisablePushdown = true
		pn2, _, err := Count(q, projSlow)
		if err != nil {
			t.Fatal(err)
		}
		if pn != pn2 {
			t.Fatalf("%v: projected count %d vs %d under DisablePushdown", algo, pn, pn2)
		}
	}
}

// TestExplainCarriesCountPlan: Explain reports the pushdown count plan
// in its Count field, unless DisablePushdown clears it.
func TestExplainCarriesCountPlan(t *testing.T) {
	db := NewDatabase()
	b := NewRelationBuilder("E", "x", "y")
	for i := 0; i < 10; i++ {
		if err := b.Add(Value(i), Value((i+1)%10)); err != nil {
			t.Fatal(err)
		}
	}
	db.Put(b.Build())
	q, err := MustParse("Q(A,B,C) :- E(A,B), E(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Count == nil {
		t.Fatal("Explain.Count is nil")
	}
	if e.Count.AggMode != "count" {
		t.Fatalf("Explain.Count.AggMode = %q, want count", e.Count.AggMode)
	}
	off, err := Explain(q, Options{DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Count != nil {
		t.Fatal("DisablePushdown must clear the count plan")
	}
}
