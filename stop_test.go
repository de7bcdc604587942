package wcoj

// Stoppability by execution. The search has one poll site
// (core's searcher.node), which checks the run's stop flag and draws
// from the node budget; the sharded runner adds two more: its claim
// loop skips the chunks left once the run is stopped, and its replay
// of a chunk's buffered output polls the flag too. Each test below
// fails when one of the three is removed.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wcoj/internal/core"
)

// stopWithin bounds how long a run may go on once its stop is due.
// The search polls every 256 nodes, so a stopped run returns within
// microseconds; the bound is wide for loaded and instrumented builds.
const stopWithin = 500 * time.Millisecond

// noWitnessDB registers E, the complete 4-partite digraph on 4·100
// vertices (vertex v in part v mod 4). The 5-clique query Q5 has no
// result on it, but every top-level value roots a subtree of ~6·10^6
// search nodes: seconds per value, and an empty result, so a run that
// does not stop neither finishes nor grows in memory while a test
// waits for it.
func noWitnessDB(t testing.TB) *DB {
	t.Helper()
	const parts, size = 4, 100
	b := NewRelationBuilder("E", "src", "dst")
	for i := 0; i < parts*size; i++ {
		for j := 0; j < parts*size; j++ {
			if i%parts != j%parts {
				if err := b.Add(Value(i), Value(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	db := NewDB()
	if err := db.Register(b.Build()); err != nil {
		t.Fatal(err)
	}
	return db
}

const q5 = "Q(A,B,C,D,F) :- E(A,B), E(A,C), E(A,D), E(A,F), E(B,C), E(B,D), E(B,F), E(C,D), E(C,F), E(D,F)"

// TestStopEveryMode: every algorithm, serial and sharded, in every
// execution mode, stops on a cancelled context with its error and on
// an exhausted node budget with ErrNodeBudget, within stopWithin of the
// stop being due. With no result to emit, only the search's own poll
// can stop these runs.
func TestStopEveryMode(t *testing.T) {
	db := noWitnessDB(t)
	modes := []struct {
		name    string
		project []string
		run     func(context.Context, *PreparedQuery) error
	}{
		{"Execute", nil, func(ctx context.Context, pq *PreparedQuery) error { _, _, err := pq.Execute(ctx); return err }},
		{"ExecuteFunc", nil, func(ctx context.Context, pq *PreparedQuery) error {
			_, err := pq.ExecuteFunc(ctx, func(Tuple) error { return nil })
			return err
		}},
		{"Count", nil, func(ctx context.Context, pq *PreparedQuery) error { _, _, err := pq.Count(ctx); return err }},
		{"Exists", nil, func(ctx context.Context, pq *PreparedQuery) error { _, _, err := pq.Exists(ctx); return err }},
		{"Project", []string{"A"}, func(ctx context.Context, pq *PreparedQuery) error { _, _, err := pq.Execute(ctx); return err }},
	}
	const timeout = 20 * time.Millisecond
	stops := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		due  time.Duration
		want error
	}{
		{"ctx", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), timeout)
		}, timeout, context.DeadlineExceeded},
		{"budget", func() (context.Context, context.CancelFunc) {
			return WithNodeBudget(context.Background(), 1000), func() {}
		}, 0, ErrNodeBudget},
	}
	for _, a := range withBacktracking() {
		for _, p := range []int{1, 2} {
			for _, m := range modes {
				pq, err := db.Prepare(q5, Options{Algorithm: a.algo, Parallelism: p, Project: m.project})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range stops {
					t.Run(fmt.Sprintf("%s/p=%d/%s/%s", a.name, p, m.name, s.name), func(t *testing.T) {
						ctx, cancel := s.ctx()
						defer cancel()
						done := make(chan error, 1)
						start := time.Now()
						go func() { done <- m.run(ctx, pq) }()
						select {
						case err := <-done:
							if !errors.Is(err, s.want) {
								t.Fatalf("err = %v after %v, want %v", err, time.Since(start), s.want)
							}
						case <-time.After(s.due + stopWithin):
							t.Fatalf("still running %v after the stop was due", stopWithin)
						}
					})
				}
			}
		}
	}
}

// TestStopReplayPoll: a sharded run replays each chunk's buffered
// tuples to emit, and the replay polls the stop flag every 256 tuples.
// An emit that cancels the run at its first tuple therefore sees fewer
// than 256 more, although chunk 0 — vertex 0 alone — buffers 9,900.
func TestStopReplayPoll(t *testing.T) {
	const fan = 100
	b := NewRelationBuilder("E", "src", "dst")
	for j := 1; j <= fan; j++ {
		if err := b.Add(0, Value(j)); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= fan; k++ {
			if j != k {
				if err := b.Add(Value(j), Value(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	db := NewDB()
	if err := db.Register(b.Build()); err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C)", Options{Order: []string{"A", "B", "C"}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err = pq.ExecuteFunc(ctx, func(Tuple) error {
		if emitted++; emitted == 1 {
			cancel()
			// The stop flag is set from a goroutine of its own once ctx
			// is done; give it time to run before replay goes on.
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted > 256 {
		t.Fatalf("%d tuples emitted after the run was cancelled at the first, want < 256", emitted-1)
	}
}

// TestStopSkipsUnclaimedChunks: once a sharded Exists has its witness,
// the chunks not yet claimed are skipped, not searched up to their
// first poll. The core budget is taken first, so the caller runs every
// chunk itself, in order: chunk 0 (vertex 0, on the one triangle)
// holds the witness, and the 31 chunks after it, over a triangle-free
// complete bipartite graph, must add no search node.
func TestStopSkipsUnclaimedChunks(t *testing.T) {
	const side = 100
	b := NewRelationBuilder("E", "src", "dst")
	edge := func(u, v int) {
		if err := b.Add(Value(u), Value(v)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v {
				edge(u, v)
			}
		}
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			edge(10+i, 10+side+j)
			edge(10+side+j, 10+i)
		}
	}
	db := NewDB()
	if err := db.Register(b.Build()); err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for range core.Cores() {
		var release func()
		ctx, release = core.HoldCore(ctx)
		defer release()
	}
	ok, st, err := pq.Exists(ctx)
	if err != nil || !ok {
		t.Fatalf("Exists = %v, %v; want true", ok, err)
	}
	// Chunk 0 finds the witness within a few nodes; a later chunk, if
	// searched, adds at least 101 (a vertex and its 100 neighbours).
	if st.Recursions > 100 {
		t.Fatalf("Exists searched %d nodes, want chunk 0's few", st.Recursions)
	}
}
