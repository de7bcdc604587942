package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// TestShardStarts: both partitions cover [0,n) with contiguous,
// non-empty chunks no larger than the balanced size. Without the ramp
// they are the min(workers·shardChunkFactor, n) balanced chunks; with
// it the first chunks hold 1, 2, 4, … values while that is below the
// balanced size.
func TestShardStarts(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for workers := 2; workers <= 5; workers++ {
			chunks := min(workers*shardChunkFactor, n)
			size := (n + chunks - 1) / chunks
			for _, ramp := range []bool{false, true} {
				starts, w := shardStarts(n, workers, ramp)
				if starts[0] != 0 || starts[len(starts)-1] != n {
					t.Fatalf("n=%d workers=%d ramp=%v: starts %v do not cover [0,n)", n, workers, ramp, starts)
				}
				if w != min(workers, len(starts)-1) {
					t.Fatalf("n=%d workers=%d ramp=%v: %d workers for %d chunks", n, workers, ramp, w, len(starts)-1)
				}
				for c := 0; c+1 < len(starts); c++ {
					if sz := starts[c+1] - starts[c]; sz < 1 || sz > size {
						t.Fatalf("n=%d workers=%d ramp=%v: chunk %d holds %d values, want 1..%d", n, workers, ramp, c, sz, size)
					}
				}
				if !ramp && len(starts)-1 != chunks {
					t.Fatalf("n=%d workers=%d: %d balanced chunks, want %d", n, workers, len(starts)-1, chunks)
				}
				if ramp {
					for c, want := 0, 1; want < n/chunks; c, want = c+1, want*2 {
						if sz := starts[c+1] - starts[c]; sz != want {
							t.Fatalf("n=%d workers=%d: ramp chunk %d holds %d values, want %d", n, workers, c, sz, want)
						}
					}
				}
			}
		}
	}
}

// TestShardedRunner holds runSharded to its contract under each reducer
// — ordered replay into a sink, an uncapped sum, a sum capped at one —
// and each way a run ends: cleanly, on a chunk's own error, on the
// sink's error (a LIMIT), at the cap, on a cancellation, and on a
// cancellation from the sink's last tuple, which leaves the answer
// whole and so must not fail the run. The chunks stand in for
// searches: every value adds one recursion to the chunk's Stats and,
// with a sink, is emitted as a one-value tuple; it counts one, except
// under the cap, where only the witness counts. A chunk polls the stop
// flag on entry, and every chunk past the value a row acts at runs
// until the fleet is stopped and then unwinds, as a long search would.
// That value also cancels the run's context, so a chunk error and a
// reached cap are both shown to outrank the cancellation and the
// unwound chunks.
func TestShardedRunner(t *testing.T) {
	const n, workers = 300, 4
	errChunk := errors.New("chunk failed")
	errLimit := errors.New("limit reached")
	const none = -1
	type ending struct {
		name string
		// at is the value that cancels the context and then fails the
		// chunk with errChunk (fail), unwinds it as a search's poll would
		// (unwind), or is the witness; none for no action.
		at            int
		fail, unwind  bool
		witness       bool
		limit         int  // the sink's emit fails on this tuple; 0 never
		lateCancel    bool // the sink's emit cancels on the last tuple
		sinkOnly, cap bool
	}
	endings := []ending{
		{name: "clean", at: none},
		{name: "chunk-error", at: 200, fail: true},
		{name: "limit", at: none, limit: 50, sinkOnly: true},
		{name: "late-cap", at: 200, witness: true, cap: true},
		{name: "cancel", at: 150, unwind: true},
		{name: "late-cancel", at: none, lateCancel: true, sinkOnly: true},
	}
	reducers := []struct {
		name string
		sink bool
		cap  int64
	}{{"sink", true, uncapped}, {"uncapped", false, uncapped}, {"cap1", false, 1}}
	for _, red := range reducers {
		for _, e := range endings {
			if e.sinkOnly && !red.sink || e.cap && red.cap == uncapped {
				continue
			}
			t.Run(red.name+"/"+e.name, func(t *testing.T) {
				for range 10 {
					ctx, cancel := context.WithCancel(context.Background())
					var replay []relation.Value
					var sink *bufferSink
					if red.sink {
						sink = newBufferSink(1, func(tu relation.Tuple) error {
							if replay = append(replay, tu[0]); len(replay) == e.limit {
								return errLimit
							}
							if e.lateCancel && len(replay) == n {
								cancel()
							}
							return nil
						})
					}
					stats := Stats{Recursions: 7}
					got, err := runSharded(ctx, n, workers, red.cap, &stats, sink, func(lo, hi int, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) (int64, error) {
						unwind := func() (int64, error) {
							for !stop.Load() {
								runtime.Gosched()
							}
							return 0, ErrAborted
						}
						if stop.Load() || e.at != none && lo > e.at {
							return unwind()
						}
						var k int64
						for v := lo; v < hi; v++ {
							st.Recursions++
							if v == e.at {
								cancel()
								if e.fail {
									return 0, errChunk
								}
								if e.unwind {
									return unwind()
								}
							}
							if emit != nil {
								if err := emit(relation.Tuple{relation.Value(v)}); err != nil {
									return 0, err
								}
							}
							if red.cap == uncapped || e.witness && v == e.at {
								k++
							}
						}
						return k, nil
					})
					cancel()
					var want int64
					var wantErr error
					switch {
					case e.fail:
						wantErr = errChunk
					case e.limit > 0:
						wantErr = errLimit
					case e.unwind:
						wantErr = context.Canceled
					case e.witness:
						want = 1
					case red.cap == uncapped:
						want = n
					}
					if got != want || !errors.Is(err, wantErr) {
						t.Fatalf("runSharded = %d, %v; want %d, %v", got, err, want, wantErr)
					}
					if errors.Is(err, ErrAborted) {
						t.Fatal("ErrAborted escaped the runner")
					}
					for i, v := range replay {
						if v != relation.Value(i) {
							t.Fatalf("replay %v is not the sorted prefix of the values", replay)
						}
					}
					if red.sink && err == nil && len(replay) != n || e.limit > 0 && len(replay) != e.limit {
						t.Fatalf("replayed %d tuples", len(replay))
					}
					if err == nil && !e.witness && stats.Recursions != 7+n {
						t.Fatalf("merged Stats hold %d recursions, want every chunk's %d on top of 7", stats.Recursions, n)
					}
					if b := coresBusy.Load(); b != 0 {
						t.Fatalf("%d budget slots still held after the run returned", b)
					}
				}
			})
		}
	}
}

// BenchmarkShardedRunner times runSharded under each reducer at p=2:
// through the triangle search on a power-law graph, whose hubs all sit
// at the low ids, and over trivial chunks (one count and, ordered, one
// buffered tuple per value), where only the runner's own overhead is
// left. The triangle's exists stops at a witness found at once; the
// trivial run's only witness is the last value, so it runs every chunk.
func BenchmarkShardedRunner(b *testing.B) {
	ctx := context.Background()
	const workers = 2
	e := dataset.PowerLawGraph(2000, 20000, 1.0, 1)
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "E", Vars: []string{"A", "B"}, Rel: e},
		{Name: "E", Vars: []string{"B", "C"}, Rel: e},
		{Name: "E", Vars: []string{"A", "C"}, Rel: e},
	})
	if err != nil {
		b.Fatal(err)
	}
	memo := new(TrieMemo)
	p, err := BuildPlanSrc(memo, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	aggRun := func(mode agg.Mode) func(b *testing.B) {
		ap, cls, err := AggPlanSrc(memo, q, nil, agg.Spec{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		return func(b *testing.B) {
			for range b.N {
				if _, _, err := GenericJoinAggPlan(ctx, ap, cls, MaterializeLevel, workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("triangle/ordered", func(b *testing.B) {
		for range b.N {
			if _, err := GenericJoinPlanVisit(ctx, p, nil, MaterializeLevel, workers, &Stats{}, func(relation.Tuple) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("triangle/count", aggRun(agg.ModeCount))
	b.Run("triangle/exists", aggRun(agg.ModeExists))

	const n = 4096
	for _, c := range []struct {
		name    string
		ordered bool
		cap     int64
	}{{"ordered", true, uncapped}, {"count", false, uncapped}, {"exists", false, 1}} {
		b.Run(fmt.Sprintf("trivial/%s", c.name), func(b *testing.B) {
			for range b.N {
				var sink *bufferSink
				if c.ordered {
					sink = newBufferSink(1, func(relation.Tuple) error { return nil })
				}
				_, err := runSharded(ctx, n, workers, c.cap, &Stats{}, sink, func(lo, hi int, _ *Stats, _ *atomic.Bool, emit func(relation.Tuple) error) (int64, error) {
					for v := lo; emit != nil && v < hi; v++ {
						if err := emit(relation.Tuple{relation.Value(v)}); err != nil {
							return 0, err
						}
					}
					switch {
					case c.cap == uncapped:
						return int64(hi - lo), nil
					case hi == n: // the last value is the only witness
						return 1, nil
					}
					return 0, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
