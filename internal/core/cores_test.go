package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wcoj/internal/agg"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// holdCores takes every slot of the process-wide budget until the test
// ends, as a fully loaded process would.
func holdCores(t *testing.T) {
	n := int64(runtime.GOMAXPROCS(0))
	coresBusy.Add(n)
	t.Cleanup(func() { coresBusy.Add(-n) })
}

// concurrency tracks how many chunks run at once.
type concurrency struct{ now, peak atomic.Int32 }

func (c *concurrency) enter() int32 {
	n := c.now.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return n
}

func (c *concurrency) leave() { c.now.Add(-1) }

// TestShardedCallerAlone: with every slot held, p=4 runs complete on
// the caller alone — no two chunks ever run at once — and give what an
// uncontended p=4 run gives: the same count and Count Stats, the same
// existence answer, and the same emitted sequence.
func TestShardedCallerAlone(t *testing.T) {
	ctx := context.Background()
	e := dataset.PowerLawGraph(400, 2000, 1.0, 1)
	q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
		{Name: "E", Vars: []string{"A", "B"}, Rel: e},
		{Name: "E", Vars: []string{"B", "C"}, Rel: e},
		{Name: "E", Vars: []string{"A", "C"}, Rel: e},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := NewTrieStore(0)
	p, err := BuildPlanSrc(store, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, ecls, err := AggPlanSrc(store, q, nil, agg.Spec{Mode: agg.ModeExists})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		count Stats
		found int64
		rows  []relation.Value
	}
	run := func() result {
		var r result
		if _, err := GenericJoinPlanVisit(ctx, p, nil, MaterializeLevel, 4, &r.count, nil); err != nil {
			t.Fatal(err)
		}
		if r.found, _, err = GenericJoinAggPlan(ctx, ep, ecls, MaterializeLevel, 4); err != nil {
			t.Fatal(err)
		}
		_, err = GenericJoinPlanVisit(ctx, p, nil, MaterializeLevel, 4, &Stats{}, func(t relation.Tuple) error {
			r.rows = append(r.rows, t...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run()
	if want.count.Output == 0 || want.found != 1 {
		t.Fatal("the case must have triangles")
	}
	holdCores(t)
	got := run()
	if got.count != want.count || got.found != want.found || !slices.Equal(got.rows, want.rows) {
		t.Fatalf("caller-alone run differs: count stats %+v (want %+v), exists %d (want %d), rows equal %v",
			got.count, want.count, got.found, want.found, slices.Equal(got.rows, want.rows))
	}

	// The runner itself, under both reducers: chunks run one at a time.
	// Uncapped, each value counts one; capped, none, so no run stops
	// early.
	var conc concurrency
	for _, c := range []struct {
		cap, per, want int64
		ordered        bool
	}{{uncapped, 1, 64, false}, {1, 0, 0, false}, {uncapped, 1, 64, true}} {
		var emitted []relation.Value
		var sink *bufferSink
		if c.ordered {
			sink = newBufferSink(1, func(t relation.Tuple) error { emitted = append(emitted, t[0]); return nil })
		}
		sum, err := runSharded(ctx, 64, 4, c.cap, &Stats{}, sink, func(lo, hi int, _ *Stats, _ *atomic.Bool, emit func(relation.Tuple) error) (int64, error) {
			conc.enter()
			defer conc.leave()
			time.Sleep(20 * time.Microsecond)
			for v := lo; emit != nil && v < hi; v++ {
				if err := emit(relation.Tuple{relation.Value(v)}); err != nil {
					return 0, err
				}
			}
			return c.per * int64(hi-lo), nil
		})
		if err != nil || sum != c.want {
			t.Fatalf("cap %d ordered %v: sum = %d, %v; want %d", c.cap, c.ordered, sum, err, c.want)
		}
		if c.ordered && (len(emitted) != 64 || !slices.IsSorted(emitted)) {
			t.Fatalf("ordered run emitted %v", emitted)
		}
	}
	if pk := conc.peak.Load(); pk != 1 {
		t.Fatalf("%d chunks ran at once with every slot held, want 1", pk)
	}
}

// TestCoresCapWorkers: across 8 concurrent sharded counts at p=4, the
// budget never grants more than GOMAXPROCS goroutines: every chunk
// runs on a caller or on one of at most GOMAXPROCS-1 granted workers,
// and every slot is returned.
func TestCoresCapWorkers(t *testing.T) {
	ctx := context.Background()
	procs := int32(runtime.GOMAXPROCS(0))
	var callers atomic.Int32
	// A caller leaves only while no chunk is checking the bound, so a
	// run whose chunks were counted cannot drop out of callers before
	// the check reads it.
	var leaving sync.RWMutex
	var c concurrency
	var over atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				callers.Add(1)
				_, err := runSharded(ctx, 32, 4, uncapped, &Stats{}, nil, func(lo, hi int, _ *Stats, _ *atomic.Bool, _ func(relation.Tuple) error) (int64, error) {
					// callers over-counts the callers inside a run, so
					// this bound is exact about the granted workers.
					leaving.RLock()
					if n := c.enter(); n > callers.Load()+procs-1 {
						over.Store(n)
					}
					leaving.RUnlock()
					time.Sleep(20 * time.Microsecond)
					c.leave()
					return int64(hi - lo), nil
				})
				leaving.Lock()
				callers.Add(-1)
				leaving.Unlock()
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := over.Load(); n != 0 {
		t.Fatalf("%d chunks ran at once, more than the callers plus %d granted workers", n, procs-1)
	}
	if b := coresBusy.Load(); b != 0 {
		t.Fatalf("%d budget slots still held after every run returned", b)
	}
}
