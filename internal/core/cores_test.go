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
	n := int64(Cores())
	coresBusy.Add(n)
	t.Cleanup(func() { coresBusy.Add(-n) })
}

// oversubscribe stands in for a writer arriving at a loaded process:
// it holds a writer's slot (see HoldCore) when writer is set, and
// every slot of the budget besides, so the budget stays oversubscribed
// until every worker of a running run has given its slot back,
// whatever the number of cores. release returns all of them.
func oversubscribe(writer bool) (release func()) {
	held := func() {}
	if writer {
		_, held = HoldCore(context.Background())
	}
	n := int64(Cores())
	coresBusy.Add(n)
	return func() { coresBusy.Add(-n); held() }
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
	memo := new(TrieMemo)
	p, err := BuildPlanSrc(memo, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, ecls, err := AggPlanSrc(memo, q, nil, agg.Spec{Mode: agg.ModeExists})
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
		if _, err := GenericJoinPlanVisit(ctx, p, nil, 4, &r.count, nil); err != nil {
			t.Fatal(err)
		}
		if r.found, _, err = GenericJoinAggPlan(ctx, ep, ecls, 4); err != nil {
			t.Fatal(err)
		}
		_, err = GenericJoinPlanVisit(ctx, p, nil, 4, &Stats{}, func(t relation.Tuple) error {
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
// budget never grants more than Cores() goroutines: every chunk runs
// on a caller or on one of at most Cores()-1 granted workers — one
// fewer while a writer holds a slot (see HoldCore) — and every slot is
// returned.
func TestCoresCapWorkers(t *testing.T) {
	for _, writer := range []bool{false, true} {
		name := "readers"
		if writer {
			name = "writer-slot-held"
		}
		t.Run(name, func(t *testing.T) { coresCapWorkers(t, writer) })
	}
}

func coresCapWorkers(t *testing.T, writer bool) {
	ctx := context.Background()
	granted := int32(Cores() - 1)
	if writer {
		_, release := HoldCore(ctx)
		defer release()
		granted = max(granted-1, 0)
	}
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
					if n := c.enter(); n > callers.Load()+granted {
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
		t.Fatalf("%d chunks ran at once, more than the callers plus %d granted workers", n, granted)
	}
	want := int64(0)
	if writer {
		want = 1 // the writer's own, released on return
	}
	if b := coresBusy.Load(); b != want {
		t.Fatalf("%d budget slots held after every run returned, want %d", b, want)
	}
}

// TestCoresHeldSlot: with exactly one slot of the budget free, a run
// whose caller already holds a slot (the writer's, see HoldCore) gets
// that one extra worker, and a run whose caller does not gets none. A
// maintenance term that claimed a second slot would run serially.
func TestCoresHeldSlot(t *testing.T) {
	if Cores() < 2 {
		t.Skip("needs a budget of two slots")
	}
	for _, held := range []bool{true, false} {
		ctx, release := context.Background(), func() {}
		others := int64(Cores() - 1) // all slots but one, held elsewhere
		if held {
			ctx, release = HoldCore(ctx)
			others-- // the caller's own slot is one of them
		}
		coresBusy.Add(others)
		var conc concurrency
		_, err := runSharded(ctx, 64, 4, uncapped, &Stats{}, nil, func(lo, hi int, _ *Stats, _ *atomic.Bool, _ func(relation.Tuple) error) (int64, error) {
			conc.enter()
			defer conc.leave()
			// A granted worker claims a chunk within a few ms; wait for it
			// so the two are seen at once.
			for deadline := time.Now().Add(time.Second); held && conc.peak.Load() < 2 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			return int64(hi - lo), nil
		})
		coresBusy.Add(-others)
		release()
		if err != nil {
			t.Fatal(err)
		}
		want := int32(1)
		if held {
			want = 2
		}
		if pk := conc.peak.Load(); pk != want {
			t.Errorf("held=%v: %d chunks ran at once, want %d", held, pk, want)
		}
		if b := coresBusy.Load(); b != 0 {
			t.Fatalf("held=%v: %d budget slots still held", held, b)
		}
	}
}

// TestShardYield: a worker that finds a writer's slot taken and the
// budget oversubscribed — a writer arrived while the run was going —
// gives its slot back before its next claim and the yield is counted,
// while the caller runs every remaining chunk. A run nobody
// oversubscribes never yields, and neither does one that only readers
// oversubscribe: a reader's caller takes its slot whether or not one is
// free, and a worker that yielded to it would leave both runs serial.
func TestShardYield(t *testing.T) {
	if Cores() < 2 {
		t.Skip("needs a budget of two slots")
	}
	ctx := context.Background()
	const n = 64
	count := func(take, writer bool) {
		var release func()
		var once sync.Once
		var started atomic.Int32
		before := shardYields.Load()
		sum, err := runSharded(ctx, n, 2, uncapped, &Stats{}, nil, func(lo, hi int, _ *Stats, _ *atomic.Bool, _ func(relation.Tuple) error) (int64, error) {
			started.Add(1)
			if take {
				once.Do(func() {
					release = oversubscribe(writer)
					// Hold the first chunk until the other goroutine yields
					// or claims a chunk: the worker yields at its first claim
					// to a writer, unless it is the one running this chunk.
					for deadline := time.Now().Add(50 * time.Millisecond); shardYields.Load() == before && started.Load() < 2 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
				})
			}
			time.Sleep(20 * time.Microsecond)
			return int64(hi - lo), nil
		})
		if release != nil {
			release()
		}
		if err != nil || sum != n {
			t.Fatalf("take=%v writer=%v: sum = %d, %v; want %d", take, writer, sum, err, n)
		}
		if b := coresBusy.Load(); b != 0 {
			t.Fatalf("take=%v writer=%v: %d budget slots still held", take, writer, b)
		}
	}
	before := shardYields.Load()
	for range 20 {
		count(false, false)
		count(true, false)
	}
	if y := shardYields.Load() - before; y != 0 {
		t.Fatalf("%d yields with no writer holding a slot", y)
	}
	for i := 0; i < 100 && shardYields.Load() == before; i++ {
		count(true, true)
	}
	if shardYields.Load() == before {
		t.Fatal("no worker yielded to the writer's slot")
	}
}
