package core

// Parallel sharded execution. The search parallelizes the same way
// under both level strategies: the depth-0 intersection — the distinct
// values of the first variable in the global order that appear in
// every participating atom — is computed once, partitioned into
// contiguous chunks, and each chunk is searched by the serial recursion
// with fully private state (cursor stacks, binding tuple, Stats).
// Workers share only the immutable tries. There are two runners. The
// ordered runSharded consumes chunk results in ascending chunk index
// order, and because chunks are contiguous ranges of the sorted
// top-level values, the emitted tuple sequence is byte-identical to the
// serial run at any worker count. The unordered runShardedCount sums
// chunk counts at the run's cap (COUNT uncapped, EXISTS capped at 1)
// and stops the fleet once the sum reaches the cap.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
)

// shardChunkFactor oversplits the top-level values relative to the
// worker count so a skewed value (one heavy subtree) cannot serialize
// the run: idle workers steal the remaining chunks.
const shardChunkFactor = 4

// ErrAborted is injected through a chunk's emit path (and returned by
// worker stop-flag polls) once a sibling chunk has failed, the
// consuming sink has errored, or the run's context was cancelled. It
// unwinds a search mid-flight instead of letting it run to completion
// and is never returned from the package-level entry points — they
// translate it to the causing error (see CtxAbortErr).
var ErrAborted = errors.New("core: sharded run aborted")

// CtxErr returns the context's error, tolerating nil contexts.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// WatchCancel links ctx cancellation to a stop flag the search workers
// poll: once ctx is done, stop is set and in-flight searches unwind at
// their next poll instead of enumerating to completion. The callback is
// registered with context.AfterFunc, so no goroutine waits on ctx; the
// returned cleanup unregisters it and must be called (defer it) when
// the run ends. Nil or never-cancelled contexts cost nothing.
func WatchCancel(ctx context.Context, stop *atomic.Bool) (cleanup func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, func() { stop.Store(true) })
}

// CtxAbortErr translates the ErrAborted sentinel of a cancelled serial
// search into the context's error; other errors pass through.
func CtxAbortErr(ctx context.Context, err error) error {
	if err == ErrAborted {
		if cerr := CtxErr(ctx); cerr != nil {
			return cerr
		}
		return context.Canceled
	}
	return err
}

// shardRun searches one chunk, the top-level values [lo,hi), writing
// counters to st and tuples to emit. It runs on a worker goroutine (or
// the caller's) with no state shared with other chunks except the
// run's stop flag, which the search should poll (cheaply, every few
// hundred nodes) and unwind on by returning ErrAborted.
type shardRun func(lo, hi int, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error

// coresBusy counts the held slots of the process-wide worker budget
// of sharded runs, which has runtime.GOMAXPROCS(0) slots: cores belong
// to the process, so concurrent queries, one-shot calls and DBs share
// them. A run's partition, ordered window and Stats merge order depend
// on its requested worker count only, so its output and Stats are the
// same whatever the budget grants.
var coresBusy atomic.Int64

// claimCores takes the caller's slot, whether or not one is free, plus
// up to extra more while slots are free, and returns how many extra
// slots it got.
func claimCores(extra int) int {
	busy := coresBusy.Add(1)
	for extra > 0 {
		g := min(int64(extra), int64(runtime.GOMAXPROCS(0))-busy)
		if g <= 0 {
			return 0
		}
		if coresBusy.CompareAndSwap(busy, busy+g) {
			return int(g)
		}
		busy = coresBusy.Load()
	}
	return 0
}

// shard runs caller on the calling goroutine and worker on up to
// workers-1 more goroutines, as many as the budget grants, and returns
// once all of them have returned. Every goroutine gives its slot back
// as it finishes, so a caller waiting on the last chunks holds none.
func shard(workers int, worker, caller func()) {
	extra := claimCores(workers - 1)
	var wg sync.WaitGroup
	wg.Add(extra)
	//wcojlint:nopoll starts at most extra goroutines; their loops poll
	for range extra {
		go func() {
			defer wg.Done()
			defer coresBusy.Add(-1)
			worker()
		}()
	}
	func() {
		defer coresBusy.Add(-1)
		caller()
	}()
	wg.Wait()
}

// runSharded partitions the n top-level values into contiguous chunks
// and runs run over them on the calling goroutine and up to workers-1
// more (see shard).
// Per-chunk Stats are merged into parentStats in chunk order; the
// first error (from a chunk or from the sink) aborts the remaining
// work — unclaimed chunks are skipped, and running chunks are unwound
// at their next emitted tuple via ErrAborted. Chunk sizes ramp up (see
// shardStarts): a consumer that stops early (a LIMIT returning an
// error from emit) is seen only when its chunk is replayed, and the
// chunks claimed by then run on until they unwind, so the first chunks
// are the cheap ones.
//
// The caller is the consumer and a worker: while the next chunk to
// replay is unfinished it claims and runs a chunk itself, and it
// blocks only when the window leaves nothing to claim. A consumer that
// only waited would sit runnable behind the workers that woke it until
// they blocked, so whether a LIMIT was met inside the first chunk
// would decide whether it paid for the whole window.
//
// Claims are windowed: chunk c can be claimed only once chunk
// c-window has been consumed, bounding how much un-consumed output
// the ordered sink can buffer. It returns only after all worker
// goroutines have exited, so the caller may reuse any state afterwards.
func runSharded(ctx context.Context, n, workers int, parentStats *Stats, sink *bufferSink, run shardRun) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	var abort atomic.Bool
	if n == 0 {
		sink.bind(0, &abort)
		return nil
	}
	starts, workers := shardStarts(n, workers, true)
	numChunks := len(starts) - 1
	sink.bind(numChunks, &abort)

	chunkStats := make([]Stats, numChunks)
	chunkErrs := make([]error, numChunks)
	done := make([]chan struct{}, numChunks)
	for i := range done {
		done[i] = make(chan struct{})
	}
	defer WatchCancel(ctx, &abort)()
	exec := func(c int) {
		if !abort.Load() {
			emit := sink.chunkEmit(c)
			chunkErrs[c] = run(starts[c], starts[c+1], &chunkStats[c], &abort,
				func(t relation.Tuple) error {
					if abort.Load() {
						return ErrAborted
					}
					return emit(t)
				})
			if chunkErrs[c] != nil {
				abort.Store(true)
			}
		}
		close(done[c])
	}
	// next is the first unclaimed chunk and head the first unconsumed
	// one; both move under mu, and a claim may run at most window
	// chunks ahead of head (window > workers keeps every worker busy).
	window := workers + 2
	var (
		mu         sync.Mutex
		headMoved  = sync.NewCond(&mu)
		next, head int
	)
	claim := func(wait bool) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for next < numChunks && next >= head+window {
			if !wait {
				return 0, false
			}
			headMoved.Wait()
		}
		if next == numChunks {
			return 0, false
		}
		next++
		return next - 1, true
	}
	worker := func() {
		for c, ok := claim(true); ok; c, ok = claim(true) {
			exec(c)
		}
	}
	var err error
	shard(workers, worker, func() {
		for c := 0; c < numChunks; c++ {
			for !isClosed(done[c]) {
				mine, ok := claim(false)
				if !ok {
					<-done[c]
					break
				}
				exec(mine)
			}
			cerr := chunkErrs[c]
			switch {
			case err != nil || cerr == ErrAborted:
				// A chunk unwound by the abort flag produced partial
				// output; never merge or consume it.
			case cerr != nil:
				err = cerr
			default:
				parentStats.Merge(&chunkStats[c])
				if ferr := sink.finishChunk(c); ferr != nil {
					// A sink replay unwound by the abort flag means the
					// ctx was cancelled mid-replay; surface the cause,
					// never the sentinel.
					err = CtxAbortErr(ctx, ferr)
					abort.Store(true)
				}
			}
			// Open the window regardless of errors.
			mu.Lock()
			head = c + 1
			mu.Unlock()
			headMoved.Broadcast()
		}
	})
	if err == nil {
		// A cancelled run's chunks unwind with ErrAborted, which is
		// never surfaced per chunk; report the cancellation itself.
		err = CtxErr(ctx)
	}
	return err
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// bufferSink consumes the output of runSharded: it buffers each chunk's
// tuples flat (arity values per tuple) and replays them to the user's
// emit in chunk order, preserving the serial emission sequence. The
// Tuple passed on is reused between calls, matching the serial visit
// contract. chunkEmit is called from whichever goroutine runs the chunk
// (concurrently, but never concurrently for the same chunk);
// finishChunk is called from the calling goroutine in ascending chunk
// order.
type bufferSink struct {
	arity int
	emit  func(relation.Tuple) error
	stop  *atomic.Bool
	bufs  [][]relation.Value
}

func newBufferSink(arity int, emit func(relation.Tuple) error) *bufferSink {
	return &bufferSink{arity: arity, emit: emit}
}

func (s *bufferSink) bind(numChunks int, stop *atomic.Bool) {
	s.bufs = make([][]relation.Value, numChunks)
	s.stop = stop
}

func (s *bufferSink) chunkEmit(chunk int) func(relation.Tuple) error {
	return func(t relation.Tuple) error {
		s.bufs[chunk] = append(s.bufs[chunk], t...)
		return nil
	}
}

func (s *bufferSink) finishChunk(chunk int) error {
	buf := s.bufs[chunk]
	for i, n := 0, 0; i < len(buf); i += s.arity {
		// A chunk can hold an arbitrary number of buffered tuples and
		// the user's emit can be slow; poll so a cancelled run does
		// not replay a huge buffer to completion.
		if n++; n&255 == 0 && s.stop.Load() {
			return ErrAborted
		}
		if err := s.emit(relation.Tuple(buf[i : i+s.arity])); err != nil {
			return err
		}
	}
	s.bufs[chunk] = nil // release as soon as replayed
	return nil
}

// shardStarts computes the contiguous partition of n values into
// chunks: chunk i covers [starts[i], starts[i+1]). The chunks are
// min(workers·shardChunkFactor, n) balanced ones; with ramp, the first
// chunks instead grow from one value, doubling while below the
// balanced size, and the rest is split into balanced chunks again. It
// also clamps the worker count to the chunk count.
func shardStarts(n, workers int, ramp bool) (starts []int, w int) {
	chunks := min(workers*shardChunkFactor, n)
	starts = []int{0}
	if ramp {
		// The ramp covers fewer than 2n/chunks values, so some are left.
		for size := 1; size < n/chunks; size *= 2 {
			starts = append(starts, starts[len(starts)-1]+size)
		}
	}
	lo := starts[len(starts)-1]
	m := ((n-lo)*chunks + n - 1) / n // balanced chunks the rest spans
	base, rem := (n-lo)/m, (n-lo)%m
	for i := 0; i < m; i++ {
		lo += base
		if i < rem {
			lo++
		}
		starts = append(starts, lo)
	}
	return starts, min(workers, len(starts)-1)
}

// runShardedCount shards the n top-level values across the caller and
// up to workers-1 more goroutines (see shard) and sums the per-chunk
// counts of run at cap (see searcher.cap): the sum saturates at cap,
// and an uncapped sum past math.MaxInt64 is agg.ErrCountOverflow. No
// output ordering is needed, so chunks are claimed from an atomic
// counter. Once the sum reaches cap the shared stop flag is set, and
// the chunk searches, which poll it, unwind: a capped run short-circuits
// across the fleet (EXISTS on its first witness). Per-chunk Stats are
// merged in chunk order, so an uncapped run's counters are
// deterministic for a fixed requested worker count, whatever the
// budget grants; a capped run's chunks race the stop flag, so its
// counters (unlike its result) are not. A chunk's own error wins over a
// reached cap, which wins over the context's error.
func runShardedCount(ctx context.Context, n, workers int, cap int64, parentStats *Stats,
	run func(lo, hi int, st *Stats, stop *atomic.Bool) (int64, error)) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	starts, w := shardStarts(n, workers, false)
	numChunks := len(starts) - 1
	chunkStats := make([]Stats, numChunks)
	errs := make([]error, numChunks)
	var stop atomic.Bool
	defer WatchCancel(ctx, &stop)()
	var (
		mu    sync.Mutex
		total int64
		next  atomic.Int64
	)
	loop := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= numChunks || stop.Load() {
				return
			}
			k, err := run(starts[c], starts[c+1], &chunkStats[c], &stop)
			mu.Lock()
			if err == nil {
				var ok bool
				if total, ok = capAdd(total, k, cap); !ok {
					err = agg.ErrCountOverflow
				}
			}
			errs[c] = err
			if err != nil || reached(total, cap) {
				stop.Store(true)
			}
			mu.Unlock()
		}
	}
	shard(w, loop, loop)
	aborted := false
	for c := 0; c < numChunks; c++ {
		switch errs[c] {
		case nil:
		case ErrAborted:
			aborted = true
		default:
			return 0, errs[c]
		}
		parentStats.Merge(&chunkStats[c])
	}
	if reached(total, cap) {
		return total, nil
	}
	if aborted || CtxErr(ctx) != nil {
		// Neither a chunk error nor the cap stopped the fleet, so the
		// context did; report its error, never the sentinel.
		return 0, CtxAbortErr(ctx, ErrAborted)
	}
	return total, nil
}
