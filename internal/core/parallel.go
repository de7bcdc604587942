package core

// Parallel sharded execution. The search parallelizes the same way
// under both level strategies: the depth-0 intersection — the distinct
// values of the first variable in the global order that appear in
// every participating atom — is computed once, partitioned into
// contiguous chunks, and each chunk is searched by the serial recursion
// with fully private state (cursor stacks, binding tuple, Stats).
// Workers share only the immutable tries. One runner, runSharded,
// claims the chunks under one mutex and has two reducers. Every chunk
// returns a count, which is summed at the run's cap as the chunk
// finishes, in any order (COUNT uncapped, EXISTS capped at 1), and the
// fleet stops once the sum reaches the cap. The caller merges chunk
// Stats in ascending chunk order and, when the run emits tuples,
// replays each chunk's buffered output in that order too: because
// chunks are contiguous ranges of the sorted top-level values, the
// emitted tuple sequence is byte-identical to the serial run at any
// worker count.

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
// consuming sink has errored, the run's cap was reached or its context
// was cancelled. It unwinds a search mid-flight instead of letting it
// run to completion and is never returned from the package-level entry
// points — they translate it to the causing error (see CtxAbortErr).
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
// counters to st and tuples, if the run emits any, to emit (nil
// otherwise), and returns the chunk's count: its capped aggregate, or
// the tuples it emitted. It runs on a worker goroutine (or the
// caller's) with no state shared with other chunks except the run's
// stop flag, which the search should poll (cheaply, every few hundred
// nodes) and unwind on by returning ErrAborted.
type shardRun func(lo, hi int, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) (int64, error)

// coresBusy counts the held slots of the process-wide worker budget
// of sharded runs, which has Cores() slots: cores belong to the
// process, so concurrent queries, one-shot calls, DBs and the writer
// (see HoldCore) share them. A run's partition, claim window and Stats
// merge order depend on its requested worker count only, so its output
// and Stats are the same whatever the budget grants.
var coresBusy atomic.Int64

// writerSlots counts the slots taken through HoldCore, and shardYields
// the workers that gave their slot back to a writer (see runSharded).
var writerSlots, shardYields atomic.Int64

// Cores returns the size of the worker budget, min(GOMAXPROCS,
// NumCPU): a P beyond the CPU count never runs a search, so a process
// that runs one (wcojd does) keeps an M free to poll the network.
func Cores() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// CoresBusy returns the number of held budget slots.
func CoresBusy() int { return int(coresBusy.Load()) }

// ShardYields returns how many workers have yielded to a writer.
func ShardYields() int64 { return shardYields.Load() }

type heldCoreKey struct{}

// HoldCore takes one slot of the budget, whether or not one is free,
// for work that must not wait behind sharded searches for a core — a
// DB's writer holds one while it holds its write lock. Sharded runs
// under the returned context use that slot as their caller's instead
// of taking a second. release gives the slot back.
func HoldCore(ctx context.Context) (_ context.Context, release func()) {
	writerSlots.Add(1)
	coresBusy.Add(1)
	return context.WithValue(ctx, heldCoreKey{}, true), func() { coresBusy.Add(-1); writerSlots.Add(-1) }
}

// claimCores takes the caller's slot, whether or not one is free,
// unless the caller already holds one, plus up to extra more while
// slots are free, and returns how many extra slots it got.
func claimCores(extra int, held bool) int {
	busy := coresBusy.Load()
	if !held {
		busy = coresBusy.Add(1)
	}
	for extra > 0 {
		g := min(int64(extra), int64(Cores())-busy)
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
// as it finishes, so a caller waiting on the last chunks holds none;
// a caller that held its slot before (held) keeps it.
func shard(workers int, held bool, worker, caller func()) {
	extra := claimCores(workers-1, held)
	var wg sync.WaitGroup
	wg.Add(extra)
	for range extra {
		go func() {
			defer wg.Done()
			defer coresBusy.Add(-1)
			worker()
		}()
	}
	func() {
		if !held {
			defer coresBusy.Add(-1)
		}
		caller()
	}()
	wg.Wait()
}

// runSharded partitions the n top-level values into contiguous chunks
// (see shardStarts), runs run over them on the calling goroutine and up
// to workers-1 more (see shard), and returns the sum of the chunks'
// counts at cap (see searcher.cap): it saturates at cap, and an
// uncapped sum past math.MaxInt64 is agg.ErrCountOverflow.
//
// Chunks are claimed in ascending order under one mutex, and each
// chunk's count is added under it as the chunk finishes. The first
// error (from a chunk or the sink) and a sum that reaches cap set the
// shared stop flag: unclaimed chunks are skipped, and running chunks
// unwind at their next poll or emitted tuple with ErrAborted, so EXISTS
// stops the whole fleet at its first witness.
//
// The caller is a worker and the reducer: while the next chunk in
// order is unfinished it claims and runs a chunk itself, and it blocks
// only when nothing is left to claim. A caller that only waited would
// sit runnable behind the workers that woke it until they blocked.
// Once a chunk is finished the caller merges its Stats into parentStats
// — so an uncapped run's counters are deterministic for a fixed
// requested worker count — and, with a non-nil sink, replays its
// buffered tuples. Chunk sizes ramp up (see shardStarts): a consumer
// that stops early (a LIMIT erroring from emit) is seen only when its
// chunk is replayed, so the first chunks are the cheap ones, and the
// small chunks split the low-id hubs of a power-law graph. A run with
// a sink also windows its claims: chunk c can be claimed only once
// chunk c-window has been replayed, bounding the buffered output.
//
// A worker other than the caller re-checks the budget before each
// claim and, once a writer holds a slot (see HoldCore) and the budget
// is oversubscribed, gives its slot back and exits; readers alone never
// make it yield. The caller keeps claiming, so a yield changes who runs
// the chunks, never the chunks or orders.
//
// A chunk's own error wins over a reached cap, which wins over the
// context's error. The context is reported only if some chunk or
// replay was cut short by the stop flag: a run whose every chunk
// finished has its whole answer, however late the context was
// cancelled. It returns only after all worker goroutines have exited,
// so the caller may reuse any state afterwards.
func runSharded(ctx context.Context, n, workers int, cap int64, parentStats *Stats, sink *bufferSink, run shardRun) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	starts, workers := shardStarts(n, workers)
	numChunks := len(starts) - 1
	chunkStats := make([]Stats, numChunks)
	chunkErrs := make([]error, numChunks)
	finished := make([]bool, numChunks)
	var abort atomic.Bool
	defer WatchCancel(ctx, &abort)()
	window := numChunks
	if sink != nil {
		sink.bind(numChunks, &abort)
		window = workers + 2 // > workers keeps every worker busy
	}
	// next is the first unclaimed chunk and head the first unreduced one;
	// both, finished, chunkErrs and total move under mu, and changed is
	// signalled whenever a chunk finishes or head moves.
	var (
		mu         sync.Mutex
		changed    = sync.NewCond(&mu)
		next, head int
		total      int64
	)
	// step claims and runs the next chunk, if the window allows one, and
	// reports whether it did. It is called, and returns, with mu held.
	step := func() bool {
		if next == numChunks || next >= head+window {
			return false
		}
		c := next
		next++
		mu.Unlock()
		k, err := int64(0), ErrAborted
		if !abort.Load() {
			var emit func(relation.Tuple) error
			if sink != nil {
				buf := sink.chunkEmit(c)
				emit = func(t relation.Tuple) error {
					if abort.Load() {
						return ErrAborted
					}
					return buf(t)
				}
			}
			k, err = run(starts[c], starts[c+1], &chunkStats[c], &abort, emit)
		}
		mu.Lock()
		if err == nil {
			var ok bool
			if total, ok = capAdd(total, k, cap); !ok {
				err = agg.ErrCountOverflow
			}
		}
		if err != nil || reached(total, cap) {
			abort.Store(true)
		}
		chunkErrs[c], finished[c] = err, true
		changed.Broadcast()
		return true
	}
	worker := func() {
		mu.Lock()
		defer mu.Unlock()
		for next < numChunks {
			if writerSlots.Load() > 0 && coresBusy.Load() > int64(Cores()) {
				shardYields.Add(1)
				return
			}
			if !step() {
				changed.Wait()
			}
		}
	}
	var err error
	aborted := false
	held := ctx != nil && ctx.Value(heldCoreKey{}) != nil
	shard(workers, held, worker, func() {
		for c := 0; c < numChunks; c++ {
			mu.Lock()
			for !finished[c] {
				if !step() {
					changed.Wait()
				}
			}
			mu.Unlock()
			switch cerr := chunkErrs[c]; {
			case err != nil:
				// After the first error nothing is merged or replayed.
			case cerr == ErrAborted:
				// Cut short by the stop flag: its Stats count work done,
				// but its output is partial and so is everything after it.
				aborted = true
				parentStats.Merge(&chunkStats[c])
			case cerr != nil:
				err = cerr
			default:
				parentStats.Merge(&chunkStats[c])
				if sink == nil || aborted {
					break
				}
				if ferr := sink.finishChunk(c); ferr == ErrAborted {
					aborted = true
				} else if ferr != nil {
					err = ferr
					abort.Store(true)
				}
			}
			mu.Lock()
			head = c + 1
			changed.Broadcast()
			mu.Unlock()
		}
	})
	switch {
	case err != nil:
		return 0, err
	case reached(total, cap):
		return total, nil
	case aborted:
		// Neither a chunk error nor the cap stopped the fleet, so the
		// context did; report its error, never the sentinel.
		return 0, CtxAbortErr(ctx, ErrAborted)
	}
	return total, nil
}

// bufferSink buffers runSharded's output: each chunk's tuples flat
// (arity values per tuple), replayed to the user's emit in chunk order,
// preserving the serial emission sequence. The Tuple passed on is
// reused between calls, matching the serial visit contract. chunkEmit
// is called from whichever goroutine runs the chunk (concurrently, but
// never concurrently for the same chunk); finishChunk is called from
// the calling goroutine in ascending chunk order.
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
		// the user's emit can be slow; poll so a stopped run does not
		// replay a huge buffer to completion.
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
// chunks: chunk i covers [starts[i], starts[i+1]). With chunks =
// min(workers·shardChunkFactor, n), the first chunks grow from one
// value, doubling while below the balanced size n/chunks, and the rest
// is split into balanced chunks. It also clamps the worker count to the
// chunk count.
func shardStarts(n, workers int) (starts []int, w int) {
	chunks := n
	if workers <= n/shardChunkFactor { // workers·shardChunkFactor ≤ n, without overflow
		chunks = workers * shardChunkFactor
	}
	starts = []int{0}
	// The ramp covers fewer than 2n/chunks values, so some are left.
	for size := 1; size < n/chunks; size *= 2 {
		starts = append(starts, starts[len(starts)-1]+size)
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
