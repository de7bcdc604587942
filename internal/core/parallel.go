package core

// Parallel sharded execution. The search parallelizes the same way
// under both level strategies: the depth-0 intersection — the distinct
// values of the first variable in the global order that appear in
// every participating atom — is computed once, partitioned into
// contiguous chunks, and each chunk is searched by the serial recursion
// with fully private state (cursor stacks, binding tuple, Stats).
// Workers share only the immutable tries. Chunk results are consumed
// in ascending chunk index order, and because chunks are contiguous
// ranges of the sorted top-level values, the emitted tuple sequence is
// byte-identical to the serial run at any worker count.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

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
// their next poll instead of enumerating to completion. The returned
// cleanup releases the watcher goroutine and must be called (defer it)
// when the run ends. Nil or never-cancelled contexts cost nothing.
func WatchCancel(ctx context.Context, stop *atomic.Bool) func() {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-quit:
		}
	}()
	return func() { close(quit) }
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

// shardRun searches one chunk of top-level values, writing counters to
// st and tuples to emit. It runs on a worker goroutine with no state
// shared with other chunks except the run's stop flag, which the
// search should poll (cheaply, every few hundred nodes) and unwind on
// by returning ErrAborted.
type shardRun func(chunk []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error

// runSharded partitions vals into contiguous chunks and runs run over
// them on min(workers, chunks) goroutines. Per-chunk Stats are merged
// into parentStats in chunk order; the first error (from a chunk or
// from the sink) aborts the remaining work — queued chunks are
// skipped, and in-flight chunks are unwound at their next emitted
// tuple via ErrAborted. Chunk issue is windowed: a chunk is only
// handed to a worker once all chunks more than shardWindow(workers)
// positions behind it have been consumed by the sink, bounding how
// much un-consumed output the ordered sink can buffer. It returns
// only after all worker goroutines have exited, so the caller may
// reuse any state afterwards.
func runSharded(ctx context.Context, vals []relation.Value, workers int, parentStats *Stats, sink *bufferSink, run shardRun) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	var abort atomic.Bool
	n := len(vals)
	if n == 0 {
		sink.bind(0, &abort)
		return nil
	}
	starts, numChunks, workers := shardStarts(n, workers)
	sink.bind(numChunks, &abort)

	chunkStats := make([]Stats, numChunks)
	chunkErrs := make([]error, numChunks)
	done := make([]chan struct{}, numChunks)
	consumed := make([]chan struct{}, numChunks)
	for i := range done {
		done[i] = make(chan struct{})
		consumed[i] = make(chan struct{})
	}
	defer WatchCancel(ctx, &abort)()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if !abort.Load() {
					emit := sink.chunkEmit(c)
					chunkErrs[c] = run(vals[starts[c]:starts[c+1]], &chunkStats[c], &abort,
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
		}()
	}
	// Windowed issue: chunk c is released only after chunk c-window
	// has been consumed, so at most window chunks are ever buffered
	// ahead of the sink (keeps all workers busy since window >
	// workers, while bounding ordered-sink memory).
	window := workers + 2
	go func() {
		for c := 0; c < numChunks; c++ {
			if c >= window {
				<-consumed[c-window]
			}
			next <- c
		}
		close(next)
	}()

	var err error
	for c := 0; c < numChunks; c++ {
		<-done[c]
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
		// Unblock the issuing goroutine regardless of errors.
		close(consumed[c])
	}
	wg.Wait()
	if err == nil {
		// A cancelled run's chunks unwind with ErrAborted, which is
		// never surfaced per chunk; report the cancellation itself.
		err = CtxErr(ctx)
	}
	return err
}

// bufferSink consumes the output of runSharded: it buffers each chunk's
// tuples flat (arity values per tuple) and replays them to the user's
// emit in chunk order, preserving the serial emission sequence. The
// Tuple passed on is reused between calls, matching the serial visit
// contract. chunkEmit is called from worker goroutines (concurrently,
// but never concurrently for the same chunk); finishChunk is called
// from the coordinating goroutine in ascending chunk order.
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

// shardStarts computes the balanced contiguous partition of n values
// into chunks: chunk i covers [starts[i], starts[i+1]). It also
// clamps the chunk and worker counts, returning the adjusted pair.
func shardStarts(n, workers int) (starts []int, numChunks, w int) {
	numChunks = workers * shardChunkFactor
	if numChunks > n {
		numChunks = n
	}
	if workers > numChunks {
		workers = numChunks
	}
	starts = make([]int, numChunks+1)
	base, rem := n/numChunks, n%numChunks
	for i := 0; i < numChunks; i++ {
		starts[i+1] = starts[i] + base
		if i < rem {
			starts[i+1]++
		}
	}
	return starts, numChunks, workers
}

// runShardedSum shards vals across workers and sums the per-chunk
// int64 results of run. Unlike the tuple-emitting runner no output
// ordering is needed, so chunks are claimed from an atomic counter;
// per-chunk Stats are still merged in chunk order, keeping counter
// totals deterministic for a fixed worker count. Every counting run
// shards through it.
func runShardedSum(ctx context.Context, vals []relation.Value, workers int, parentStats *Stats,
	run func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (int64, error)) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	n := len(vals)
	if n == 0 {
		return 0, nil
	}
	starts, numChunks, w := shardStarts(n, workers)
	chunkStats := make([]Stats, numChunks)
	sums := make([]int64, numChunks)
	errs := make([]error, numChunks)
	var abort atomic.Bool
	defer WatchCancel(ctx, &abort)()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks || abort.Load() {
					return
				}
				sums[c], errs[c] = run(vals[starts[c]:starts[c+1]], &chunkStats[c], &abort)
				if errs[c] != nil {
					abort.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	aborted := false
	for c := 0; c < numChunks; c++ {
		if errs[c] == ErrAborted {
			aborted = true
			continue
		}
		if errs[c] != nil {
			return 0, errs[c]
		}
		parentStats.Merge(&chunkStats[c])
		total += sums[c]
	}
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if aborted {
		// A chunk unwound on the abort flag but no cause surfaced (it
		// was claimed before a sibling's error stored the flag).
		return 0, context.Canceled
	}
	return total, nil
}

// runShardedAny shards vals across workers and reports whether any
// chunk found a witness. The shared stop flag is set as soon as one
// does (or a chunk errors); chunk searches are expected to poll it and
// unwind, so the whole fleet short-circuits on the first witness.
// Stats are merged from every chunk that ran; because chunks race the
// stop flag, counter totals (unlike the boolean result) are not
// deterministic across runs.
func runShardedAny(ctx context.Context, vals []relation.Value, workers int, parentStats *Stats,
	run func(chunk []relation.Value, st *Stats, stop *atomic.Bool) (bool, error)) (bool, error) {
	if err := CtxErr(ctx); err != nil {
		return false, err
	}
	n := len(vals)
	if n == 0 {
		return false, nil
	}
	starts, numChunks, w := shardStarts(n, workers)
	chunkStats := make([]Stats, numChunks)
	errs := make([]error, numChunks)
	var stop atomic.Bool
	defer WatchCancel(ctx, &stop)()
	var found atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks || stop.Load() {
					return
				}
				ok, err := run(vals[starts[c]:starts[c+1]], &chunkStats[c], &stop)
				errs[c] = err
				if err != nil || ok {
					stop.Store(true)
				}
				if ok && err == nil {
					found.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for c := 0; c < numChunks; c++ {
		if errs[c] != nil && errs[c] != ErrAborted {
			return false, errs[c]
		}
		parentStats.Merge(&chunkStats[c])
	}
	if found.Load() {
		return true, nil
	}
	return false, CtxErr(ctx)
}
