package core

import "testing"

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
