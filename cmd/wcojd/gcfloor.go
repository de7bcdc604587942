package main

// GC pacing. The DB's tries live on its relations, so the live heap is
// little more than the data — a few MiB for a small dataset — and the
// runtime's default goal of twice that collects tens of times a
// second, which writer latency tails pay for. wcojd keeps the heap
// goal at max(2×live, gcFloorBytes) instead: after every cycle it sets
// the GC percent from the live heap that cycle marked. A GOGC in the
// environment is the operator's choice and disables the floor.

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// gcFloorBytes is the smallest heap goal wcojd lets the runtime aim
// for. A larger floor buys fewer cycles with resident memory on
// read-only workloads, whose live heap is smallest.
const gcFloorBytes = 16 << 20

// gcPercent returns the GC percent whose goal, live·(1 + percent/100),
// is max(2·live, gcFloorBytes).
func gcPercent(live uint64) int {
	if live == 0 || 2*live >= gcFloorBytes {
		return 100
	}
	return int((gcFloorBytes - live) * 100 / live)
}

// gcCycle is the sentinel whose finalizer runs once per GC cycle. It
// holds a pointer so the tiny allocator never batches it with another
// object, which would delay its finalizer.
type gcCycle struct{ _ *byte }

// startGCFloor paces the GC unless GOGC is set, and reports whether it
// does.
func startGCFloor() bool {
	if _, ok := os.LookupEnv("GOGC"); ok {
		return false
	}
	paceGC(nil)
	return true
}

// paceGC sets the GC percent from the live heap the last cycle marked,
// then re-arms on a fresh sentinel for the next cycle.
func paceGC(*gcCycle) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	debug.SetGCPercent(gcPercent(live[0].Value.Uint64()))
	runtime.SetFinalizer(&gcCycle{}, paceGC)
}
