package main

// wcojd's two runtime settings, each the operator's to switch off by
// setting the runtime's own environment variable.
//
// GC pacing. The DB's tries live on its relations, so the live heap is
// little more than the data — a few MiB for a small dataset — and the
// runtime's default goal of twice that collects tens of times a
// second, which writer latency tails pay for. wcojd keeps the heap
// goal at max(2×live, gcFloorBytes) instead: after every cycle it sets
// the GC percent from the live heap that cycle marked. A GOGC in the
// environment disables the floor.
//
// A spare P. Go polls the network when a P runs out of goroutines, or
// from sysmon at most every 10 ms, so while a sharded query holds
// every P a write request is not even read until the query ends.
// wcojd runs GOMAXPROCS = NumCPU+1 while the searches' core budget
// stays NumCPU (core.Cores), so one P never runs a search and its M
// waits in the poller. A GOMAXPROCS in the environment disables it.

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// startSpareP sets GOMAXPROCS to one more than the CPU count unless
// GOMAXPROCS is set, and reports whether it did.
func startSpareP() bool {
	if _, ok := os.LookupEnv("GOMAXPROCS"); ok {
		return false
	}
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	return true
}

// gcFloorBytes is the smallest heap goal wcojd lets the runtime aim
// for. A larger floor buys fewer cycles with resident memory on
// read-only workloads, whose live heap is smallest.
const gcFloorBytes = 16 << 20

// runtimeHeapMin is the runtime's smallest heap goal at GC percent
// 100. The runtime scales it by the percent, so at a percent above
// gcFloorBytes/runtimeHeapMin·100 it alone sets a goal past the floor.
const runtimeHeapMin = 4 << 20

// floorPercent is the GC percent at which the runtime's minimum goal,
// runtimeHeapMin·percent/100, is the floor.
const floorPercent = gcFloorBytes * 100 / runtimeHeapMin

// gcPercent returns the GC percent whose goal is max(2·live,
// gcFloorBytes). The runtime's goal is the larger of live·(1 +
// percent/100) and runtimeHeapMin·percent/100, so up to a live heap of
// a fifth of the floor (and before the first cycle, live 0) the
// percent stays at floorPercent and the second term holds the goal at
// the floor. Starting there matters: at percent 100 the first cycle
// runs at 4 MiB, in the middle of loading the data.
func gcPercent(live uint64) int {
	switch {
	case 2*live >= gcFloorBytes:
		return 100
	case live*(100+floorPercent) <= gcFloorBytes*100:
		return floorPercent
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
