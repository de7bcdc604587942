//go:build race

package main

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates: the allocation guards skip there.
const raceEnabled = true
