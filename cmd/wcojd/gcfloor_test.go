package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestGCFloorPercent pins the pacing rule: the goal is twice the live
// heap, but never below the floor.
func TestGCFloorPercent(t *testing.T) {
	for _, c := range []struct {
		live uint64
		want int
	}{
		{4 << 20, 300}, // goal 16 MiB: 4 MiB · (1 + 300/100)
		{8 << 20, 100}, // 2·live reaches the floor
		{64 << 20, 100},
		{0, 100}, // no cycle has run yet
	} {
		if got := gcPercent(c.live); got != c.want {
			t.Errorf("gcPercent(%d MiB) = %d, want %d", c.live>>20, got, c.want)
		}
		if c.live != 0 {
			goal := c.live * uint64(100+gcPercent(c.live)) / 100
			if want := max(2*c.live, gcFloorBytes); goal != want {
				t.Errorf("live %d MiB: goal %d, want %d", c.live>>20, goal, want)
			}
		}
	}
}

// TestGCFloorEnv: a GOGC in the environment is left alone; without one
// the floor re-paces after every cycle. (Once armed, the floor stays
// armed for the life of the process, so the GOGC case can only be
// checked by what startGCFloor reports.)
func TestGCFloorEnv(t *testing.T) {
	t.Setenv("GOGC", "100")
	if startGCFloor() {
		t.Fatal("floor armed with GOGC set")
	}

	const sentinel = 1234
	prev := debug.SetGCPercent(sentinel)
	defer debug.SetGCPercent(prev)
	os.Unsetenv("GOGC") // t.Setenv restores it
	if !startGCFloor() {
		t.Fatal("floor not armed without GOGC")
	}
	// Every later cycle resets the percent: overwrite it, collect, and
	// wait for the re-armed finalizer to put it back.
	for cycle := 0; cycle < 3; cycle++ {
		debug.SetGCPercent(sentinel)
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			p := debug.SetGCPercent(sentinel)
			if p != sentinel {
				if p < 100 {
					t.Fatalf("paced percent %d, want >= 100", p)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: the floor did not re-pace", cycle)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestGCFloorMetrics: /metrics shows the pacing decision — cycles run
// and the current heap goal.
func TestGCFloorMetrics(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	runtime.GC()
	_, body := get(t, ts.URL+"/metrics")
	for _, name := range []string{"wcojd_gc_cycles_total", "wcojd_gc_heap_goal_bytes"} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metrics missing the TYPE line of %s", name)
		}
		v := -1.0
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, _ = strconv.ParseFloat(rest, 64)
			}
		}
		if v < 1 {
			t.Errorf("%s = %v, want >= 1", name, v)
		}
	}
}
