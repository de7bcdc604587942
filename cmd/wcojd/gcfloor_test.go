package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"wcoj/internal/core"
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
		{1 << 20, 400}, // goal 16 MiB: the runtime's minimum, 4 MiB · 400/100
		{256 << 10, 400},
		{0, 400}, // no cycle has run yet: the first one runs at the floor
	} {
		p := uint64(gcPercent(c.live))
		if int(p) != c.want {
			t.Errorf("gcPercent(%d KiB) = %d, want %d", c.live>>10, p, c.want)
		}
		goal := max(c.live*(100+p)/100, runtimeHeapMin*p/100)
		if want := max(2*c.live, gcFloorBytes); goal != want {
			t.Errorf("live %d KiB: goal %d, want %d", c.live>>10, goal, want)
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

// TestSparePEnv: a GOMAXPROCS in the environment is left alone;
// without one wcojd runs one P more than it has CPUs, and the core
// budget of searches stays at the CPU count, so that P never runs one.
func TestSparePEnv(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cpus := runtime.NumCPU()
	runtime.GOMAXPROCS(1)
	t.Setenv("GOMAXPROCS", "1")
	if startSpareP() || runtime.GOMAXPROCS(0) != 1 {
		t.Fatalf("GOMAXPROCS set: startSpareP changed it to %d", runtime.GOMAXPROCS(0))
	}
	os.Unsetenv("GOMAXPROCS") // t.Setenv restores it
	if !startSpareP() {
		t.Fatal("no spare P without GOMAXPROCS")
	}
	if p := runtime.GOMAXPROCS(0); p != cpus+1 {
		t.Fatalf("GOMAXPROCS %d, want %d CPUs + 1", p, cpus)
	}
	if c := core.Cores(); c != cpus {
		t.Fatalf("core budget %d with a spare P, want the %d CPUs", c, cpus)
	}
}

// TestGCFloorMetrics: /metrics shows the runtime settings — GC cycles
// run, the current heap goal, the Ps and the core budget.
func TestGCFloorMetrics(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	runtime.GC()
	_, body := get(t, ts.URL+"/metrics")
	for _, m := range []struct {
		name string
		min  float64
	}{
		{"wcojd_gc_cycles_total", 1}, {"wcojd_gc_heap_goal_bytes", 1},
		{"wcojd_gomaxprocs", 1}, {"wcojd_core_slots", 1},
		{"wcojd_core_slots_busy", 0}, {"wcojd_shard_yields_total", 0},
	} {
		if !strings.Contains(body, "# TYPE "+m.name+" ") {
			t.Errorf("metrics missing the TYPE line of %s", m.name)
		}
		v := -1.0
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, m.name+" "); ok {
				v, _ = strconv.ParseFloat(rest, 64)
			}
		}
		if v < m.min {
			t.Errorf("%s = %v, want >= %v", m.name, v, m.min)
		}
	}
}
