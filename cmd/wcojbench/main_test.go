package main

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"wcoj/cmd/wcojbench/workload"
)

func loadContract(t *testing.T) (string, *contract) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, ct
}

func checkMetric(t *testing.T, where string, got metrics, want contractMetric) {
	t.Helper()
	m, ok := got[want.Name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s was not emitted", where, want.Name)
	case m.Unit != want.Unit:
		t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, want.Name, m.Unit, want.Unit)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s is %v", where, want.Name, m.Value)
	}
}

// TestSmoke runs every workload against a real wcojd child at toy
// scale, then the probe and a traced run per workload, and checks that
// exactly the metrics BENCHMARK.json names come out, with its units,
// and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts wcojd child processes")
	}
	root, ct := loadContract(t)
	b := &bench{root: root, buildDir: t.TempDir()}
	b.tmp = b.buildDir
	if err := b.build(true); err != nil {
		t.Fatal(err)
	}
	if b.probe == "" {
		t.Fatal("the probe did not build")
	}
	if len(ct.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(ct.Workloads), len(specs))
	}
	layers := map[string]metrics{}
	for _, w := range ct.Workloads {
		res, err := runWorkload(runConfig{
			wcojd: b.wcojd, tmp: b.tmp, workload: w.Name, seed: 1, seconds: 0.3,
			scale: workload.Toy, setups: 1, recoveries: 1, clients: runtime.NumCPU(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Layers["failed_frac"].Value != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range ct.EndToEnd {
			checkMetric(t, w.Name, res.EndToEnd, m)
			if res.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, m.Name, res.EndToEnd[m.Name].Value)
			}
		}
		layers[w.Name] = res.Layers
	}
	probe := b.runProbe(1, "-toy", "-layers")
	if probe == nil {
		t.Fatal("the probe failed")
	}
	for _, w := range ct.Workloads {
		trace := b.runProbe(1, "-toy", "-trace", w.Name, "-traceout", filepath.Join(b.tmp, "trace_"+w.Name+".jsonl"))
		if trace == nil {
			t.Fatalf("%s: the traced run failed", w.Name)
		}
		all := metrics{}
		for _, part := range []metrics{layers[w.Name], probe, trace} {
			for k, v := range part {
				all[k] = v
			}
		}
		for _, m := range ct.PerLayer {
			checkMetric(t, w.Name, all, m)
		}
		if len(all) != len(ct.PerLayer) {
			for k := range all {
				found := false
				for _, m := range ct.PerLayer {
					found = found || m.Name == k
				}
				if !found {
					t.Errorf("%s: metric %s is emitted but missing from BENCHMARK.json per_layer", w.Name, k)
				}
			}
		}
		// At toy scale requests take microseconds and the 0.7-1.3 band
		// means nothing; the real runs warn when they leave it.
		if c := trace["trace.coverage"].Value; c <= 0 {
			t.Errorf("%s: trace coverage %.2f", w.Name, c)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := contractMetric{Name: "latency", Better: "lower", Bound: 0.10}
	higher := contractMetric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		m      contractMetric
		expect string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower", steady, []float64{120, 121, 119, 120, 122}, lower, "regressed"},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, lower, "ok"},
		{"rate drops", steady, []float64{80, 81, 79, 80, 82}, higher, "regressed"},
		{"rate rises", steady, []float64{120, 121, 119, 120, 122}, higher, "ok"},
		{"noisy", steady, []float64{70, 100, 130, 85, 115}, lower, "unresolved"},
		{"single runs", []float64{100}, []float64{105}, lower, "ok"},
	} {
		if got := judge(c.a, c.b, c.m).verdict; got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}
