package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp records where and from what a results file was measured.
type stamp struct {
	Time       string `json:"time"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func newStamp(root string) stamp {
	s := stamp{
		Time: time.Now().UTC().Format(time.RFC3339), GitSHA: "nogit",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// resultsFile is what -all writes: every run of every workload, the
// probe's layer metrics and each workload's trace summary. It ends
// with the performance claim the run supports; a benchmark-defining
// run supports none.
type resultsFile struct {
	Stamp   stamp                `json:"stamp"`
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"seconds"`
	BuildS  float64              `json:"build_s"`
	Runs    map[string][]*result `json:"runs"`
	Probe   metrics              `json:"probe"`
	Traces  map[string]metrics   `json:"traces"`
	Claim   *string              `json:"claim"`
}

// writeResults stores f as <dir>/<sha>-<seed>.json, or with the first
// free -2, -3, ... suffix: results are a trajectory and never
// overwritten.
func writeResults(dir string, f *resultsFile) (string, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("%s-%d", f.Stamp.GitSHA, f.Seed)
	for n := 1; ; n++ {
		name := base + ".json"
		if n > 1 {
			name = fmt.Sprintf("%s-%d.json", base, n)
		}
		path := filepath.Join(dir, name)
		out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := out.Write(append(data, '\n')); err != nil {
			out.Close()
			return "", err
		}
		return path, out.Close()
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the method the acceptance check
// uses), so a spread computed here is the spread judged there.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := len(xs)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; it needs
// four values to mean anything and is 0 below that.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// judgement is one -compare row.
type judgement struct {
	medianA, medianB float64
	worse            float64 // share of a's median by which b is worse; negative when better
	spread           float64 // the wider of the two sides' own spreads
	verdict          string  // ok, regressed or unresolved
}

// judge compares the runs of one metric on one workload. A pairing
// whose own run-to-run spread exceeds the bound cannot resolve a
// change of that size and is unresolved, never ok.
func judge(xa, xb []float64, m contractMetric) judgement {
	j := judgement{
		medianA: median(xa),
		medianB: median(xb),
		spread:  max(spread(xa), spread(xb)),
		verdict: "ok",
	}
	j.worse = (j.medianB - j.medianA) / j.medianA
	if m.Better == "higher" {
		j.worse = -j.worse
	}
	switch {
	case j.spread > m.Bound:
		j.verdict = "unresolved"
	case j.worse > m.Bound:
		j.verdict = "regressed"
	}
	return j
}

// compareFiles prints one row per (workload, end-to-end metric): the
// two medians, how much worse b is than a, and the verdict under the
// metric's bound in BENCHMARK.json.
func compareFiles(ct *contract, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	values := func(f *resultsFile, workload, name string) []float64 {
		var xs []float64
		for _, r := range f.Runs[workload] {
			if m, ok := r.EndToEnd[name]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Printf("%-12s %-20s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a.median", "b.median", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range ct.Workloads {
		for _, m := range ct.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-12s %-20s %12s %12s %8s %8s %6.0f%%  missing\n", w.Name, m.Name, "-", "-", "-", "-", 100*m.Bound)
				continue
			}
			j := judge(xa, xb, m)
			if j.verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-12s %-20s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n", w.Name, m.Name, j.medianA, j.medianB, 100*j.worse, 100*j.spread, 100*m.Bound, j.verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
