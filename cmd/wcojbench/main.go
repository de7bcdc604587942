// Command wcojbench is the repository's benchmark: it builds the real
// wcojd binary, drives it over HTTP with four seeded workloads, checks
// every answer against an oracle, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root names the metrics
// and their regression bounds; README.md explains the workloads.
//
//	go run -C cmd/wcojbench . -all -seed 1            # every workload + traced run, writes results/
//	go run -C cmd/wcojbench . --workload read_heavy --seed 1 --seconds 10 --trace 0
//	go run -C cmd/wcojbench . -compare results/a.json results/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"wcoj/cmd/wcojbench/workload"
)

// contract is BENCHMARK.json: the metric names this program must
// print, and the bounds -compare judges by.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json and the wcojd sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func readContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// goBuild compiles one package into the build directory. Everything
// the benchmark writes stays under <root>/.bench_build.
func goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "wcojbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (driver mode)")
		seed         = flag.Int64("seed", 1, "seed for datasets and op streams; the server never sees it")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 adds the in-process probe and the traced run and reports the per-layer metrics")
		all          = flag.Bool("all", false, "run every workload, then the probe and the traced runs, and write a results file")
		runs         = flag.Int("runs", 1, "with -all: timed runs per workload (5 or more give -compare a spread)")
		compare      = flag.Bool("compare", false, "compare two results files: wcojbench -compare a.json b.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		return err
	}
	ct, err := readContract(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(ct, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(ct.RunSeconds)
	}

	b, err := newBench(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)
	// A signal must not leave wcojd children or temp directories
	// behind: run() registers every child it starts.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.RemoveAll(b.tmp)
		os.Exit(130)
	}()

	switch {
	case *all:
		return b.runAll(*seed, *seconds, *runs)
	case *workloadName != "":
		return b.runOne(ct, *workloadName, *seed, *seconds, *trace == 1)
	}
	return fmt.Errorf("nothing to do: pass -all, --workload <name> or -compare (see README.md)")
}

// bench is one invocation's build products and scratch space.
type bench struct {
	root     string
	buildDir string // <root>/.bench_build
	tmp      string // this invocation's scratch directory inside buildDir
	wcojd    string
	probe    string // "" when the probe did not build
	buildS   float64
}

func newBench(root string) (*bench, error) {
	b := &bench{root: root, buildDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(b.buildDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.tmp, err = os.MkdirTemp(b.buildDir, "run-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) config(name string, seed int64, seconds float64) runConfig {
	return runConfig{
		wcojd: b.wcojd, tmp: b.tmp, workload: name, seed: seed, seconds: seconds,
		scale: workload.Bench, setups: 5, recoveries: 3, clients: runtime.NumCPU(),
	}
}

// report prints everything one run measured, and why operations
// failed if any did.
func report(res *result) {
	printMetrics(res.Workload, res.EndToEnd)
	printMetrics(res.Workload, res.Layers)
	printMetrics(res.Workload, res.Samples)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "wcojbench: failed operation:", e)
	}
}

// printMetrics prints "<workload> <metric> <value> <unit>" rows,
// sorted by name.
func printMetrics(name string, m metrics) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.6g %s\n", name, k, m[k].Value, m[k].Unit)
	}
}

// children are the wcojd processes alive right now, so that a signal
// can take them down with the benchmark. Once closed, no further child
// may start: the main goroutine keeps running until os.Exit and would
// otherwise start the next instance after the sweep.
var children = struct {
	sync.Mutex
	live   map[*server]struct{}
	closed bool
}{live: map[*server]struct{}{}}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	children.closed = true
	for s := range children.live {
		s.cmd.Process.Kill()
	}
}

// build compiles wcojd (required) and the probe (optional: a probe
// that no longer compiles against the product costs only the
// per-layer metrics).
func (b *bench) build(withProbe bool) error {
	start := time.Now()
	b.wcojd = filepath.Join(b.buildDir, "wcojd")
	if err := goBuild(b.root, "./cmd/wcojd", b.wcojd); err != nil {
		return fmt.Errorf("build wcojd: %w", err)
	}
	if withProbe {
		b.probe = filepath.Join(b.buildDir, "wcojprobe")
		if err := goBuild(filepath.Join(b.root, "cmd", "wcojbench"), "./probe", b.probe); err != nil {
			fmt.Fprintln(os.Stderr, "wcojbench: probe did not build; its per-layer metrics are missing:", err)
			b.probe = ""
		}
	}
	b.buildS = time.Since(start).Seconds()
	fmt.Printf("build build_s %.3f s\n", b.buildS)
	return nil
}

// runProbe runs the probe child and returns its metrics, or nil when
// it is missing or fails.
func (b *bench) runProbe(seed int64, args ...string) metrics {
	if b.probe == "" {
		return nil
	}
	tmp, err := os.MkdirTemp(b.tmp, "probe-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcojbench:", err)
		return nil
	}
	defer os.RemoveAll(tmp)
	cmd := exec.Command(b.probe, append([]string{"-seed", fmt.Sprint(seed), "-tmp", tmp}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcojbench: probe failed; its per-layer metrics are missing:", err)
		return nil
	}
	var reply struct {
		Metrics metrics `json:"metrics"`
	}
	if err := json.Unmarshal(out, &reply); err != nil {
		fmt.Fprintln(os.Stderr, "wcojbench: probe output:", err)
		return nil
	}
	return reply.Metrics
}

// warnCoverage says so when a traced run's children do not add up to
// its requests: the per-layer self times of that run are then not to
// be trusted.
func warnCoverage(name string, m metrics) {
	if c, ok := m["trace.coverage"]; ok && (c.Value < 0.7 || c.Value > 1.3) {
		fmt.Fprintf(os.Stderr, "wcojbench: %s: trace.coverage %.2f is outside 0.7-1.3; do not trust its trace.self_us_per_req.*\n", name, c.Value)
	}
}

// missing is the value reported for a per-layer metric the probe could
// not produce: the result line must still name every metric.
const missing = -1

// runOne is driver mode: one workload, one JSON result as the last
// line of standard output.
func (b *bench) runOne(ct *contract, name string, seed int64, seconds float64, trace bool) error {
	if err := b.build(trace); err != nil {
		return err
	}
	cfg := b.config(name, seed, seconds)
	if trace {
		// The traced run reports layers, not set-up or recovery: one
		// sample of each is enough to reach the measured phase.
		cfg.setups, cfg.recoveries = 1, 1
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	out := metrics{}
	if trace {
		traceOut := filepath.Join(b.buildDir, "trace_"+name+".jsonl")
		probe := b.runProbe(seed, "-layers", "-trace", name, "-traceout", traceOut)
		warnCoverage(name, probe)
		for k, v := range probe {
			res.Layers[k] = v
		}
		for _, m := range ct.PerLayer {
			v, ok := res.Layers[m.Name]
			if !ok {
				v = metric{missing, m.Unit}
				res.Layers[m.Name] = v
			}
			out[m.Name] = v
		}
	} else {
		for _, m := range ct.EndToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			out[m.Name] = v
		}
	}
	report(res)
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload `runs` times, then the layer probes and
// one traced run per workload, and writes the results file.
func (b *bench) runAll(seed int64, seconds float64, runs int) error {
	if err := b.build(true); err != nil {
		return err
	}
	out := &resultsFile{
		Stamp: newStamp(b.root), Seed: seed, Seconds: seconds, BuildS: b.buildS,
		Runs: map[string][]*result{}, Traces: map[string]metrics{},
	}
	resultsDir := filepath.Join(b.root, "cmd", "wcojbench", "results")
	failed := 0
	for _, sp := range specs {
		for i := 0; i < runs; i++ {
			res, err := runWorkload(b.config(sp.name, seed, seconds))
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			report(res)
			failed += res.Failed
			out.Runs[sp.name] = append(out.Runs[sp.name], res)
		}
	}
	out.Probe = b.runProbe(seed, "-layers")
	printMetrics("probe", out.Probe)
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	for _, sp := range specs {
		t := b.runProbe(seed, "-trace", sp.name, "-traceout", filepath.Join(resultsDir, "trace_"+sp.name+".jsonl"))
		warnCoverage(sp.name, t)
		printMetrics(sp.name, t)
		out.Traces[sp.name] = t
	}
	path, err := writeResults(resultsDir, out)
	if err != nil {
		return err
	}
	fmt.Println("results", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
