// Command probe is wcojbench's in-process half. It links the product's
// packages directly, so it can time one layer at a time (the layer
// probes) and replay a workload's first operations with a span around
// every layer boundary (the traced run). It is a separate program, run
// as a child of wcojbench, so that a refactor which breaks one of the
// functions it pins (listed in ../README.md) costs the per-layer
// metrics and not the end-to-end run.
//
//	probe -seed 1 -layers -trace read_heavy -traceout trace.jsonl -tmp <dir>
//
// It prints one JSON object: {"gomaxprocs": N, "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wcoj"
	"wcoj/cmd/wcojbench/workload"
	"wcoj/internal/relation"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// calls is the number of warm calls behind every reported median.
const calls = 30

// medianOf sorts ds and returns its median.
func medianOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return (ds[(len(ds)-1)/2] + ds[len(ds)/2]) / 2
}

// p50n runs f once to warm it and then n times, and returns the median
// duration. Calls that take tens of milliseconds use n = 10.
func p50n(n int, f func()) time.Duration {
	f()
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return medianOf(ds)
}

func p50(f func()) time.Duration { return p50n(calls, f) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// check aborts the probe: every failure here is a broken pin or a
// broken environment, and the parent reports the metrics as missing.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// relationOf turns an edge list into the relation wcojd would load.
func relationOf(name string, edges []workload.Edge) *relation.Relation {
	b := relation.NewBuilder(name, "src", "dst")
	for _, e := range edges {
		check(b.Add(relation.Value(e[0]), relation.Value(e[1])))
	}
	return b.Build()
}

// register loads every generated relation into db.
func register(db *wcoj.DB, d *workload.Data) {
	for _, name := range workload.RelNames {
		check(db.Register(relationOf(name, d.Rels[name])))
	}
}

// wcojBatch converts a generated batch into the engine's, deletes
// first as wcojd's handler does.
func wcojBatch(b workload.Batch) *wcoj.Batch {
	tuples := func(edges []workload.Edge) []wcoj.Tuple {
		out := make([]wcoj.Tuple, len(edges))
		for i, e := range edges {
			out[i] = wcoj.Tuple{wcoj.Value(e[0]), wcoj.Value(e[1])}
		}
		return out
	}
	return wcoj.NewBatch().Delete("E", tuples(b.Del)...).Insert("E", tuples(b.Ins)...)
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "dataset and op-stream seed")
		toy      = flag.Bool("toy", false, "use the smoke-test scale")
		layers   = flag.Bool("layers", false, "run the layer probes")
		trace    = flag.String("trace", "", "workload whose first operations to replay with spans")
		traceOut = flag.String("traceout", "", "file the spans are written to as JSON lines")
		tmp      = flag.String("tmp", "", "scratch directory for WAL directories and data files")
	)
	flag.Parse()
	if *tmp == "" {
		check(fmt.Errorf("-tmp is required"))
	}
	scale := workload.Bench
	if *toy {
		scale = workload.Toy
	}
	d := workload.Generate(*seed, scale)
	m := metrics{}
	if *layers {
		probeLayers(m, d, *tmp)
	}
	if *trace != "" {
		traceWorkload(m, d, *trace, *tmp, *traceOut)
	}
	check(json.NewEncoder(os.Stdout).Encode(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"metrics":    m,
	}))
}
