package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value. Names and units are the
// ones BENCHMARK.json and the README list.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics, and NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects what one client goroutine observed. Each goroutine
// owns one; they are merged after the goroutines have returned.
type recorder struct {
	queryMS    []float64
	classMS    map[string][]float64
	overheadUS []float64 // client latency minus the reply's elapsed_us
	respBytes  int64
	updateMS   []float64
	lateMS     []float64 // open loop only: send time minus due time
	tuples     int       // effective tuples acknowledged
	lastEpoch  uint64    // epoch of the last acknowledged batch
	attempted  int
	failed     int
	errs       []string
}

func newRecorder() *recorder { return &recorder{classMS: map[string][]float64{}} }

// fail counts one failed operation and keeps the first few reasons.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// merge folds in everything o observed.
func (r *recorder) merge(o *recorder) {
	r.queryMS = append(r.queryMS, o.queryMS...)
	for c, xs := range o.classMS {
		r.classMS[c] = append(r.classMS[c], xs...)
	}
	r.overheadUS = append(r.overheadUS, o.overheadUS...)
	r.respBytes += o.respBytes
	r.updateMS = append(r.updateMS, o.updateMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.tuples += o.tuples
	r.mergeOutcomes(o)
}

// mergeOutcomes folds in only what o attempted, failed and had
// acknowledged — for operations outside the measured phases (checks,
// settling), whose latencies must stay out of the samples.
func (r *recorder) mergeOutcomes(o *recorder) {
	r.lastEpoch = max(r.lastEpoch, o.lastEpoch)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}
