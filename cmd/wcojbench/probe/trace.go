package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wcoj"
	"wcoj/cmd/wcojbench/workload"
	"wcoj/internal/core"
	"wcoj/internal/delta"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
	"wcoj/internal/wal"
)

// The traced run replays the first operations of a workload in
// process, count-bounded so that every count repeats exactly. Spans
// inside the product are a later change, so a request span's children
// are shadow calls: after the real call returns, the same input is
// handed to the next layer down through its public function, on state
// the bench owns (a second DB without a WAL, a delta.Version, a
// wal.Log, a trie source). A child's time is therefore its duration,
// not its position inside the parent's interval, and a layer's self
// time is its span minus the durations of its children. The
// decomposition is only as good as trace.coverage says: the children
// of the request spans must add up to the request spans.

// traceOps is how many operations of each workload are replayed: the
// issue's 200 / 2000 / 500 / 500 with the write workloads shortened by
// the factor the measured phases were.
var traceOps = map[string]int{"read_heavy": 200, "read_short": 2000, "write_heavy": 200, "mixed_rw": 200}

type span struct {
	Name    string           `json:"name"`
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 for a request span
	Req     int              `json:"req"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

// begin opens a span and returns its id; parent 0 starts a request.
func (t *tracer) begin(name string, parent int) int {
	if parent == 0 {
		t.req++
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: t.req, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, counts map[string]int64) {
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.spans[id-1].Counts = counts
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay is the state of one pass over a workload's operations.
type replay struct {
	ctx   context.Context
	db    *wcoj.DB                // the system under trace: durable, as wcojd -dir runs it
	view  *wcoj.MaterializedQuery // m0 on db, write_heavy only
	tr    *tracer                 // nil on the untraced pass
	total time.Duration           // time inside the real calls

	// Bench-owned lower layers, traced pass only.
	shadow *wcoj.DB // same relations and views, no WAL
	ver    *delta.Version
	log    *wal.Log
	epoch  uint64
	tries  *tracedSource
}

func newReplay(d *workload.Data, name, dir string, traced bool) *replay {
	r := &replay{ctx: context.Background()}
	var err error
	r.db, err = wcoj.OpenDir(filepath.Join(dir, "db"))
	check(err)
	register(r.db, d)
	views := func(db *wcoj.DB) *wcoj.MaterializedQuery {
		m0, err := db.Materialize(workload.Classes["tri_pl"].Query, wcoj.MaterializeOptions{Mode: wcoj.MaterializeCount})
		check(err)
		_, err = db.Materialize(workload.Classes["cycle2_count"].Query, wcoj.MaterializeOptions{Mode: wcoj.MaterializeRows})
		check(err)
		return m0
	}
	if name == "write_heavy" {
		r.view = views(r.db)
	}
	if !traced {
		return r
	}
	r.tr = &tracer{t0: time.Now()}
	r.shadow = wcoj.NewDB()
	register(r.shadow, d)
	if name == "write_heavy" {
		views(r.shadow)
	}
	r.ver = delta.New(relationOf("E", d.Rels["E"]))
	r.log, _, _, err = wal.Open(filepath.Join(dir, "log"))
	check(err)
	r.tries = &tracedSource{tr: r.tr, built: map[string]builtTrie{}, merged: map[string]mergedTrie{}}
	return r
}

func (r *replay) close() {
	check(r.db.Close())
	if r.log != nil {
		check(r.log.Close())
	}
}

var errLimit = errors.New("row limit")

// execute answers class c the way wcojd's handler does.
func execute(ctx context.Context, pq *wcoj.PreparedQuery, c workload.Class) (*wcoj.Stats, error) {
	switch c.Mode {
	case workload.Exists:
		_, st, err := pq.Exists(ctx)
		return st, err
	case workload.Rows:
		n := 0
		st, err := pq.ExecuteFunc(ctx, func(wcoj.Tuple) error {
			if n == c.Limit {
				return errLimit
			}
			n++
			return nil
		})
		if errors.Is(err, errLimit) {
			err = nil
		}
		return st, err
	}
	_, st, err := pq.Count(ctx)
	return st, err
}

func options(c workload.Class) wcoj.Options {
	var o wcoj.Options
	var err error
	if c.Algo != "" {
		o.Algorithm, err = wcoj.ParseAlgorithm(c.Algo)
		check(err)
	}
	if c.Planner != "" {
		o.Planner, err = wcoj.ParsePlanner(c.Planner)
		check(err)
	}
	return o
}

func statCounts(st *wcoj.Stats) map[string]int64 {
	if st == nil {
		return nil
	}
	return map[string]int64{"recursions": int64(st.Recursions), "intersect_values": int64(st.IntersectValues), "output": int64(st.Output)}
}

// query replays one POST /query.
func (r *replay) query(c workload.Class) {
	opts := options(c)
	start := time.Now()
	req := 0
	if r.tr != nil {
		req = r.tr.begin("request.query", 0)
	}
	pq, err := r.db.Prepare(c.Query, opts)
	check(err)
	st, err := execute(r.ctx, pq, c)
	check(err)
	r.total += time.Since(start)
	if r.tr == nil {
		return
	}
	r.tr.end(req, statCounts(st))

	prep := r.tr.begin("wcoj.prepare", req)
	spq, err := r.shadow.Prepare(c.Query, opts)
	check(err)
	r.tr.end(prep, nil)
	parse := r.tr.begin("query.parse", prep)
	_, err = wcoj.Parse(c.Query)
	check(err)
	r.tr.end(parse, nil)

	exec := r.tr.begin("wcoj.exec", req)
	st, err = execute(r.ctx, spq, c)
	check(err)
	r.tr.end(exec, statCounts(st))
	// Whatever tries the call above had to build or re-version, the
	// bench-owned source now builds too, under its own span.
	refresh := r.tr.begin("trie.refresh", exec)
	r.tries.parent, r.tries.ver = refresh, r.ver
	q, err := r.shadow.Bind(c.Query)
	check(err)
	_, err = core.BuildPlanSrc(r.tries, q, core.HeuristicOrder())
	check(err)
	r.tr.end(refresh, nil)
}

// update replays one POST /update.
func (r *replay) update(b workload.Batch) {
	start := time.Now()
	req := 0
	if r.tr != nil {
		req = r.tr.begin("request.update", 0)
	}
	us, err := r.db.Apply(wcojBatch(b))
	check(err)
	r.total += time.Since(start)
	if r.tr == nil {
		return
	}
	r.tr.end(req, map[string]int64{"inserted": int64(us.Inserted), "deleted": int64(us.Deleted)})

	nowal := r.tr.begin("wcoj.apply_nowal", req)
	_, err = r.shadow.Apply(wcojBatch(b))
	check(err)
	r.tr.end(nowal, nil)
	ops := deltaOps(b)
	da := r.tr.begin("delta.apply", nowal)
	nv, _, err := r.ver.Apply(ops)
	check(err)
	r.tr.end(da, map[string]int64{"ops": int64(len(ops)), "delta_depth": int64(nv.DeltaLen())})
	// The DB folds the delta on a background goroutine, off the
	// request path; the bench-owned version folds untimed.
	if nv.NeedsCompaction(wcoj.DefaultCompactionRatio, 1024) {
		nv = nv.Compacted()
	}
	r.ver = nv

	r.epoch++
	before := r.log.Size()
	ws := r.tr.begin("wal.append_sync", req)
	check(r.log.Append(&wal.Record{Kind: wal.KindBatch, Epoch: r.epoch, Batch: []wal.RelOps{{Rel: "E", Ops: ops}}}))
	check(r.log.Sync())
	r.tr.end(ws, map[string]int64{"bytes": r.log.Size() - before})
}

// readView replays GET /materialized/m0: one atomic load.
func (r *replay) readView() {
	start := time.Now()
	req := 0
	if r.tr != nil {
		req = r.tr.begin("request.view", 0)
	}
	res := r.view.Result()
	r.total += time.Since(start)
	if r.tr != nil {
		r.tr.end(req, map[string]int64{"count": res.Count})
	}
}

// run feeds the first traceOps[name] operations of the workload (a
// quarter as many at the smoke-test scale).
func (r *replay) run(d *workload.Data, name string) {
	n := traceOps[name]
	if d.Scale == workload.Toy {
		n /= 4
	}
	switch name {
	case "read_heavy":
		for i := 0; i < n; i++ {
			r.query(workload.ReadHeavy[i%len(workload.ReadHeavy)])
		}
	case "read_short":
		s := workload.NewShortStream(d.Seed, 0)
		for i := 0; i < n; i++ {
			r.query(s.Next())
		}
	case "write_heavy":
		w := workload.NewWriter(d, 100)
		for i := 1; i <= n; i++ {
			r.update(w.Next())
			if i%10 == 0 {
				r.readView()
			}
			if i%5 == 0 {
				r.query(workload.WriteCheck)
			}
		}
	case "mixed_rw":
		w := workload.NewWriter(d, 50)
		for i := 0; i < n; i++ {
			r.update(w.Next())
			r.query(workload.MixedRead[i%len(workload.MixedRead)])
		}
	default:
		check(fmt.Errorf("unknown workload %q", name))
	}
}

type builtTrie struct {
	rel *relation.Relation
	t   *trie.Trie
}

type mergedTrie struct {
	epoch uint64
	t     *trie.Trie
}

// tracedSource is the bench-owned core.TrieSource: it resolves atoms
// like the DB's versioned source (a built trie for a clean relation, a
// base trie merged with the delta for E after writes), with a span
// around every trie.Build and trie.Merge.
type tracedSource struct {
	tr     *tracer
	parent int
	ver    *delta.Version // E's bench-owned version
	built  map[string]builtTrie
	merged map[string]mergedTrie
}

func (s *tracedSource) build(key string, a core.Atom, base *relation.Relation, order []string) (*trie.Trie, error) {
	if b, ok := s.built[key]; ok && b.rel == base {
		return b.t, nil
	}
	id := s.tr.begin("trie.build", s.parent)
	rn, err := base.Rename(a.Name, a.Vars...)
	if err != nil {
		return nil, err
	}
	t, err := trie.Build(rn, order)
	if err != nil {
		return nil, err
	}
	s.tr.end(id, map[string]int64{"tuples": int64(base.Len())})
	s.built[key] = builtTrie{base, t}
	return t, nil
}

// Get implements core.TrieSource.
func (s *tracedSource) Get(a core.Atom, order []string) (*trie.Trie, error) {
	key := a.Name + "(" + strings.Join(a.Vars, ",") + ")" + strings.Join(order, ",")
	if a.Name != "E" || s.ver.DeltaLen() == 0 {
		base := a.Rel
		if a.Name == "E" {
			base = s.ver.Base
		}
		return s.build(key, a, base, order)
	}
	if m, ok := s.merged[key]; ok && m.epoch == s.ver.Epoch {
		return m.t, nil
	}
	bt, err := s.build(key, a, s.ver.Base, order)
	if err != nil {
		return nil, err
	}
	sorted := func(r *relation.Relation) (*relation.Relation, error) {
		rn, err := r.Rename(a.Name, a.Vars...)
		if err != nil {
			return nil, err
		}
		return rn.SortedBy(order)
	}
	add, err := sorted(s.ver.Add)
	if err != nil {
		return nil, err
	}
	del, err := sorted(s.ver.Del)
	if err != nil {
		return nil, err
	}
	id := s.tr.begin("trie.merge", s.parent)
	t, err := trie.Merge(bt, add, del)
	if err != nil {
		return nil, err
	}
	s.tr.end(id, map[string]int64{"base": int64(bt.Len()), "delta": int64(add.Len() + del.Len())})
	s.merged[key] = mergedTrie{s.ver.Epoch, t}
	return t, nil
}

// traceWorkload runs the untraced and the traced pass and reports the
// coverage, the overhead and every layer's self time per request.
func traceWorkload(m metrics, d *workload.Data, name, tmp, out string) {
	// The untraced pass runs before and after the traced one, so that
	// a machine warming up or slowing down does not read as overhead.
	untraced := func(dir string) float64 {
		plain := newReplay(d, name, filepath.Join(tmp, dir), false)
		plain.run(d, name)
		plain.close()
		return float64(plain.total)
	}
	before := untraced("trace-before")
	r := newReplay(d, name, filepath.Join(tmp, "trace-spans"), true)
	r.run(d, name)
	r.close()
	plain := (before + untraced("trace-after")) / 2
	if out != "" {
		check(r.tr.write(out))
	}

	dur := func(s span) float64 { return float64(s.EndNS - s.StartNS) }
	children := make([]float64, len(r.tr.spans)+1) // by parent id
	for _, s := range r.tr.spans {
		children[s.Parent] += dur(s)
	}
	self := map[string]float64{}
	var requests, covered float64
	for _, s := range r.tr.spans {
		self[s.Name] += dur(s) - children[s.ID]
		if s.Parent == 0 {
			requests += dur(s)
			covered += children[s.ID]
		}
	}
	m.set("trace.requests", float64(r.tr.req), "count")
	m.set("trace.coverage", covered/requests, "ratio")
	m.set("trace.overhead_frac", (requests-plain)/plain, "ratio")
	// A request's own self time is what no child explains.
	self["request"] = self["request.query"] + self["request.update"] + self["request.view"]
	for _, layer := range []string{"request", "wcoj.prepare", "query.parse", "wcoj.exec", "trie.refresh", "trie.build", "trie.merge", "wcoj.apply_nowal", "delta.apply", "wal.append_sync"} {
		m.set("trace.self_us_per_req."+layer, self[layer]/1e3/float64(r.tr.req), "us")
	}
}
