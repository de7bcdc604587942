package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wcoj"
	"wcoj/cmd/wcojbench/workload"
	"wcoj/internal/delta"
	"wcoj/internal/planner"
	"wcoj/internal/relation"
	"wcoj/internal/stats"
	"wcoj/internal/trie"
	"wcoj/internal/wal"
)

// batchSizes are the batch sizes the delta and WAL probes share.
var batchSizes = []struct {
	name string
	n    int
}{{"b1", 1}, {"b100", 100}, {"b10k", 10000}}

// countClasses are the count queries probed per engine. tri_agm is the
// R,S,T triangle both tri_agm_gj and tri_agm_lftj send.
var countClasses = []struct{ name, class string }{
	{"tri_agm", "tri_agm_gj"}, {"tri_pl", "tri_pl"}, {"tri_plw", "tri_plw"},
	{"clique4", "clique4"}, {"cycle4", "cycle4"}, {"path4", "path4"},
}

// probeLayers times each layer through its public functions, on the
// same generated data the end-to-end run serves.
func probeLayers(m metrics, d *workload.Data, tmp string) {
	ctx := context.Background()
	db := wcoj.NewDB()
	register(db, d)
	probeEngines(ctx, m, db)
	probePrepare(m, db)
	probeWrites(ctx, m, d, tmp)
	probeTrie(m, d)
	probeDelta(m, d)
	probeWAL(m, d, tmp)
	probeLoad(m, d, tmp)
}

// probeEngines: internal/core, internal/lftj and internal/agg seen
// through Prepare + PreparedQuery.Count, the one entry every refactor
// on the roadmap keeps.
func probeEngines(ctx context.Context, m metrics, db *wcoj.DB) {
	count := func(src string, opts wcoj.Options) (time.Duration, int, *wcoj.Stats) {
		pq, err := db.Prepare(src, opts)
		check(err)
		var n int
		var st *wcoj.Stats
		d := p50(func() {
			n, st, err = pq.Count(ctx)
			check(err)
		})
		return d, n, st
	}
	for _, c := range countClasses {
		src := workload.Classes[c.class].Query
		gj, n, st := count(src, wcoj.Options{Algorithm: wcoj.AlgoGenericJoin, Parallelism: 1})
		lf, _, _ := count(src, wcoj.Options{Algorithm: wcoj.AlgoLeapfrog, Parallelism: 1})
		par, _, _ := count(src, wcoj.Options{Algorithm: wcoj.AlgoGenericJoin, Parallelism: runtime.NumCPU()})
		m.set("wcoj.count_ms."+c.name+".gj", msOf(gj), "ms")
		m.set("wcoj.count_ms."+c.name+".lftj", msOf(lf), "ms")
		m.set("core.par_speedup."+c.name, float64(gj)/float64(par), "ratio")
		m.set("core.recursions."+c.name, float64(st.Recursions), "count")
		m.set("core.intersect_values."+c.name, float64(st.IntersectValues), "count")
		m.set("agg.memo_hits."+c.name, float64(st.AggMemoHits), "count")
		m.set("agg.multiplies."+c.name, float64(st.AggMultiplies), "count")
		m.set("core.output_per_recursion."+c.name, float64(n)/float64(max(st.Recursions, 1)), "ratio")
		if c.name == "tri_agm" {
			m.set("lftj.vs_gj_ratio.tri_agm", float64(lf)/float64(gj), "ratio")
		}
	}
}

// probePrepare: the plan cache, and behind a miss the parser, the
// planner statistics and the cost-based planner.
func probePrepare(m metrics, db *wcoj.DB) {
	src := workload.Classes["clique4"].Query
	m.set("wcoj.prepare_hit_us", usOf(p50(func() {
		_, err := db.Prepare(src, wcoj.Options{})
		check(err)
	})), "us")
	// Plans are resolved on a prepared query's first execution, so a
	// miss costs what the first Prepare + Count of a never-seen text
	// takes beyond the second.
	ctx := context.Background()
	samples := make([]time.Duration, calls)
	for i := range samples {
		c := workload.FreshText(i)
		run := func() time.Duration {
			start := time.Now()
			pq, err := db.Prepare(c.Query, wcoj.Options{Planner: wcoj.PlannerCostBased})
			check(err)
			_, _, err = pq.Count(ctx)
			check(err)
			return time.Since(start)
		}
		first := run()
		samples[i] = first - run()
	}
	m.set("wcoj.prepare_miss_us", usOf(medianOf(samples)), "us")
	m.set("query.parse_us", usOf(p50(func() {
		_, err := wcoj.Parse(src)
		check(err)
	})), "us")
	tri, err := db.Bind(workload.Classes["tri_limit10"].Query) // 3 variables on G
	check(err)
	path, err := db.Bind(workload.Classes["path4"].Query) // 4 variables on G
	check(err)
	m.set("stats.for_planner_ms", msOf(p50(func() {
		_, err := stats.ForPlanner(path, 3)
		check(err)
	})), "ms")
	for _, q := range []struct {
		name string
		q    *wcoj.Query
	}{{"v3", tri}, {"v4", path}} {
		m.set("planner.choose_ms."+q.name, msOf(p50(func() {
			_, err := planner.Choose(q.q, planner.Options{Policy: planner.CostBased})
			check(err)
		})), "ms")
	}
}

// probeWrites: the write path of db.go / dbmutate.go / dbmaterialize.go
// / dbwal.go on E, one 100-op batch at a time.
func probeWrites(ctx context.Context, m metrics, d *workload.Data, tmp string) {
	e := relationOf("E", d.Rels["E"])
	tri, cyc := workload.Classes["tri_pl"].Query, workload.Classes["cycle2_count"].Query
	views := func(db *wcoj.DB) {
		_, err := db.Materialize(tri, wcoj.MaterializeOptions{Mode: wcoj.MaterializeCount})
		check(err)
		_, err = db.Materialize(cyc, wcoj.MaterializeOptions{Mode: wcoj.MaterializeRows})
		check(err)
	}
	// apply times Apply of consecutive batches of the seeded stream.
	apply := func(db *wcoj.DB) time.Duration {
		w := workload.NewWriter(d, 100)
		return p50(func() {
			_, err := db.Apply(wcojBatch(w.Next()))
			check(err)
		})
	}
	fresh := func() *wcoj.DB {
		db := wcoj.NewDB()
		check(db.Register(e))
		return db
	}

	dir := filepath.Join(tmp, "probe-apply")
	durable, err := wcoj.OpenDir(dir)
	check(err)
	check(durable.Register(e))
	m.set("wcoj.apply_ms.b100", msOf(apply(durable)), "ms")
	check(durable.Close())
	m.set("wcoj.opendir_s", p50n(10, func() {
		db, err := wcoj.OpenDir(dir)
		check(err)
		check(db.Close())
	}).Seconds(), "s")

	plain := apply(fresh())
	m.set("wcoj.apply_nowal_ms.b100", msOf(plain), "ms")
	viewed := fresh()
	views(viewed)
	m.set("wcoj.maintain_ms_per_batch", msOf(apply(viewed)-plain), "ms")

	db := fresh()
	m.set("wcoj.materialize_register_ms", msOf(p50(func() {
		mq, err := db.Materialize(tri, wcoj.MaterializeOptions{Mode: wcoj.MaterializeCount})
		check(err)
		check(mq.Close())
	})), "ms")

	// The first Count after a write re-versions E's tries; the second
	// runs on cached ones. The difference is what a write costs the
	// next reader.
	w := workload.NewWriter(d, 100)
	for _, c := range []string{"tri_pl", "cycle2_count"} {
		pq, err := db.Prepare(workload.Classes[c].Query, wcoj.Options{})
		check(err)
		samples := make([]time.Duration, calls)
		for i := range samples {
			_, err := db.Apply(wcojBatch(w.Next()))
			check(err)
			t0 := time.Now()
			_, _, err = pq.Count(ctx)
			check(err)
			first := time.Since(t0)
			t1 := time.Now()
			_, _, err = pq.Count(ctx)
			check(err)
			samples[i] = first - time.Since(t1)
		}
		m.set("wcoj.refresh_after_write_ms."+c, msOf(medianOf(samples)), "ms")
	}

	// Compact folds a delta of ten batches into the base.
	cdb := fresh()
	cw := workload.NewWriter(d, 100)
	samples := make([]time.Duration, calls)
	for i := range samples {
		for j := 0; j < 10; j++ {
			_, err := cdb.Apply(wcojBatch(cw.Next()))
			check(err)
		}
		t0 := time.Now()
		check(cdb.Compact("E"))
		samples[i] = time.Since(t0)
	}
	m.set("wcoj.compact_ms", msOf(medianOf(samples)), "ms")
}

// probeTrie: internal/trie build, merge and the three intersection
// kernels.
func probeTrie(m metrics, d *workload.Data) {
	e := relationOf("E", d.Rels["E"])
	var fwd *trie.Trie
	build := p50(func() {
		var err error
		fwd, err = trie.Build(e, []string{"src", "dst"})
		check(err)
		_, err = trie.Build(e, []string{"dst", "src"})
		check(err)
	})
	m.set("trie.build_ms", msOf(build), "ms")
	m.set("trie.build_mtuples_per_s", 2*float64(e.Len())/build.Seconds()/1e6, "1/s")
	m.set("trie.bytes_per_tuple", float64(fwd.SizeBytes())/float64(fwd.Len()), "B")

	// Merge a delta of the given depth over E's trie: d50 is one small
	// batch, d1k ten batches, dthresh the depth at which the default
	// compaction ratio (0.25) folds the delta away.
	w := workload.NewWriter(d, 100)
	v := delta.New(e)
	grow := func(depth int) *delta.Version {
		for v.DeltaLen() < depth {
			nv, _, err := v.Apply(deltaOps(w.Next()))
			check(err)
			v = nv
		}
		return v
	}
	for _, depth := range []struct {
		name string
		n    int
	}{{"d50", 50}, {"d1k", 1000}, {"dthresh", e.Len() / 4}} {
		ver := grow(depth.n)
		m.set("trie.merge_ms."+depth.name, msOf(p50(func() {
			_, err := trie.Merge(fwd, ver.Add, ver.Del)
			check(err)
		})), "ms")
	}

	// The kernels, on the shapes bench_test.go's BenchmarkIntersect
	// uses: balanced merge, 64-vs-100k gallop, three-way leapfrog.
	seq := func(n, step, off int) []relation.Value {
		out := make([]relation.Value, n)
		for i := range out {
			out[i] = relation.Value(step*i + off)
		}
		return out
	}
	level := func(keys []relation.Value) trie.LevelRange {
		return trie.LevelRange{Keys: keys, Lo: 0, Hi: len(keys)}
	}
	big, odd := seq(1<<16, 2, 0), seq(1<<16, 2, 1)
	var dst []relation.Value
	merge := p50(func() { dst = trie.IntersectLevels(dst[:0], []trie.LevelRange{level(odd), level(big)}) })
	m.set("trie.intersect_merge_mvals_per_s", float64(len(big)+len(odd))/merge.Seconds()/1e6, "1/s")
	tiny, huge := seq(64, 4500, 0), seq(100000, 3, 0)
	m.set("trie.intersect_gallop_ns", float64(p50(func() {
		dst = trie.IntersectLevels(dst[:0], []trie.LevelRange{level(tiny), level(huge)})
	})), "ns")
	third, small := seq(1<<12, 16, 0), seq(1<<6, 1024, 0)
	m.set("trie.intersect_leapfrog3_ns", float64(p50(func() {
		dst = trie.IntersectLevels(dst[:0], []trie.LevelRange{level(big), level(third), level(small)})
	})), "ns")
}

// deltaOps converts a generated batch into delta operations, deletes
// first as wcojd's handler orders them.
func deltaOps(b workload.Batch) []delta.Op {
	ops := make([]delta.Op, 0, len(b.Del)+len(b.Ins))
	for _, t := range b.Del {
		ops = append(ops, delta.Op{Del: true, T: relation.Tuple{relation.Value(t[0]), relation.Value(t[1])}})
	}
	for _, t := range b.Ins {
		ops = append(ops, delta.Op{T: relation.Tuple{relation.Value(t[0]), relation.Value(t[1])}})
	}
	return ops
}

// opsOf draws n effective operations on E from the seeded stream.
func opsOf(w *workload.Writer, n int) []delta.Op {
	var ops []delta.Op
	for len(ops) < n {
		ops = append(ops, deltaOps(w.Next())...)
	}
	return ops[:n]
}

// probeDelta: internal/delta Apply at three batch sizes, and the two
// ways a delta is folded back.
func probeDelta(m metrics, d *workload.Data) {
	base := delta.New(relationOf("E", d.Rels["E"]))
	for _, size := range batchSizes {
		// Every call applies the same batch to the same base version,
		// which Apply leaves untouched.
		ops := opsOf(workload.NewWriter(d, 100), size.n)
		m.set("delta.apply_us."+size.name, usOf(p50(func() {
			_, _, err := base.Apply(ops)
			check(err)
		})), "us")
	}
	// Effective is computed once per version, so each call needs a
	// version of its own: re-apply, then time only the fold.
	ops := opsOf(workload.NewWriter(d, 100), 1000)
	timeFold := func(fold func(*delta.Version)) time.Duration {
		samples := make([]time.Duration, calls)
		for i := range samples {
			nv, _, err := base.Apply(ops)
			check(err)
			t0 := time.Now()
			fold(nv)
			samples[i] = time.Since(t0)
		}
		return medianOf(samples)
	}
	m.set("delta.effective_ms", msOf(timeFold(func(v *delta.Version) { v.Effective() })), "ms")
	m.set("delta.compacted_ms", msOf(timeFold(func(v *delta.Version) { v.Compacted() })), "ms")
}

// probeWAL: internal/wal append+fsync at three batch sizes, replay and
// rotation, on a log of its own.
func probeWAL(m metrics, d *workload.Data, tmp string) {
	dir := filepath.Join(tmp, "probe-wal")
	log, _, _, err := wal.Open(dir)
	check(err)
	e := relationOf("E", d.Rels["E"])
	epoch := uint64(0)
	record := func(ops []delta.Op) *wal.Record {
		epoch++
		return &wal.Record{Kind: wal.KindBatch, Epoch: epoch, Batch: []wal.RelOps{{Rel: "E", Ops: ops}}}
	}
	check(log.Append(&wal.Record{Kind: wal.KindRegister, Rel: e}))
	check(log.Sync())
	w := workload.NewWriter(d, 100)
	for _, size := range batchSizes {
		ops := opsOf(w, size.n)
		before := log.Size()
		m.set("wal.append_sync_us."+size.name, usOf(p50(func() {
			check(log.Append(record(ops)))
			check(log.Sync())
		})), "us")
		if size.n == 100 {
			m.set("wal.bytes_per_tuple", float64(log.Size()-before)/float64((calls+1)*size.n), "B")
		}
	}
	ops := opsOf(w, 100)
	samples := make([]time.Duration, calls)
	for i := range samples {
		check(log.Append(record(ops)))
		t0 := time.Now()
		check(log.Sync())
		samples[i] = time.Since(t0)
	}
	m.set("wal.sync_us", usOf(medianOf(samples)), "us")

	size := log.Size()
	check(log.Close())
	replay := p50n(10, func() {
		l, _, _, err := wal.Open(dir)
		check(err)
		check(l.Close())
	})
	m.set("wal.replay_mb_per_s", float64(size)/replay.Seconds()/1e6, "MB/s")

	log, _, _, err = wal.Open(dir)
	check(err)
	snap := &wal.Snapshot{Epoch: epoch, Rels: []wal.SnapRel{{Rel: e}}}
	m.set("wal.rotate_ms", msOf(p50n(10, func() { check(log.Rotate(snap)) })), "ms")
	check(log.Close())
}

// probeLoad: internal/relation's TSV reader behind DB.LoadFile, the
// path wcojd's -rel takes at start-up.
func probeLoad(m metrics, d *workload.Data, tmp string) {
	dir := filepath.Join(tmp, "probe-load")
	check(os.MkdirAll(dir, 0o755))
	rels, err := d.WriteTSV(dir)
	check(err)
	_, path, _ := strings.Cut(rels[0], "=") // E
	load := p50n(10, func() {
		_, err := wcoj.NewDB().LoadFile(path, "E")
		check(err)
	})
	m.set("relation.load_mtuples_per_s", float64(len(d.Rels["E"]))/load.Seconds()/1e6, "1/s")
}
