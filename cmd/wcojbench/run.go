package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wcoj/cmd/wcojbench/workload"
)

// spec describes one workload. The phases are fractions of the run's
// measured seconds, so shortening a run shortens every phase alike.
type spec struct {
	name string
	// batchOps is the size of each POST /update (70 % inserts).
	batchOps int
	// views registers the two maintained views m0 (triangle COUNT on
	// E) and m1 (2-cycle ROWS on E) during set-up.
	views bool
	// tail is the share of the measured seconds spent in a closing
	// write phase. The read-only workloads need one because the
	// benchmark contract wants every end-to-end metric, the update
	// ones too, from every workload; it runs after the last read, so
	// the reads still never meet a delta.
	tail    float64
	warm    func(r *run)
	measure func(r *run, d time.Duration)
}

var specs = []spec{
	{name: "read_heavy", batchOps: 100, tail: 0.2,
		warm: func(r *run) {
			for _, c := range workload.ReadHeavy {
				r.staticQuery(r.rec, c)
			}
		},
		measure: func(r *run, d time.Duration) {
			i := 0
			r.readPhase(d, 1, func(int) func() workload.Class {
				return func() workload.Class { i++; return workload.ReadHeavy[(i-1)%len(workload.ReadHeavy)] }
			})
		}},
	{name: "read_short", batchOps: 100, tail: 0.2,
		warm: func(r *run) {
			for _, c := range workload.ReadShort {
				r.staticQuery(r.rec, c)
			}
			// Ids no client stream reaches; one of each shape.
			r.staticQuery(r.rec, workload.FreshText(999000000))
			r.staticQuery(r.rec, workload.FreshText(999000001))
		},
		measure: func(r *run, d time.Duration) {
			r.readPhase(d, r.cfg.clients, func(client int) func() workload.Class {
				return workload.NewShortStream(r.cfg.seed, client).Next
			})
		}},
	{name: "write_heavy", batchOps: 100, views: true,
		warm: func(r *run) {
			for i := 0; i < 10; i++ {
				r.doUpdate(r.rec, r.writer.Next())
			}
			r.checkView(r.rec, r.viewCount, r.writer.Shadow.Tri)
			r.shadowQuery(r.rec, workload.WriteCheck)
		},
		measure: (*run).writeHeavy},
	{name: "mixed_rw", batchOps: 50,
		warm: func(r *run) {
			for _, c := range workload.MixedRead {
				r.staticQuery(r.rec, c)
			}
			for i := 0; i < 5; i++ {
				r.doUpdate(r.rec, r.writer.Next())
			}
		},
		measure: (*run).mixed},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// mixedRate is the open-loop writer's fixed schedule in mixed_rw.
const mixedRate = 20 // batches per second

// runConfig is everything one workload run depends on.
type runConfig struct {
	wcojd      string // path of the built wcojd binary
	tmp        string // parent of the per-instance directories
	workload   string
	seed       int64
	seconds    float64
	scale      workload.Scale
	setups     int // set-ups timed (the last one is the one measured)
	recoveries int // kill -9 / restart cycles timed
	clients    int // nproc: read_short clients and the connection cap
}

// run is one set-up instance of a workload: a wcojd child over its
// own directory plus the client-side model of what it should hold.
type run struct {
	cfg    runConfig
	spec   spec
	data   *workload.Data
	oracle *workload.Oracle
	srv    *server
	dir    string
	writer *workload.Writer
	rec    *recorder
	// viewCount / viewRows are the ids wcojd gave m0 and m1.
	viewCount, viewRows string
	readSeconds         float64
	writeSeconds        float64
}

// conns is the cap on client connections: nproc, but never fewer than
// the two mixed_rw needs for its writer and its reader.
func (c runConfig) conns() int {
	if c.clients < 2 {
		return 2
	}
	return c.clients
}

// setUp generates the data, starts wcojd over it, registers views and
// warms up. The returned duration is the setup_s sample.
func setUp(cfg runConfig, sp spec) (*run, time.Duration, error) {
	start := time.Now()
	r := &run{cfg: cfg, spec: sp, rec: newRecorder()}
	r.data = workload.Generate(cfg.seed, cfg.scale)
	var err error
	if r.dir, err = os.MkdirTemp(cfg.tmp, sp.name+"-"); err != nil {
		return nil, 0, err
	}
	dataDir, walDir := filepath.Join(r.dir, "data"), filepath.Join(r.dir, "wal")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	rels, err := r.data.WriteTSV(dataDir)
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-serve", "127.0.0.1:0", "-dir", walDir}
	for _, rel := range rels {
		args = append(args, "-rel", rel)
	}
	if r.srv, err = startServer(cfg.wcojd, args, cfg.conns()); err != nil {
		return nil, 0, err
	}
	if sp.views {
		if r.viewCount, err = r.materialize(workload.Classes["tri_pl"].Query, "count"); err != nil {
			return r, 0, err
		}
		if r.viewRows, err = r.materialize(workload.Classes["cycle2_count"].Query, "rows"); err != nil {
			return r, 0, err
		}
	}
	// The oracle is the benchmark's cost, not the system's: its time
	// comes out of the set-up interval.
	t := time.Now()
	r.oracle = workload.NewOracle(r.data)
	r.writer = workload.NewWriter(r.data, sp.batchOps)
	oracle := time.Since(t)
	warm := newRecorder()
	r.rec = warm
	sp.warm(r)
	r.rec = newRecorder()
	if warm.failed > 0 {
		return r, 0, fmt.Errorf("warm-up: %d of %d operations failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return r, time.Since(start) - oracle, nil
}

func (r *run) materialize(query, mode string) (string, error) {
	body, _ := json.Marshal(map[string]string{"query": query, "mode": mode})
	var v struct {
		ID string `json:"id"`
	}
	_, _, err := r.srv.post("/materialize", body, &v)
	return v.ID, err
}

// close stops the child and removes the instance directory.
func (r *run) close() {
	if r.srv != nil {
		r.srv.kill()
	}
	os.RemoveAll(r.dir)
}

// doQuery sends one query, has verify check the reply (it runs after
// the reply has arrived), and records the latency of a correct one.
func (r *run) doQuery(rec *recorder, c workload.Class, verify func(*workload.Response) error) {
	rec.attempted++
	resp, lat, n, err := r.srv.query(c)
	if err == nil {
		err = verify(resp)
	}
	if err != nil {
		rec.fail(err)
		return
	}
	rec.queryMS = append(rec.queryMS, ms(lat))
	rec.classMS[c.Name] = append(rec.classMS[c.Name], ms(lat))
	rec.overheadUS = append(rec.overheadUS, float64(lat.Microseconds()-resp.ElapsedUS))
	rec.respBytes += int64(n)
}

// expectQuery checks the reply against one oracle answer; g is the
// state of the relation the class reads.
func (r *run) expectQuery(rec *recorder, c workload.Class, want int, g *workload.Graph) {
	r.doQuery(rec, c, func(resp *workload.Response) error {
		return workload.Verify(c, resp, workload.Expect{Count: want}, g)
	})
}

// staticQuery checks against the generated data: valid while no
// update has touched the class's relation.
func (r *run) staticQuery(rec *recorder, c workload.Class) {
	r.doQuery(rec, c, func(resp *workload.Response) error {
		return workload.Verify(c, resp, r.oracle.Expect(c), r.oracle.Graphs[c.Rel])
	})
}

// shadowQuery checks an E class against the shadow. Only the single
// writer's own goroutine may call it (the shadow is its state).
func (r *run) shadowQuery(rec *recorder, c workload.Class) {
	r.expectQuery(rec, c, r.writer.Shadow.Expect(c).Count, r.writer.Shadow.G)
}

// doUpdate sends one batch. Every operation in a generated batch is
// effective, so the reply must count exactly that many changes.
func (r *run) doUpdate(rec *recorder, b workload.Batch) (time.Duration, bool) {
	rec.attempted++
	reply, lat, err := r.srv.update(b.Body("E"))
	if err != nil {
		rec.fail(err)
		return lat, false
	}
	if reply.Inserted != len(b.Ins) || reply.Deleted != len(b.Del) || reply.InsertNoops+reply.DeleteNoops != 0 {
		rec.fail(fmt.Errorf("update: server applied +%d -%d (noops %d), batch was +%d -%d",
			reply.Inserted, reply.Deleted, reply.InsertNoops+reply.DeleteNoops, len(b.Ins), len(b.Del)))
		return lat, false
	}
	rec.tuples += len(b.Ins) + len(b.Del)
	rec.lastEpoch = reply.Epoch
	return lat, true
}

// checkView reads a maintained view and compares its count.
func (r *run) checkView(rec *recorder, id string, want int) {
	rec.attempted++
	var v struct {
		Count int64 `json:"count"`
		Stale bool  `json:"stale"`
	}
	if err := r.srv.get("/materialized/"+id, &v); err != nil {
		rec.fail(err)
		return
	}
	if v.Stale || int(v.Count) != want {
		rec.fail(fmt.Errorf("view %s: count %d (stale %v), oracle %d", id, v.Count, v.Stale, want))
	}
}

// readPhase runs `clients` closed-loop readers for d. Each reader
// draws from its own class stream and checks against the generated
// data, which no read-phase workload has updated yet.
func (r *run) readPhase(d time.Duration, clients int, stream func(client int) func() workload.Class) {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(rec *recorder, next func() workload.Class) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.staticQuery(rec, next())
			}
		}(recs[i], stream(i))
	}
	wg.Wait()
	r.readSeconds += time.Since(start).Seconds()
	for _, rec := range recs {
		r.rec.merge(rec)
	}
}

// writePhase runs one closed-loop writer for d.
func (r *run) writePhase(d time.Duration) {
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		if lat, ok := r.doUpdate(r.rec, r.writer.Next()); ok {
			r.rec.updateMS = append(r.rec.updateMS, ms(lat))
		}
	}
	r.writeSeconds += time.Since(start).Seconds()
}

// writeHeavy is one closed-loop client: batches, with a read of the
// maintained triangle count after every 10th and a fresh /query of the
// same count after every 5th (often enough that the query percentiles
// rest on a few hundred samples), and a three-way comparison (view, fresh
// query, recount of the shadow from scratch) at three checkpoints.
func (r *run) writeHeavy(d time.Duration) {
	start := time.Now()
	checkpoint := 1
	for i := 1; time.Since(start) < d; i++ {
		if lat, ok := r.doUpdate(r.rec, r.writer.Next()); ok {
			r.rec.updateMS = append(r.rec.updateMS, ms(lat))
		}
		if i%10 == 0 {
			r.checkView(r.rec, r.viewCount, r.writer.Shadow.Tri)
		}
		if i%5 == 0 {
			r.shadowQuery(r.rec, workload.WriteCheck)
		}
		if checkpoint <= 3 && time.Since(start) > d*time.Duration(checkpoint)/4 {
			r.checkpoint()
			checkpoint++
		}
	}
	elapsed := time.Since(start).Seconds()
	r.writeSeconds += elapsed
	r.readSeconds += elapsed
}

// checkpoint recounts the shadow from scratch (not the incremental
// counts) and compares both views and a fresh query with it.
func (r *run) checkpoint() {
	g := r.writer.Shadow.G
	tri := workload.Triangles(g, g, g)
	if r.spec.views {
		r.checkView(r.rec, r.viewCount, tri)
		r.checkView(r.rec, r.viewRows, g.Cycle2())
	}
	quiet := newRecorder() // keep checkpoint latencies out of the samples
	r.expectQuery(quiet, workload.Classes["tri_pl"], tri, g)
	r.expectQuery(quiet, workload.Classes["cycle2_count"], g.Cycle2(), g)
	r.rec.mergeOutcomes(quiet)
}

// mixed runs the open-loop writer beside one closed-loop reader. The
// batches and the answers after each of them are drawn beforehand, so
// the generator only serialises while the clock runs and the reader
// can check an answer against every state it may have seen.
func (r *run) mixed(d time.Duration) {
	batches := make([]workload.Batch, int(math.Ceil(d.Seconds()*mixedRate)))
	sh := r.writer.Shadow
	tri, cyc2 := []int{sh.Tri}, []int{sh.Cyc2}
	for k := range batches {
		batches[k] = r.writer.Next()
		tri, cyc2 = append(tri, sh.Tri), append(cyc2, sh.Cyc2)
	}
	var sent, acked atomic.Int64 // batches sent / acknowledged so far
	stop := make(chan struct{})
	wrec, rrec := newRecorder(), newRecorder()
	var wg sync.WaitGroup
	start := time.Now()

	wg.Add(1)
	go func() { // open-loop writer
		defer wg.Done()
		defer close(stop)
		for k := range batches {
			due := start.Add(time.Duration(k) * time.Second / mixedRate)
			time.Sleep(time.Until(due))
			wrec.lateMS = append(wrec.lateMS, ms(time.Since(due)))
			sent.Store(int64(k + 1))
			_, ok := r.doUpdate(wrec, batches[k])
			acked.Store(int64(k + 1))
			if ok {
				// Timed from the due time: a stall charges the batches
				// queued behind it.
				wrec.updateMS = append(wrec.updateMS, ms(time.Since(due)))
			}
		}
	}()

	wg.Add(1)
	go func() { // closed-loop reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := workload.MixedRead[i%len(workload.MixedRead)]
			if c.Rel != "E" {
				r.staticQuery(rrec, c)
				continue
			}
			// The answer must be the one after some batch between the
			// last acknowledged before sending and the last sent before
			// the reply arrived.
			states := tri
			if c.Name == "cycle2_count" {
				states = cyc2
			}
			lo := acked.Load()
			r.doQuery(rrec, c, func(resp *workload.Response) error {
				hi := sent.Load()
				for _, want := range states[lo : hi+1] {
					if workload.Verify(c, resp, workload.Expect{Count: want}, nil) == nil {
						return nil
					}
				}
				return fmt.Errorf("%s: answer %d matches no state between batches %d and %d", c.Name, resp.Count, lo, hi)
			})
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r.readSeconds += elapsed
	r.writeSeconds += elapsed
	r.rec.merge(wrec)
	r.rec.merge(rrec)
}

// result is what one workload run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	EndToEnd  metrics  `json:"end_to_end"`
	Layers    metrics  `json:"layers"`
	Samples   metrics  `json:"samples"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// runWorkload sets up cfg.setups times (measuring the last instance),
// runs the measured phases, verifies the final state, times
// cfg.recoveries kill -9 / restart cycles and checks durability after
// the first.
func runWorkload(cfg runConfig) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var r *run
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		r, d, err = setUp(cfg, sp)
		if err != nil {
			if r != nil {
				r.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer r.close()

	st0, err := r.srv.stats()
	if err != nil {
		return nil, err
	}
	cpu0, self0, wall0 := r.srv.cpuSeconds(), selfCPUSeconds(), time.Now()
	total := time.Duration(cfg.seconds * float64(time.Second))
	tail := time.Duration(float64(total) * sp.tail)
	sp.measure(r, total-tail)
	cpu := r.srv.cpuSeconds() - cpu0 // over the phase in which queries run
	if tail > 0 {
		r.writePhase(tail)
	}
	wall, self := time.Since(wall0).Seconds(), selfCPUSeconds()-self0

	// Final state: both incremental counts and the cardinality, then
	// every shadow edge re-inserted as a no-op, which proves the server
	// holds exactly the shadow set without reading it back.
	r.verifyState(r.rec)
	st1, err := r.srv.stats()
	if err != nil {
		return nil, err
	}
	rejected, err := r.srv.rejected()
	if err != nil {
		return nil, err
	}
	rss := r.srv.peakRSSMB()
	disk := dirBytes(filepath.Join(r.dir, "wal"))

	if err := r.settleLog(); err != nil {
		return nil, err
	}
	var recoveryS []float64
	for i := 0; i < cfg.recoveries; i++ {
		ns, d, err := r.srv.restart(cfg.conns())
		if err != nil {
			r.srv = nil // already killed; nothing left for close to stop
			return nil, fmt.Errorf("recovery: %w", err)
		}
		r.srv = ns
		recoveryS = append(recoveryS, d.Seconds())
		if i == 0 {
			r.verifyRecovered(r.rec)
		}
	}

	rec := r.rec
	res := &result{
		Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds,
		EndToEnd: metrics{}, Layers: metrics{}, Samples: metrics{},
		Attempted: rec.attempted, Failed: rec.failed, Errors: rec.errs,
	}
	e := res.EndToEnd
	e.set("setup_s", median(setupS), "s")
	e.set("query_p50_ms", quantile(rec.queryMS, 0.50), "ms")
	e.set("query_p95_ms", quantile(rec.queryMS, 0.95), "ms")
	e.set("query_per_s", float64(len(rec.queryMS))/r.readSeconds, "1/s")
	e.set("update_p50_ms", quantile(rec.updateMS, 0.50), "ms")
	e.set("update_p95_ms", quantile(rec.updateMS, 0.95), "ms")
	e.set("update_tuples_per_s", float64(rec.tuples)/r.writeSeconds, "1/s")
	e.set("recovery_s", median(recoveryS), "s")
	e.set("rss_peak_mb", rss, "MB")

	l := res.Layers
	l.set("failed_frac", float64(rec.failed)/float64(rec.attempted), "ratio")
	l.set("wcojd.overhead_p50_us", median(rec.overheadUS), "us")
	l.set("wcojd.cpu_s_per_kquery", cpu/float64(len(rec.queryMS))*1000, "s")
	l.set("wcojd.query_p99_ms", quantile(rec.queryMS, 0.99), "ms")
	l.set("wcojd.update_p99_ms", quantile(rec.updateMS, 0.99), "ms")
	l.set("wcojd.resp_bytes_per_query", float64(rec.respBytes)/float64(len(rec.queryMS)), "B")
	l.set("wcojd.rejected", rejected, "count")
	l.set("gen.late_p95_ms", orZero(quantile(rec.lateMS, 0.95)), "ms")
	l.set("gen.cpu_frac", self/(wall*float64(cfg.clients)), "ratio")
	l.set("wcoj.plan_hit_ratio", ratio(st1.PlanHits-st0.PlanHits, st1.PlanMisses-st0.PlanMisses), "ratio")
	l.set("wcoj.trie_hit_ratio", ratio(st1.TrieHits-st0.TrieHits, st1.TrieMisses-st0.TrieMisses), "ratio")
	l.set("wcoj.compactions", float64(st1.Compactions-st0.Compactions), "count")
	l.set("wcoj.delta_tuples_end", float64(st1.DeltaTuples), "count")
	l.set("wal.disk_bytes_per_tuple", float64(disk)/float64(st1.Tuples), "B")

	s := res.Samples
	s.set("query_samples", float64(len(rec.queryMS)), "count")
	s.set("update_samples", float64(len(rec.updateMS)), "count")
	for c, xs := range rec.classMS {
		s.set("wcojd."+c+"_p50_ms", median(xs), "ms")
	}
	return res, nil
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// settleTail is how many batches the log holds past its last rotation
// when the child is killed.
const settleTail = 20

// dirNames lists a directory as one string, to notice when it changes.
func dirNames(dir string) string {
	entries, _ := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return strings.Join(names, " ")
}

// settleLog brings the directory to the same point of the compaction
// cycle in every run before the kill: it writes batches until wcojd
// compacts E (which snapshots and rotates the log), then settleTail
// more. Recovery then always loads one snapshot and replays a tail of
// that length; without this the tail is wherever the measured phase
// happened to stop, and recovery_s varies by a factor of three.
func (r *run) settleLog() error {
	quiet := newRecorder()
	walDir := filepath.Join(r.dir, "wal")
	st, err := r.srv.stats()
	if err != nil {
		return err
	}
	// A cycle is a quarter of the base at a net +40 % of a batch's
	// operations per batch; ten times that is a server that never
	// compacts.
	limit := 10 * st.Tuples / r.spec.batchOps
	var before string
	for compacted := st.Compactions; st.Compactions == compacted; limit-- {
		if limit == 0 {
			return fmt.Errorf("settle: no compaction within ten cycles' worth of batches")
		}
		before = dirNames(walDir)
		r.doUpdate(quiet, r.writer.Next())
		if st, err = r.srv.stats(); err != nil {
			return err
		}
	}
	// The counter moves before the background snapshot starts. Once the
	// directory has changed the snapshot holds the write lock, so every
	// batch sent from here on lands in the new log.
	for deadline := time.Now().Add(2 * time.Second); dirNames(walDir) == before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < settleTail; i++ {
		r.doUpdate(quiet, r.writer.Next())
	}
	r.rec.mergeOutcomes(quiet)
	return nil
}

// verifyState compares the server's E with the shadow: the triangle
// and 2-cycle counts by fresh queries, the cardinality, and — by
// re-inserting every shadow edge and demanding all no-ops — membership
// of each edge. Equal cardinality plus every shadow edge present means
// the two sets are equal.
func (r *run) verifyState(rec *recorder) {
	quiet := newRecorder()
	sh := r.writer.Shadow
	r.expectQuery(quiet, workload.Classes["tri_pl"], sh.Tri, sh.G)
	r.expectQuery(quiet, workload.Classes["cycle2_count"], sh.Cyc2, sh.G)
	r.expectQuery(quiet, workload.Class{Name: "card_E", Query: "Q(A,B) :- E(A,B)"}, sh.G.Len(), sh.G)
	if r.spec.views {
		r.checkView(quiet, r.viewCount, sh.Tri)
		r.checkView(quiet, r.viewRows, sh.Cyc2)
	}
	// 30000 edges keep each body well under wcojd's 1 MiB default cap.
	edges := sh.Edges()
	for len(edges) > 0 {
		n := min(len(edges), 30000)
		quiet.attempted++
		reply, _, err := r.srv.update(workload.Batch{Ins: edges[:n]}.Body("E"))
		switch {
		case err != nil:
			quiet.fail(err)
		case reply.Inserted != 0 || reply.InsertNoops != n:
			quiet.fail(fmt.Errorf("durability: %d of %d acknowledged edges were missing", reply.Inserted, n))
		}
		edges = edges[n:]
	}
	rec.mergeOutcomes(quiet)
}

// verifyRecovered is the durability check after kill -9: the recovered
// epoch is at least the last acknowledged one and the state still
// equals the shadow (every acknowledged tuple present, views re-armed).
func (r *run) verifyRecovered(rec *recorder) {
	rec.attempted++
	st, err := r.srv.stats()
	switch {
	case err != nil:
		rec.fail(err)
	case st.Epoch < rec.lastEpoch:
		rec.fail(fmt.Errorf("durability: recovered epoch %d, last acknowledged %d", st.Epoch, rec.lastEpoch))
	}
	r.verifyState(rec)
}
