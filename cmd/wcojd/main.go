// Command wcojd runs many queries against one long-lived wcoj.DB —
// the serving shape: relations and indexes are loaded once, plans are
// prepared once, and traffic re-executes them concurrently.
//
// Batch mode reads one query per line and drives the shared DB with a
// configurable worker count:
//
//	wcojd -rel E=edges.tsv -queries queries.txt -repeat 100 -concurrency 8
//
// Serve mode exposes the DB over HTTP:
//
//	wcojd -rel E=edges.tsv -serve :8077
//
//	POST /query   {"query": "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
//	               "count": true | "exists": true | "limit": 50,
//	               "project": ["A","C"], "algo": "...", "planner": "..."}
//	POST /update  {"insert": {"E": [[1,2],[3,4]]}, "delete": {"E": [[5,6]]}}
//	POST /materialize      {"query": "...", "mode": "count"|"exists"|"rows",
//	                        "project": [...], "algo": "...", "parallel": N}
//	                       register a maintained view: the answer is kept
//	                       continuously correct across /update batches
//	GET  /materialized     list maintained views (id, epoch, count, stale)
//	GET  /materialized/{id}  one view; rows mode includes the tuples
//	DELETE /materialized/{id} retire a view
//	GET  /stats   engine counters (relations, deltas, trie memo, plan cache)
//	              plus one entry per maintained view
//	GET  /metrics Prometheus text exposition
//	GET  /healthz liveness (always 200 while the process runs)
//	GET  /readyz  readiness (503 while loading/replaying or draining)
//
// With -dir the DB is durable: every applied batch is written (and
// fsynced) to a write-ahead log under the directory before it becomes
// visible, and a restart replays the newest snapshot plus the log tail
// back to the exact pre-crash epoch — including re-arming every
// registered maintained view at its pre-crash answer. -rel files then
// only seed relations the directory does not already hold.
//
// Serve mode is production-hardened: requests are bounded by a
// concurrency semaphore (-max-inflight, overflow answered 429), a body
// cap (-max-body, 413), a deadline (-query-timeout, 504) and a search
// node budget (-node-budget, 422); SIGTERM drains gracefully. See
// server.go for the full admission and lifecycle story.
//
// Every request round-trips through the DB's plan cache, so repeated
// query shapes never re-plan; request cancellation (a closed client
// connection) propagates into the join and unwinds its workers.
// Updates (POST /update, or startup -updates delta files: lines
// "+,1,2" insert, "-,3,4" delete) apply atomically and are absorbed
// incrementally — prepared plans survive, and only the touched
// relation's tries are re-versioned by merging the delta.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wcoj"
)

type relFlags []string

func (r *relFlags) String() string { return strings.Join(*r, ",") }
func (r *relFlags) Set(s string) error {
	*r = append(*r, s)
	return nil
}

type config struct {
	rels        relFlags
	updates     relFlags
	queriesPath string
	serveAddr   string
	dir         string
	algo        string
	planner     string
	parallel    int
	repeat      int
	concurrency int

	queryTimeout time.Duration
	drainTimeout time.Duration
	nodeBudget   int64
	maxInflight  int
	maxBody      int64
}

func main() {
	var c config
	flag.Var(&c.rels, "rel", "NAME=path.tsv|.csv (repeatable)")
	flag.Var(&c.updates, "updates", "NAME=delta.tsv|.csv batch update file applied after load: '+,v1,v2' inserts, '-,v1,v2' deletes (repeatable)")
	flag.StringVar(&c.queriesPath, "queries", "", "batch mode: file with one conjunctive query per line ('-' = stdin)")
	flag.StringVar(&c.serveAddr, "serve", "", "serve mode: HTTP listen address, e.g. :8077")
	flag.StringVar(&c.dir, "dir", "", "durable mode: directory for the write-ahead log and snapshots (recovered on start)")
	flag.StringVar(&c.algo, "algo", "generic-join", "join algorithm for batch queries")
	flag.StringVar(&c.planner, "planner", "auto", "variable-order planner for batch queries")
	flag.IntVar(&c.parallel, "parallel", 1, "per-query worker goroutines (batch mode defaults serial: concurrency supplies the parallelism)")
	flag.IntVar(&c.repeat, "repeat", 1, "batch mode: times each query is executed")
	flag.IntVar(&c.concurrency, "concurrency", 4, "batch mode: concurrent executor goroutines")
	flag.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "serve mode: per-request deadline (expiry answers 504)")
	flag.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "serve mode: grace for in-flight requests on SIGTERM")
	flag.Int64Var(&c.nodeBudget, "node-budget", 0, "serve mode: per-query search-node budget, 0 = unlimited (exhaustion answers 422)")
	flag.IntVar(&c.maxInflight, "max-inflight", 64, "serve mode: concurrent data requests admitted (overflow answers 429)")
	flag.Int64Var(&c.maxBody, "max-body", 1<<20, "serve mode: request body byte cap (overflow answers 413)")
	flag.Parse()
	startGCFloor()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "wcojd:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if (c.queriesPath == "") == (c.serveAddr == "") {
		return fmt.Errorf("exactly one of -queries (batch) or -serve (HTTP) is required")
	}
	if c.serveAddr != "" {
		// Serve mode loads in the background so liveness comes up
		// immediately; see server.go.
		return serve(c)
	}
	db, _, err := loadDB(c)
	if err != nil {
		return err
	}
	defer db.Close()
	return batch(db, c)
}

// loadDB builds the DB a run serves: a durable one recovered from -dir
// (when set) or a fresh in-memory one, seeded from the -rel files and
// -updates deltas. With -dir, a -rel whose relation already exists in
// the recovered state is skipped — restarts keep the recovered (newer)
// data, and re-registering would fail anyway.
func loadDB(c config) (*wcoj.DB, map[string]bool, error) {
	var db *wcoj.DB
	loadStart := time.Now()
	if c.dir != "" {
		var err error
		if db, err = wcoj.OpenDir(c.dir); err != nil {
			return nil, nil, err
		}
		st := db.Stats()
		fmt.Printf("recovered %s: %d relations, %d tuples at epoch %d (%v)\n",
			c.dir, st.Relations, st.Tuples, st.Epoch, time.Since(loadStart))
	} else {
		db = wcoj.NewDB()
	}
	// dictRels records which relations were loaded with string
	// interning (LoadFile's .csv convention); /update uses it to
	// decide whether string tuple fields are meaningful for a
	// relation or a client error.
	dictRels := make(map[string]bool)
	for _, spec := range c.rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			db.Close()
			return nil, nil, fmt.Errorf("bad -rel %q, want NAME=path", spec)
		}
		dictRels[name] = strings.HasSuffix(path, ".csv")
		if _, exists := db.Relation(name); exists {
			fmt.Printf("kept recovered %s (ignoring %s)\n", name, path)
			continue
		}
		r, err := db.LoadFile(path, name)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		fmt.Printf("loaded %s: %d tuples (%v)\n", r, r.Len(), time.Since(loadStart))
	}
	for _, spec := range c.updates {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			db.Close()
			return nil, nil, fmt.Errorf("bad -updates %q, want NAME=path", spec)
		}
		// Mirror LoadFile's encoding convention: .csv relations were
		// interned through the DB dictionary, so .csv deltas intern the
		// same way; everything else is integer data.
		opt := wcoj.CSVOptions{}
		if strings.HasSuffix(path, ".csv") {
			opt.Dict = db.Dict()
		}
		us, err := db.ApplyDeltaFile(path, name, opt)
		if err != nil {
			db.Close()
			return nil, nil, fmt.Errorf("updates %s: %w", spec, err)
		}
		fmt.Printf("applied %s to %s: +%d -%d (noops +%d -%d, epoch %d)\n",
			path, name, us.Inserted, us.Deleted, us.InsertNoops, us.DeleteNoops, us.Epoch)
	}
	return db, dictRels, nil
}

// decodeJSON and writeJSON are the request/response codecs shared by
// the HTTP handlers.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// batch prepares every query, then re-executes the prepared set from
// `concurrency` goroutines `repeat` times each, reporting per-query
// answers and aggregate throughput.
func batch(db *wcoj.DB, c config) error {
	algo, err := wcoj.ParseAlgorithm(c.algo)
	if err != nil {
		return err
	}
	planner, err := wcoj.ParsePlanner(c.planner)
	if err != nil {
		return err
	}
	var in *os.File
	if c.queriesPath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(c.queriesPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	opts := wcoj.Options{Algorithm: algo, Planner: planner, Parallelism: c.parallel}
	var prepared []*wcoj.PreparedQuery
	prepStart := time.Now()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pq, err := db.Prepare(line, opts)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", line, err)
		}
		prepared = append(prepared, pq)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(prepared) == 0 {
		return fmt.Errorf("no queries in %s", c.queriesPath)
	}
	fmt.Printf("prepared %d queries in %v\n", len(prepared), time.Since(prepStart))

	if c.repeat < 1 {
		c.repeat = 1
	}
	if c.concurrency < 1 {
		c.concurrency = 1
	}
	type job struct{ pq *wcoj.PreparedQuery }
	jobs := make(chan job)
	var calls atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	runStart := time.Now()
	for w := 0; w < c.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for j := range jobs {
				if _, _, err := j.pq.Count(ctx); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				calls.Add(1)
			}
		}()
	}
	for i := 0; i < c.repeat; i++ {
		for _, pq := range prepared {
			jobs <- job{pq}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	elapsed := time.Since(runStart)
	for _, pq := range prepared {
		st := pq.Stats()
		fmt.Printf("%-60s calls=%d tuples=%d avg=%v\n",
			pq.Source(), st.Calls, st.Tuples/st.Calls, st.Duration/time.Duration(st.Calls))
	}
	fmt.Printf("%d calls in %v (%.0f queries/sec, concurrency %d)\n",
		calls.Load(), elapsed, float64(calls.Load())/elapsed.Seconds(), c.concurrency)
	return nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Query   string   `json:"query"`
	Algo    string   `json:"algo,omitempty"`
	Planner string   `json:"planner,omitempty"`
	Project []string `json:"project,omitempty"`
	Count   bool     `json:"count,omitempty"`
	Exists  bool     `json:"exists,omitempty"`
	// Limit caps the rows returned (default 100, server maximum
	// 100000) and stops the enumeration there — a limited request
	// never materializes a huge result. Use Count for exact totals.
	Limit    int `json:"limit,omitempty"`
	Parallel int `json:"parallel,omitempty"`
}

// queryResponse is the POST /query reply. For row requests Count is
// the number of rows returned (enumeration stops at Limit; Truncated
// marks the cut); count/exists requests report exact answers.
type queryResponse struct {
	Count     int       `json:"count"`
	Exists    *bool     `json:"exists,omitempty"`
	Attrs     []string  `json:"attrs,omitempty"`
	Rows      [][]int64 `json:"rows,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
}

// updateRequest is the POST /update body: tuples to insert and delete
// per relation name. Tuple values are integers for integer-encoded
// relations, or strings for relations loaded with dictionary
// interning — strings round-trip through the same DB dictionary the
// CSV loader used, so [["alice","bob"]] means what it says (raw dict
// IDs would be meaningless to a caller). The whole request is applied
// as one atomic batch — concurrent queries see all of it or none of
// it — with deletes applied before inserts per relation.
type updateRequest struct {
	Insert map[string][][]any `json:"insert,omitempty"`
	Delete map[string][][]any `json:"delete,omitempty"`
}

// updateResponse is the POST /update reply. Noops count operations
// with no effect (duplicate inserts, absent deletes); Epoch is the
// DB's update epoch after the batch.
type updateResponse struct {
	Inserted    int    `json:"inserted"`
	Deleted     int    `json:"deleted"`
	InsertNoops int    `json:"insert_noops"`
	DeleteNoops int    `json:"delete_noops"`
	Epoch       uint64 `json:"epoch"`
	ElapsedUS   int64  `json:"elapsed_us"`
}

// handleUpdate folds one update request into the DB. dictRels says
// which relations were loaded with string interning: string fields
// are only accepted for those — interning a string against an
// integer-encoded relation would allocate a fresh dict ID and insert
// a bogus tuple while reporting success. Numbers are accepted either
// way (for a dict relation they are raw dict IDs, as returned by
// /query).
func handleUpdate(db *wcoj.DB, dictRels map[string]bool, req updateRequest) (*updateResponse, int, error) {
	batch := wcoj.NewBatch()
	toTuples := func(rel string, rows [][]any) ([]wcoj.Tuple, error) {
		out := make([]wcoj.Tuple, len(rows))
		for i, row := range rows {
			t := make(wcoj.Tuple, len(row))
			for j, v := range row {
				switch x := v.(type) {
				case float64: // every JSON number decodes here
					if x != float64(int64(x)) {
						return nil, fmt.Errorf("tuple %d field %d: %v is not an integer", i, j+1, x)
					}
					t[j] = wcoj.Value(int64(x))
				case string:
					if !dictRels[rel] {
						return nil, fmt.Errorf("tuple %d field %d: relation %q holds integers, not interned strings", i, j+1, rel)
					}
					t[j] = db.Dict().ID(x)
				case int: // in-process callers (tests) pass Go ints
					t[j] = wcoj.Value(x)
				default:
					return nil, fmt.Errorf("tuple %d field %d: want a number or string, got %T", i, j+1, v)
				}
			}
			out[i] = t
		}
		return out, nil
	}
	for rel, rows := range req.Delete {
		tuples, err := toTuples(rel, rows)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("delete %s: %w", rel, err)
		}
		batch.Delete(rel, tuples...)
	}
	for rel, rows := range req.Insert {
		tuples, err := toTuples(rel, rows)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("insert %s: %w", rel, err)
		}
		batch.Insert(rel, tuples...)
	}
	start := time.Now()
	us, err := db.Apply(batch)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &updateResponse{
		Inserted:    us.Inserted,
		Deleted:     us.Deleted,
		InsertNoops: us.InsertNoops,
		DeleteNoops: us.DeleteNoops,
		Epoch:       us.Epoch,
		ElapsedUS:   time.Since(start).Microseconds(),
	}, 0, nil
}

// errRowLimit aborts a row enumeration once Limit rows are streamed.
var errRowLimit = errors.New("row limit reached")

// maxRowLimit bounds client-supplied limits: the handler allocates the
// row buffer up front, so the cap must be server-controlled.
const maxRowLimit = 100000

// handleQuery resolves one request against the DB's plan cache. The
// request context cancels the join when the client goes away.
func handleQuery(ctx context.Context, db *wcoj.DB, req queryRequest) (*queryResponse, int, error) {
	opts := wcoj.Options{Project: req.Project, Parallelism: req.Parallel}
	if req.Algo != "" {
		a, err := wcoj.ParseAlgorithm(req.Algo)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		opts.Algorithm = a
	}
	if req.Planner != "" {
		p, err := wcoj.ParsePlanner(req.Planner)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		opts.Planner = p
	}
	pq, err := db.Prepare(req.Query, opts)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	start := time.Now()
	resp := &queryResponse{}
	switch {
	case req.Exists:
		found, _, err := pq.Exists(ctx)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.Exists = &found
		if found {
			resp.Count = 1
		}
	case req.Count:
		n, _, err := pq.Count(ctx)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.Count = n
	default:
		limit := req.Limit
		if limit <= 0 {
			limit = 100
		}
		if limit > maxRowLimit {
			limit = maxRowLimit
		}
		attrs := pq.Query().Vars
		if len(req.Project) > 0 {
			attrs = req.Project
		}
		resp.Attrs = attrs
		capHint := limit
		if capHint > 1024 {
			capHint = 1024 // grow on demand past this; limit only caps
		}
		resp.Rows = make([][]int64, 0, capHint)
		_, err := pq.ExecuteFunc(ctx, func(t wcoj.Tuple) error {
			if len(resp.Rows) == limit {
				resp.Truncated = true
				return errRowLimit
			}
			row := make([]int64, len(t))
			for j, v := range t {
				row[j] = int64(v)
			}
			resp.Rows = append(resp.Rows, row)
			return nil
		})
		if err != nil && !errors.Is(err, errRowLimit) {
			return nil, http.StatusInternalServerError, err
		}
		resp.Count = len(resp.Rows)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	return resp, 0, nil
}
