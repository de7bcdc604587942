// Command wcojd serves one long-lived wcoj.DB over HTTP: relations and
// indexes are loaded once, plans are prepared once, and traffic
// re-executes them concurrently. For one query from the shell, see
// cmd/wcoj.
//
//	wcojd -rel E=edges.tsv -serve :8077
//
//	POST /query   {"query": "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)",
//	               "count": true | "exists": true | "limit": 50,
//	               "project": ["A","C"], "algo": "generic-join"|"backtracking",
//	               "planner": "auto"|"cost-based"}
//	POST /update  {"insert": {"E": [[1,2],[3,4]]}, "delete": {"E": [[5,6]]}}
//	POST /materialize      {"query": "...", "mode": "count"|"exists"|"rows",
//	                        "project": [...], "parallel": N}
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
// The server is production-hardened: requests are bounded by a
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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
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
	rels      relFlags
	updates   relFlags
	serveAddr string
	dir       string

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
	flag.StringVar(&c.serveAddr, "serve", "", "HTTP listen address, e.g. :8077 (required)")
	flag.StringVar(&c.dir, "dir", "", "durable mode: directory for the write-ahead log and snapshots (recovered on start)")
	flag.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "per-request deadline (expiry answers 504)")
	flag.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "grace for in-flight requests on SIGTERM")
	flag.Int64Var(&c.nodeBudget, "node-budget", 0, "per-query search-node budget, 0 = unlimited (exhaustion answers 422)")
	flag.IntVar(&c.maxInflight, "max-inflight", 64, "concurrent data requests admitted (overflow answers 429)")
	flag.Int64Var(&c.maxBody, "max-body", 1<<20, "request body byte cap (overflow answers 413)")
	flag.Parse()
	startGCFloor()
	startSpareP()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "wcojd:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.serveAddr == "" {
		return fmt.Errorf("missing -serve (the HTTP listen address)")
	}
	// The DB loads in the background so liveness comes up immediately;
	// see server.go.
	return serve(c)
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
// the HTTP handlers. Untyped numbers (the tuple fields of /update)
// decode as json.Number, so integers past 2^53 arrive exactly. A field
// the request type does not have is an error that names it: a
// misspelled or retired field must not be dropped silently.
// Replies are compact; pipe them through jq to read them.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
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
// marks the cut); count/exists requests report exact answers. Rows
// holds the rows already encoded by appendRow, comma-separated and
// without the enclosing brackets; appendJSON writes the envelope.
type queryResponse struct {
	Count     int
	Exists    *bool
	Attrs     []string
	Rows      []byte
	Truncated bool
	ElapsedUS int64
}

// appendJSON appends the reply as encoding/json would write it (field
// order, omitempty rules and the trailing newline included) without
// reflecting over the rows or re-scanning them once encoded:
//
//	{"count":N,"exists":B,"attrs":[...],"rows":[[...],...],"truncated":true,"elapsed_us":N}
func (r *queryResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if r.Exists != nil {
		b = append(b, `,"exists":`...)
		b = strconv.AppendBool(b, *r.Exists)
	}
	if len(r.Attrs) > 0 {
		attrs, _ := json.Marshal(r.Attrs) // a []string always marshals
		b = append(b, `,"attrs":`...)
		b = append(b, attrs...)
	}
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		b = append(b, r.Rows...)
		b = append(b, ']')
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, r.ElapsedUS, 10)
	return append(b, "}\n"...)
}

// appendRow appends t as the JSON array [v1,v2,...] to dst, after a
// comma when dst ends in an earlier row. /query and /materialized/{id}
// encode their rows with it as the engine (or the view) hands them
// over, so no row is ever boxed as a slice.
func appendRow(dst []byte, t wcoj.Tuple) []byte {
	if len(dst) > 0 && dst[len(dst)-1] == ']' {
		dst = append(dst, ',')
	}
	dst = append(dst, '[')
	for j, v := range t {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// maxPooledReply caps the buffers replyBufs keeps: a buffer that grew
// past it for one huge reply is left to the GC instead of pinning its
// memory in the pool.
const maxPooledReply = 1 << 20

// replyBufs recycles the byte buffers rows and replies are encoded
// into, so a steady stream of row queries stops growing fresh buffers.
var replyBufs sync.Pool

func getReplyBuf() []byte {
	if b, ok := replyBufs.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 4096)
}

func putReplyBuf(b []byte) {
	if cap(b) > 0 && cap(b) <= maxPooledReply {
		replyBufs.Put(&b)
	}
}

// writeQueryReply writes a /query reply with its Content-Length and
// hands the rows buffer back to the pool.
func writeQueryReply(w http.ResponseWriter, resp *queryResponse) {
	b := resp.appendJSON(getReplyBuf())
	putReplyBuf(resp.Rows)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
	putReplyBuf(b)
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

// maxExactFloat is 2^53: every integer of at most that magnitude has
// an exact float64, so a number written as 1e3 or 7.0 within it cannot
// have been rounded.
const maxExactFloat = 1 << 53

// tupleInt converts one decoded JSON number to a tuple value. A plain
// integer literal is parsed exactly over the whole int64 range; any
// other form (1e3, 7.0) is taken only if it is integral and within
// ±2^53.
func tupleInt(n json.Number) (wcoj.Value, error) {
	s := string(n)
	if !strings.ContainsAny(s, ".eE") {
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s is out of the int64 range", s)
		}
		return wcoj.Value(i), nil
	}
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || x != math.Trunc(x) || math.Abs(x) > maxExactFloat {
		return 0, fmt.Errorf("%s is not an integer within ±2^53", s)
	}
	return wcoj.Value(int64(x)), nil
}

// handleUpdate folds one update request into the DB. dictRels says
// which relations were loaded with string interning: string fields
// are only accepted for those — interning a string against an
// integer-encoded relation would allocate a fresh dict ID and insert
// a bogus tuple while reporting success. Numbers are accepted either
// way (for a dict relation they are raw dict IDs, as returned by
// /query); tupleInt says which numbers are integers.
func handleUpdate(db *wcoj.DB, dictRels map[string]bool, req updateRequest) (*updateResponse, int, error) {
	batch := wcoj.NewBatch()
	toTuples := func(rel string, rows [][]any) ([]wcoj.Tuple, error) {
		out := make([]wcoj.Tuple, len(rows))
		for i, row := range rows {
			t := make(wcoj.Tuple, len(row))
			for j, v := range row {
				switch x := v.(type) {
				case json.Number: // every JSON number decodes here
					var err error
					if t[j], err = tupleInt(x); err != nil {
						return nil, fmt.Errorf("tuple %d field %d: %w", i, j+1, err)
					}
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

// maxRowLimit bounds client-supplied limits, and with them a reply's
// memory: rows are encoded into one buffer as the engine emits them,
// so a reply holds nothing but its encoded rows, and the server, not
// the client, caps how many.
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
		resp.Rows = getReplyBuf()
		_, err := pq.ExecuteFunc(ctx, func(t wcoj.Tuple) error {
			if resp.Count == limit {
				resp.Truncated = true
				return errRowLimit
			}
			resp.Rows = appendRow(resp.Rows, t)
			resp.Count++
			return nil
		})
		if err != nil && !errors.Is(err, errRowLimit) {
			putReplyBuf(resp.Rows)
			return nil, http.StatusInternalServerError, err
		}
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	return resp, 0, nil
}
