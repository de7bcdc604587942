package main

// Serving infrastructure: the long-lived HTTP server around a wcoj.DB,
// hardened for shared deployments.
//
// Lifecycle. The listener binds and serves immediately; the DB loads
// (and, with -dir, replays its write-ahead log) in the background.
// Until the load finishes, /healthz answers 200 (the process is alive)
// while /readyz answers 503 (do not route traffic here yet) and the
// data endpoints reject with 503. A SIGTERM/SIGINT flips /readyz to
// 503 again ("draining"), lets in-flight requests finish up to
// -drain-timeout, then closes the WAL — so a rolling restart loses
// neither requests nor acknowledged updates.
//
// Admission. Every data request passes three gates before it touches
// the engine: a concurrency semaphore (-max-inflight, excess answered
// 429 immediately — a loaded server sheds rather than queues), a body
// cap (-max-body, oversized bodies answered 413 before they are read),
// and a per-request deadline (-query-timeout, expiry answered 504).
// Queries additionally carry a search-node budget (-node-budget,
// exhaustion answered 422) so one pathological join cannot monopolize
// the process for its full deadline.
//
// Observability. /metrics exposes Prometheus text: request and
// rejection counters, in-flight and latency aggregates, and the
// engine's own DBStats (epoch, tuples, plan cache, trie memo), the
// GC pacing the heap-goal floor decides and the core budget the spare
// P sits beside (gcfloor.go).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wcoj"
	"wcoj/internal/core"
)

// server is the HTTP serving state around one DB.
type server struct {
	// db is nil until the background load/replay finishes; handlers
	// treat a nil DB as "not ready". The atomic publish is the
	// happens-before edge for everything the loader wrote (including
	// dictRels).
	db atomic.Pointer[wcoj.DB]
	// dictRels is written by the loader before db is published and
	// read-only afterwards: it records which relations intern strings.
	dictRels map[string]bool
	// draining is set on SIGTERM: /readyz goes 503 and new data
	// requests are refused while in-flight ones finish.
	draining atomic.Bool

	queryTimeout time.Duration
	nodeBudget   int64
	maxBody      int64
	// sem is the admission semaphore: a data request must acquire a
	// slot without blocking or it is answered 429.
	sem chan struct{}

	m serverMetrics
}

// serverMetrics aggregates the counters /metrics exposes. The maps are
// keyed by small fixed label sets (handler names, status codes,
// rejection reasons), so cardinality stays bounded.
type serverMetrics struct {
	mu       sync.Mutex
	requests map[string]uint64 //wcojlint:guardedby mu
	rejected map[string]uint64 //wcojlint:guardedby mu

	inflight    atomic.Int64
	queryNanos  atomic.Int64
	queries     atomic.Uint64
	updateNanos atomic.Int64
	updates     atomic.Uint64
}

func newServer(c config) *server {
	maxInflight := c.maxInflight
	if maxInflight < 1 {
		maxInflight = 1
	}
	return &server{
		queryTimeout: c.queryTimeout,
		nodeBudget:   c.nodeBudget,
		maxBody:      c.maxBody,
		sem:          make(chan struct{}, maxInflight),
		m: serverMetrics{
			requests: make(map[string]uint64),
			rejected: make(map[string]uint64),
		},
	}
}

func (m *serverMetrics) countRequest(handler string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf(`handler=%q,code="%d"`, handler, code)]++
	m.mu.Unlock()
}

func (m *serverMetrics) countReject(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// reject refuses a request before it reaches the engine, counting it
// under both the rejection reason and the handler/status pair.
func (s *server) reject(w http.ResponseWriter, handler, reason string, code int, msg string) {
	s.m.countReject(reason)
	s.m.countRequest(handler, code)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

// admit runs the admission gates for a data request: readiness, then
// the concurrency semaphore. On success the caller owns a slot and
// must call the returned release.
func (s *server) admit(w http.ResponseWriter, handler string) (release func(), ok bool) {
	if s.db.Load() == nil {
		s.reject(w, handler, "not_ready", http.StatusServiceUnavailable, "loading")
		return nil, false
	}
	if s.draining.Load() {
		s.reject(w, handler, "draining", http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
		s.m.inflight.Add(1)
		return func() {
			<-s.sem
			s.m.inflight.Add(-1)
		}, true
	default:
		s.reject(w, handler, "overload", http.StatusTooManyRequests, "too many in-flight requests")
		return nil, false
	}
}

// statusOf refines an engine error into the admission-control status
// codes: deadline expiry is the gateway-timeout family, budget
// exhaustion is the request's own fault, an over-large body was cut
// off by MaxBytesReader.
func statusOf(err error, fallback int) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, wcoj.ErrNodeBudget):
		return http.StatusUnprocessableEntity
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

// queryCtx bounds one query: the request context (client gone =
// cancelled), the server deadline, and the node budget.
func (s *server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout)
	if s.nodeBudget > 0 {
		ctx = wcoj.WithNodeBudget(ctx, s.nodeBudget)
	}
	return ctx, cancel
}

func (s *server) handleQueryHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.m.countRequest("query", http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admit(w, "query")
	if !ok {
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req queryRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		code := statusOf(err, http.StatusBadRequest)
		s.m.countRequest("query", code)
		http.Error(w, err.Error(), code)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	resp, status, err := handleQuery(ctx, s.db.Load(), req)
	s.m.queryNanos.Add(int64(time.Since(start)))
	s.m.queries.Add(1)
	if err != nil {
		code := statusOf(err, status)
		s.m.countRequest("query", code)
		http.Error(w, err.Error(), code)
		return
	}
	s.m.countRequest("query", http.StatusOK)
	writeQueryReply(w, resp)
}

func (s *server) handleUpdateHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.m.countRequest("update", http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admit(w, "update")
	if !ok {
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req updateRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		code := statusOf(err, http.StatusBadRequest)
		s.m.countRequest("update", code)
		http.Error(w, err.Error(), code)
		return
	}
	start := time.Now()
	resp, status, err := handleUpdate(s.db.Load(), s.dictRels, req)
	s.m.updateNanos.Add(int64(time.Since(start)))
	s.m.updates.Add(1)
	if err != nil {
		code := statusOf(err, status)
		s.m.countRequest("update", code)
		http.Error(w, err.Error(), code)
		return
	}
	s.m.countRequest("update", http.StatusOK)
	writeJSON(w, resp)
}

// serveMetrics writes the Prometheus text exposition. It needs no
// admission slot and works during replay (engine gauges appear once
// the DB is up), so scrapes always succeed.
func (s *server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b []byte
	f := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	f("# HELP wcojd_requests_total HTTP requests by handler and status code.\n")
	f("# TYPE wcojd_requests_total counter\n")
	s.m.mu.Lock()
	reqKeys := make([]string, 0, len(s.m.requests))
	for k := range s.m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	for _, k := range reqKeys {
		f("wcojd_requests_total{%s} %d\n", k, s.m.requests[k])
	}
	rejKeys := make([]string, 0, len(s.m.rejected))
	for k := range s.m.rejected {
		rejKeys = append(rejKeys, k)
	}
	sort.Strings(rejKeys)
	rej := make([]uint64, len(rejKeys))
	for i, k := range rejKeys {
		rej[i] = s.m.rejected[k]
	}
	s.m.mu.Unlock()
	f("# HELP wcojd_rejected_total Requests refused by admission control, by reason.\n")
	f("# TYPE wcojd_rejected_total counter\n")
	for i, k := range rejKeys {
		f("wcojd_rejected_total{reason=%q} %d\n", k, rej[i])
	}
	f("# HELP wcojd_inflight_requests Data requests currently holding an admission slot.\n")
	f("# TYPE wcojd_inflight_requests gauge\n")
	f("wcojd_inflight_requests %d\n", s.m.inflight.Load())
	f("# HELP wcojd_query_seconds_total Time spent executing queries.\n")
	f("# TYPE wcojd_query_seconds_total counter\n")
	f("wcojd_query_seconds_total %g\n", time.Duration(s.m.queryNanos.Load()).Seconds())
	f("# HELP wcojd_queries_total Query executions.\n")
	f("# TYPE wcojd_queries_total counter\n")
	f("wcojd_queries_total %d\n", s.m.queries.Load())
	f("# HELP wcojd_update_seconds_total Time spent applying updates.\n")
	f("# TYPE wcojd_update_seconds_total counter\n")
	f("wcojd_update_seconds_total %g\n", time.Duration(s.m.updateNanos.Load()).Seconds())
	f("# HELP wcojd_updates_total Update applications.\n")
	f("# TYPE wcojd_updates_total counter\n")
	f("wcojd_updates_total %d\n", s.m.updates.Load())

	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(gc)
	f("# HELP wcojd_gc_cycles_total Completed GC cycles.\n")
	f("# TYPE wcojd_gc_cycles_total counter\n")
	f("wcojd_gc_cycles_total %d\n", gc[0].Value.Uint64())
	f("# HELP wcojd_gc_heap_goal_bytes Heap size the current GC cycle aims to finish under (see gcfloor.go).\n")
	f("# TYPE wcojd_gc_heap_goal_bytes gauge\n")
	f("wcojd_gc_heap_goal_bytes %d\n", gc[1].Value.Uint64())
	f("# HELP wcojd_gomaxprocs Ps the runtime schedules on: one more than the CPUs unless GOMAXPROCS is set (see gcfloor.go).\n")
	f("# TYPE wcojd_gomaxprocs gauge\n")
	f("wcojd_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	f("# HELP wcojd_core_slots Slots of the process-wide core budget of searches and the writer, min(GOMAXPROCS, CPUs).\n")
	f("# TYPE wcojd_core_slots gauge\n")
	f("wcojd_core_slots %d\n", core.Cores())
	f("# HELP wcojd_core_slots_busy Budget slots held by searches and the writer; above wcojd_core_slots while the writer holds one, workers yield.\n")
	f("# TYPE wcojd_core_slots_busy gauge\n")
	f("wcojd_core_slots_busy %d\n", core.CoresBusy())
	f("# HELP wcojd_shard_yields_total Sharded-search workers that gave their slot back to the writer at a chunk boundary.\n")
	f("# TYPE wcojd_shard_yields_total counter\n")
	f("wcojd_shard_yields_total %d\n", core.ShardYields())

	db := s.db.Load()
	ready := 0
	if db != nil && !s.draining.Load() {
		ready = 1
	}
	f("# HELP wcojd_ready Whether the server is accepting data requests.\n")
	f("# TYPE wcojd_ready gauge\n")
	f("wcojd_ready %d\n", ready)

	if db != nil {
		st := db.Stats()
		f("# HELP wcojd_db_epoch Current update epoch.\n")
		f("# TYPE wcojd_db_epoch gauge\n")
		f("wcojd_db_epoch %d\n", st.Epoch)
		f("# TYPE wcojd_db_relations gauge\n")
		f("wcojd_db_relations %d\n", st.Relations)
		f("# TYPE wcojd_db_tuples gauge\n")
		f("wcojd_db_tuples %d\n", st.Tuples)
		f("# TYPE wcojd_db_delta_tuples gauge\n")
		f("wcojd_db_delta_tuples %d\n", st.DeltaTuples)
		f("# TYPE wcojd_db_batches_total counter\n")
		f("wcojd_db_batches_total %d\n", st.Batches)
		f("# TYPE wcojd_db_compactions_total counter\n")
		f("wcojd_db_compactions_total %d\n", st.Compactions)
		f("# TYPE wcojd_db_plans_cached gauge\n")
		f("wcojd_db_plans_cached %d\n", st.PlansCached)
		f("# TYPE wcojd_db_plan_hits_total counter\n")
		f("wcojd_db_plan_hits_total %d\n", st.PlanHits)
		f("# TYPE wcojd_db_plan_misses_total counter\n")
		f("wcojd_db_plan_misses_total %d\n", st.PlanMisses)
		materializedMetrics(db, f)
	}
	w.Write(b)
}

// serveReadyz is the readiness probe: route traffic here only when
// the DB is loaded and the server is not draining.
func (s *server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.db.Load() == nil:
		http.Error(w, "loading", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

func (s *server) serveStats(w http.ResponseWriter, r *http.Request) {
	db := s.db.Load()
	if db == nil {
		http.Error(w, "loading", http.StatusServiceUnavailable)
		return
	}
	// The engine counters plus one line per maintained view, so an
	// operator sees at a glance which views exist and whether each has
	// kept up with the epoch (a lagging or stale view is the first
	// thing to check after an incident).
	stats := struct {
		wcoj.DBStats
		Materialized []materializedView `json:"materialized,omitempty"`
	}{DBStats: db.Stats()}
	for _, mq := range db.MaterializedViews() {
		stats.Materialized = append(stats.Materialized, viewOf(mq, false))
	}
	writeJSON(w, stats)
}

// publish makes a loaded DB the one every handler serves; readyz
// flips here. Handlers read dictRels after loading db, so it is set
// first and never written again.
func (s *server) publish(db *wcoj.DB, dictRels map[string]bool) {
	s.dictRels = dictRels
	s.db.Store(db)
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	// Liveness: the process is up, even while loading or draining —
	// restarting it would only lose progress.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.serveReadyz)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/stats", s.serveStats)
	mux.HandleFunc("/query", s.handleQueryHTTP)
	mux.HandleFunc("/update", s.handleUpdateHTTP)
	mux.HandleFunc("/materialize", s.handleMaterializeHTTP)
	mux.HandleFunc("/materialized", s.handleMaterializedHTTP)
	mux.HandleFunc("/materialized/", s.handleMaterializedHTTP)
	return mux
}

// serve binds the listener, starts serving immediately (liveness comes
// up before the data does), loads or recovers the DB in the
// background, and drains gracefully on SIGTERM/SIGINT.
func serve(c config) error {
	s := newServer(c)
	ln, err := net.Listen("tcp", c.serveAddr)
	if err != nil {
		return err
	}
	// The bound address line is load-bearing for orchestration (and the
	// soak harness): with ":0" it is the only way to learn the port.
	fmt.Printf("serving on %s (POST /query /update /materialize, GET /materialized /stats /metrics /healthz /readyz)\n", ln.Addr())
	srv := &http.Server{
		Handler: s.handler(),
		// A serving daemon must not let stalled clients pin goroutines
		// forever; joins themselves stay bounded by request contexts.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()

	loadErr := make(chan error, 1)
	go func() {
		db, dictRels, err := loadDB(c)
		if err != nil {
			loadErr <- err
			return
		}
		s.publish(db, dictRels)
		fmt.Printf("ready: %d relations at epoch %d\n", db.Stats().Relations, db.Stats().Epoch)
		loadErr <- nil
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	for {
		select {
		case err := <-srvErr:
			// Serve only returns on listener failure (or Shutdown, which
			// exits via the sig arm below).
			return err
		case err := <-loadErr:
			if err != nil {
				srv.Close()
				return err
			}
		case <-sig:
			return s.drain(srv, c.drainTimeout)
		}
	}
}

// drain stops admitting (readyz goes 503), lets in-flight requests
// finish, then releases the WAL so the next process can recover the
// directory.
func (s *server) drain(srv *http.Server, timeout time.Duration) error {
	fmt.Println("draining")
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	err := srv.Shutdown(ctx)
	cancel()
	if db := s.db.Load(); db != nil {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
