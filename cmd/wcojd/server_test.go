package main

// In-process tests of the serving layer: admission gates, probe
// semantics and the /metrics exposition, driven through real HTTP
// round trips against the production handler.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wcoj"
	"wcoj/internal/dataset"
)

// testConfig returns serving limits generous enough to stay invisible
// unless a test tightens one on purpose.
func testConfig() config {
	return config{
		queryTimeout: 5 * time.Second,
		drainTimeout: time.Second,
		maxInflight:  8,
		maxBody:      1 << 20,
	}
}

// newTestServer stands up the production handler around db (nil = the
// background load has not finished yet).
func newTestServer(t *testing.T, db *wcoj.DB, c config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(c)
	if db != nil {
		s.publish(db, map[string]bool{})
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestServerMetrics(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())

	if code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`); code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/update", `{"insert":{"E":[[7,8]]}}`); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	if code, _ := post(t, ts.URL+"/query", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type: %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{
		`wcojd_requests_total{handler="query",code="200"} 1`,
		`wcojd_requests_total{handler="query",code="400"} 1`,
		`wcojd_requests_total{handler="update",code="200"} 1`,
		"wcojd_queries_total 1",
		"wcojd_updates_total 1",
		"wcojd_inflight_requests 0",
		"wcojd_ready 1",
		"wcojd_db_epoch 1",
		"wcojd_db_relations 1",
		"# TYPE wcojd_requests_total counter",
		"# TYPE wcojd_db_epoch gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestServerReadiness walks the lifecycle the probes are for: loading
// (live but not ready), serving, draining (live but not ready again).
func TestServerReadiness(t *testing.T) {
	s, ts := newTestServer(t, nil, testConfig())

	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz while loading: %d", code)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "loading") {
		t.Fatalf("readyz while loading: %d %q", code, body)
	}
	if code, _ := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("query while loading: %d, want 503", code)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, "wcojd_ready 0") {
		t.Fatal("metrics must report not-ready while loading")
	}

	// The background load finishes.
	s.dictRels = map[string]bool{}
	s.db.Store(testDB(t))
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz after load: %d", code)
	}
	if code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`); code != 200 {
		t.Fatalf("query after load: %d %s", code, body)
	}

	// SIGTERM: drain. Ready flips off, liveness stays on.
	s.draining.Store(true)
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz while draining: %d %q", code, body)
	}
	if code, _ := post(t, ts.URL+"/update", `{"insert":{"E":[[9,9]]}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("update while draining: %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz while draining: %d", code)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, "wcojd_ready 0") {
		t.Fatal("metrics must report not-ready while draining")
	}
}

// TestServerOverload fills the admission semaphore and expects
// immediate load shedding, not queueing.
func TestServerOverload(t *testing.T) {
	c := testConfig()
	c.maxInflight = 1
	s, ts := newTestServer(t, testDB(t), c)

	s.sem <- struct{}{} // a request is in flight
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"Q(A,B) :- E(A,B)","count":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After: %q", ra)
	}
	<-s.sem // the in-flight request finishes
	if code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`); code != 200 {
		t.Fatalf("after release: %d %s", code, body)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, `wcojd_rejected_total{reason="overload"} 1`) {
		t.Fatal("overload rejection not counted")
	}
}

// TestServerDeadline runs a query under an expired budget of time and
// expects 504, not a hung connection.
func TestServerDeadline(t *testing.T) {
	c := testConfig()
	c.queryTimeout = time.Nanosecond
	_, ts := newTestServer(t, testDB(t), c)
	if code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s, want 504", code, body)
	}
}

// TestServerNodeBudget gives queries a one-node budget: any real join
// must exhaust it and be answered 422 (the request's own fault, not
// the server's).
func TestServerNodeBudget(t *testing.T) {
	db := wcoj.NewDB()
	if err := db.Register(dataset.RandomGraph(100, 2000, 3)); err != nil {
		t.Fatal(err)
	}
	c := testConfig()
	c.nodeBudget = 1
	_, ts := newTestServer(t, db, c)
	code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B,C) :- E(A,B), E(B,C), E(A,C)","count":true}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("budget exhaustion: %d %s, want 422", code, body)
	}
}

// TestServerEveryAlgorithmStoppable: every algorithm /query accepts is
// bounded by -query-timeout and -node-budget in every reply mode. An
// explosive clique4 count (K_200: ~1.5·10^9 results), an exists and a
// rows request of large limit over a 5-clique with no result (on the
// complete 4-partite P, whose every top-level value roots a subtree of
// ~10^6 nodes) each answer 504 within twice a 200 ms timeout and leave
// no goroutine behind; under a node budget they answer 422. The
// binary-join baselines are not served algorithms: naming one is the
// client's error.
func TestServerEveryAlgorithmStoppable(t *testing.T) {
	complete := func(name string, n, parts int) *wcoj.Relation {
		b := wcoj.NewRelationBuilder(name, "src", "dst")
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i%parts != j%parts {
					if err := b.Add(wcoj.Value(i), wcoj.Value(j)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return b.Build()
	}
	db := wcoj.NewDB()
	if err := db.Register(complete("E", 200, 200), complete("P", 240, 4)); err != nil {
		t.Fatal(err)
	}
	const clique4 = "Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)"
	const clique5 = "Q(A,B,C,D,F) :- P(A,B), P(A,C), P(A,D), P(A,F), P(B,C), P(B,D), P(B,F), P(C,D), P(C,F), P(D,F)"
	requests := []struct{ name, body string }{
		{"count", fmt.Sprintf(`"query":%q,"count":true`, clique4)},
		{"exists", fmt.Sprintf(`"query":%q,"exists":true`, clique5)},
		{"rows", fmt.Sprintf(`"query":%q,"limit":%d`, clique5, maxRowLimit)},
	}
	var algos []string
	for a := wcoj.Algorithm(0); ; a++ {
		if _, err := wcoj.ParseAlgorithm(a.String()); err != nil {
			break
		}
		algos = append(algos, a.String())
	}
	if len(algos) != 2 {
		t.Fatalf("served algorithms %v, want 2", algos)
	}

	const timeout = 200 * time.Millisecond
	c := testConfig()
	c.queryTimeout = timeout
	_, ts := newTestServer(t, db, c)
	for _, algo := range algos {
		// Build each plan's tries first: the timeout bounds the search.
		if code, body := post(t, ts.URL+"/query", fmt.Sprintf(`{"query":%q,"algo":%q,"exists":true}`, clique4, algo)); code != 200 {
			t.Fatalf("%s: warm-up exists: %d %s", algo, code, body)
		}
		a, err := wcoj.ParseAlgorithm(algo)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := db.Prepare(clique5, wcoj.Options{Algorithm: a})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pq.Exists(wcoj.WithNodeBudget(context.Background(), 1)); !errors.Is(err, wcoj.ErrNodeBudget) {
			t.Fatalf("%s: warm-up clique5: %v", algo, err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()
	for _, algo := range algos {
		for _, r := range requests {
			start := time.Now()
			code, body := post(t, ts.URL+"/query", fmt.Sprintf(`{%s,"algo":%q}`, r.body, algo))
			if elapsed := time.Since(start); code != http.StatusGatewayTimeout || elapsed > 2*timeout {
				t.Errorf("%s %s: %d after %v (%s), want 504 within %v", algo, r.name, code, elapsed, strings.TrimSpace(body), 2*timeout)
			}
		}
	}
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the timed-out queries, %d before", runtime.NumGoroutine(), baseline)
		}
	}

	c = testConfig()
	c.nodeBudget = 10000
	_, ts = newTestServer(t, db, c)
	for _, algo := range algos {
		for _, r := range requests {
			code, body := post(t, ts.URL+"/query", fmt.Sprintf(`{%s,"algo":%q}`, r.body, algo))
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s %s: %d %s under a node budget, want 422", algo, r.name, code, body)
			}
		}
	}
	for _, algo := range []string{"binary-join", "binary-join-project"} {
		if code, body := post(t, ts.URL+"/query", fmt.Sprintf(`{"query":%q,"algo":%q,"count":true}`, clique4, algo)); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", algo, code, body)
		}
	}
}

// TestServerHugeParallel: a client's "parallel" is forwarded as the
// runs' Parallelism; at math.MaxInt64 a count and a view still hold the
// one triangle of the test graph.
func TestServerHugeParallel(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	const tri = "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	code, body := post(t, ts.URL+"/query", fmt.Sprintf(`{"query":%q,"count":true,"parallel":9223372036854775807}`, tri))
	if code != 200 || !strings.HasPrefix(body, `{"count":1,`) {
		t.Fatalf("count at parallel MaxInt64: %d %s, want count 1", code, body)
	}
	code, body = post(t, ts.URL+"/materialize", fmt.Sprintf(`{"query":%q,"parallel":9223372036854775807}`, tri))
	var v materializedView
	if code != 200 || json.Unmarshal([]byte(body), &v) != nil || v.Count != 1 {
		t.Fatalf("view at parallel MaxInt64: %d %s, want count 1", code, body)
	}
}

// TestServerBodyCap sends a body past -max-body and expects 413.
func TestServerBodyCap(t *testing.T) {
	c := testConfig()
	c.maxBody = 256
	_, ts := newTestServer(t, testDB(t), c)
	big := fmt.Sprintf(`{"query":"Q(A,B) :- E(A,B)","project":["%s"]}`, strings.Repeat("A", 1024))
	if code, body := post(t, ts.URL+"/query", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", code, body)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	if code, _ := get(t, ts.URL+"/query"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d, want 405", code)
	}
}

// TestUnknownRequestFields: a field the request type does not have is
// a 400 that names it, on every endpoint that decodes a body, rather
// than a request that silently runs without it.
func TestUnknownRequestFields(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())
	for _, tc := range []struct{ path, body, field string }{
		{"/query", `{"query":"Q(A,B) :- E(A,B)","projet":["A"]}`, "projet"},
		{"/update", `{"insert":{"E":[[5,6]]},"delet":{"E":[[1,2]]}}`, "delet"},
		{"/materialize", `{"query":"Q(A,B) :- E(A,B)","algo":"bogus"}`, "algo"},
	} {
		code, body := post(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, `"`+tc.field+`"`) {
			t.Errorf("%s %s: %d %q, want 400 naming %q", tc.path, tc.body, code, body, tc.field)
		}
	}
	// The rejected update changed nothing.
	if code, body := post(t, ts.URL+"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`); code != http.StatusOK || !strings.Contains(body, `"count":3`) {
		t.Fatalf("after the rejected update: %d %s", code, body)
	}
}

// TestServerPublishRace runs requests against the handler while the
// loader publishes the DB. Every handler reads what publish wrote
// (the DB, and dictRels for /update) only after loading the pointer,
// so under -race a write made after the Store — by publish, or
// through the published DB — is reported here.
func TestServerPublishRace(t *testing.T) {
	s := newServer(testConfig())
	h := s.handler()
	db := testDB(t)
	published := make(chan struct{})
	go func() {
		s.publish(db, map[string]bool{"E": false})
		close(published)
	}()
	reqs := []struct{ path, body string }{
		{"/update", `{"insert":{"E":[[7,8]]}}`},
		{"/query", `{"query":"Q(A,B) :- E(A,B)","count":true}`},
		{"/stats", ""},
		{"/readyz", ""},
	}
	var wg sync.WaitGroup
	for _, rq := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ok := 0; ok < 20; {
				method := http.MethodPost
				if rq.body == "" {
					method = http.MethodGet
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(method, rq.path, strings.NewReader(rq.body)))
				switch w.Code {
				case http.StatusOK:
					ok++
				case http.StatusServiceUnavailable:
					// Not published yet.
				default:
					t.Errorf("%s: %d %s", rq.path, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	<-published
}
