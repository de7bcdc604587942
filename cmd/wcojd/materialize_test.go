package main

// HTTP round trips for the maintained-view endpoints: register, read
// back after updates, list, stats/metrics exposure, and retirement.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestMaterializeEndpoints(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())

	// Register a maintained triangle count over the 3-path seed (one
	// triangle once 3->1 closes the cycle; zero now).
	code, body := post(t, ts.URL+"/materialize", `{"query":"Q(A,B,C) :- E(A,B), E(B,C), E(C,A)"}`)
	if code != 200 {
		t.Fatalf("materialize: %d %s", code, body)
	}
	var v materializedView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Mode != "count" || v.Count != 0 || v.Stale {
		t.Fatalf("initial view: %+v", v)
	}

	// A rows-mode view over the same edges.
	code, body = post(t, ts.URL+"/materialize", `{"query":"P(A,B,C) :- E(A,B), E(B,C)","mode":"rows","project":["A","C"]}`)
	if code != 200 {
		t.Fatalf("materialize rows: %d %s", code, body)
	}
	var rv materializedView
	if err := json.Unmarshal([]byte(body), &rv); err != nil {
		t.Fatal(err)
	}

	// Close the triangle: both views must advance in the same update.
	if code, body := post(t, ts.URL+"/update", `{"insert":{"E":[[3,1]]}}`); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/materialized/"+v.ID)
	if code != 200 {
		t.Fatalf("get view: %d %s", code, body)
	}
	var after materializedView
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Count != 3 { // the cycle in each rotation
		t.Fatalf("triangle count after closing cycle: %+v", after)
	}
	if after.Epoch != 1 {
		t.Fatalf("view epoch: %d, want 1", after.Epoch)
	}

	// Rows mode returns the maintained tuples on the single-view GET.
	code, body = get(t, ts.URL+"/materialized/"+rv.ID)
	if code != 200 {
		t.Fatalf("get rows view: %d %s", code, body)
	}
	var rows struct {
		materializedView
		Rows [][]int64 `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Attrs) != 2 || int64(len(rows.Rows)) != rows.Count || rows.Count == 0 {
		t.Fatalf("rows view: %+v", rows)
	}

	// List shows both, without rows.
	code, body = get(t, ts.URL+"/materialized")
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	var list []materializedView
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Rows != nil || list[1].Rows != nil {
		t.Fatalf("list: %+v", list)
	}

	// /stats embeds the views; /metrics exposes the gauges.
	if code, body := get(t, ts.URL+"/stats"); code != 200 || !strings.Contains(body, `"materialized"`) {
		t.Fatalf("stats: %d %s", code, body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"wcojd_materialized_views 2",
		`wcojd_materialized_count{id="` + v.ID + `"} 3`,
		`wcojd_materialized_epoch{id="` + v.ID + `"} 1`,
		`wcojd_materialized_stale{id="` + v.ID + `"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Retire the rows view; it must vanish from the list, and a second
	// DELETE must 404.
	if code, body := del(t, ts.URL+"/materialized/"+rv.ID); code != 200 {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/materialized/"+rv.ID); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", code)
	}
	if code, _ := del(t, ts.URL+"/materialized/"+rv.ID); code != http.StatusNotFound {
		t.Fatalf("delete after delete: %d, want 404", code)
	}
	_, metrics = get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "wcojd_materialized_views 1") {
		t.Error("metrics still count the retired view")
	}
}

func TestMaterializeEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), testConfig())

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"query":"Q(A) :- Missing(A)"}`, http.StatusBadRequest},
		{`{"query":"Q(A,B) :- E(A,B)","mode":"median"}`, http.StatusBadRequest},
		{`{"query":"Q(A,B) :- E(A,B)","mode":"exists","project":["A"]}`, http.StatusBadRequest},
		{`{"query":"Q(A,B) :- E(A,B)","algo":"bogus"}`, http.StatusBadRequest},
	} {
		if code, body := post(t, ts.URL+"/materialize", tc.body); code != tc.want {
			t.Errorf("materialize %s: %d %s, want %d", tc.body, code, body, tc.want)
		}
	}
	if code, _ := get(t, ts.URL+"/materialize"); code != http.StatusMethodNotAllowed {
		t.Error("GET /materialize must 405")
	}
	if code, _ := get(t, ts.URL+"/materialized/nope"); code != http.StatusNotFound {
		t.Error("unknown id must 404")
	}
	if code, _ := post(t, ts.URL+"/materialized", `{}`); code != http.StatusMethodNotAllowed {
		t.Error("POST /materialized must 405")
	}

	// Not ready: nil DB rejects with 503 on every materialize surface.
	_, loading := newTestServer(t, nil, testConfig())
	if code, _ := post(t, loading.URL+"/materialize", `{"query":"Q(A,B) :- E(A,B)"}`); code != http.StatusServiceUnavailable {
		t.Error("materialize while loading must 503")
	}
	if code, _ := get(t, loading.URL+"/materialized"); code != http.StatusServiceUnavailable {
		t.Error("materialized while loading must 503")
	}
}
