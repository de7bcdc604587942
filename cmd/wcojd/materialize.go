package main

// Maintained-query endpoints: POST /materialize registers a standing
// query the engine keeps continuously correct across /update batches
// (see wcoj.DB.Materialize), GET /materialized lists the live views,
// GET /materialized/{id} reads one (rows mode includes the maintained
// tuples), and DELETE /materialized/{id} retires it. Reading a view is
// one atomic pointer load — no join runs, which is the point: the
// differential work already happened inside the update that changed
// the answer.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"wcoj"
)

// materializeRequest is the POST /materialize body. Mode defaults to
// "count"; "rows" maintains the full (optionally projected) result
// set, "exists" a boolean.
type materializeRequest struct {
	Query    string   `json:"query"`
	Mode     string   `json:"mode,omitempty"`
	Project  []string `json:"project,omitempty"`
	Parallel int      `json:"parallel,omitempty"`
}

// materializedView is one maintained view as reported by /materialize,
// /materialized and /stats. Epoch is the update epoch the value is
// current as of; Stale marks a view whose last maintenance failed (its
// value is the newest good one, Error says why, and the next update
// heals it by recomputing). Rows appear only on GET /materialized/{id}
// for rows-mode views, capped at the server row limit.
type materializedView struct {
	ID        string          `json:"id"`
	Query     string          `json:"query"`
	Mode      string          `json:"mode"`
	Project   []string        `json:"project,omitempty"`
	Epoch     uint64          `json:"epoch"`
	Count     int64           `json:"count"`
	Exists    *bool           `json:"exists,omitempty"`
	Attrs     []string        `json:"attrs,omitempty"`
	Rows      json.RawMessage `json:"rows,omitempty"`
	Truncated bool            `json:"truncated,omitempty"`
	Stale     bool            `json:"stale,omitempty"`
	ElapsedUS int64           `json:"elapsed_us,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// viewOf snapshots one maintained view for a JSON reply. withRows
// additionally encodes the maintained tuples (rows mode only) with
// /query's row encoder, sorted for a stable wire order and capped at
// maxRowLimit.
func viewOf(mq *wcoj.MaterializedQuery, withRows bool) materializedView {
	res := mq.Result()
	v := materializedView{
		ID:      mq.ID(),
		Query:   mq.Source(),
		Mode:    mq.Mode().String(),
		Project: mq.Options().Project,
		Epoch:   res.Epoch,
		Count:   res.Count,
	}
	if mq.Mode() == wcoj.MaterializeExists {
		found := res.Count != 0
		v.Exists = &found
	}
	if res.Err != nil {
		v.Stale = true
		v.Error = res.Err.Error()
	}
	if withRows && mq.Mode() == wcoj.MaterializeRows && res.Rows != nil {
		v.Attrs = res.Rows.Attrs()
		rows := res.Rows
		if sorted, err := rows.SortedBy(rows.Attrs()); err == nil {
			rows = sorted
		}
		n := rows.Len()
		if n > maxRowLimit {
			n = maxRowLimit
			v.Truncated = true
		}
		if n > 0 {
			v.Rows = json.RawMessage{'['}
			var buf wcoj.Tuple
			for i := 0; i < n; i++ {
				buf = rows.Tuple(i, buf[:0])
				v.Rows = appendRow(v.Rows, buf)
			}
			v.Rows = append(v.Rows, ']')
		}
	}
	return v
}

// handleMaterialize registers one maintained view. Registration runs a
// full initial computation, so it passes through the same admission
// gates as a query.
func handleMaterialize(db *wcoj.DB, req materializeRequest) (*materializedView, int, error) {
	opts := wcoj.MaterializeOptions{Project: req.Project, Parallelism: req.Parallel}
	if req.Mode != "" {
		m, err := wcoj.ParseMaterializeMode(req.Mode)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		opts.Mode = m
	}
	start := time.Now()
	mq, err := db.Materialize(req.Query, opts)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	v := viewOf(mq, false)
	v.ElapsedUS = time.Since(start).Microseconds()
	return &v, 0, nil
}

func (s *server) handleMaterializeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.m.countRequest("materialize", http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admit(w, "materialize")
	if !ok {
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req materializeRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		code := statusOf(err, http.StatusBadRequest)
		s.m.countRequest("materialize", code)
		http.Error(w, err.Error(), code)
		return
	}
	resp, status, err := handleMaterialize(s.db.Load(), req)
	if err != nil {
		code := statusOf(err, status)
		s.m.countRequest("materialize", code)
		http.Error(w, err.Error(), code)
		return
	}
	s.m.countRequest("materialize", http.StatusOK)
	writeJSON(w, resp)
}

// handleMaterializedHTTP serves /materialized (GET: list) and
// /materialized/{id} (GET: one view with rows; DELETE: retire).
// Reads need no admission slot — they are atomic loads, and staying
// readable under overload is half their value — but DELETE writes the
// WAL, so it takes one.
func (s *server) handleMaterializedHTTP(w http.ResponseWriter, r *http.Request) {
	db := s.db.Load()
	if db == nil {
		s.reject(w, "materialized", "not_ready", http.StatusServiceUnavailable, "loading")
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/materialized"), "/")
	switch {
	case r.Method == http.MethodGet && id == "":
		views := db.MaterializedViews()
		out := make([]materializedView, len(views))
		for i, mq := range views {
			out[i] = viewOf(mq, false)
		}
		s.m.countRequest("materialized", http.StatusOK)
		writeJSON(w, out)
	case r.Method == http.MethodGet:
		mq, ok := db.Materialized(id)
		if !ok {
			s.m.countRequest("materialized", http.StatusNotFound)
			http.Error(w, fmt.Sprintf("no materialized view %q", id), http.StatusNotFound)
			return
		}
		v := viewOf(mq, true)
		s.m.countRequest("materialized", http.StatusOK)
		writeJSON(w, v)
	case r.Method == http.MethodDelete && id != "":
		release, ok := s.admit(w, "materialized")
		if !ok {
			return
		}
		defer release()
		mq, ok := db.Materialized(id)
		if !ok {
			s.m.countRequest("materialized", http.StatusNotFound)
			http.Error(w, fmt.Sprintf("no materialized view %q", id), http.StatusNotFound)
			return
		}
		if err := mq.Close(); err != nil {
			s.m.countRequest("materialized", http.StatusInternalServerError)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.m.countRequest("materialized", http.StatusOK)
		writeJSON(w, map[string]string{"closed": id})
	default:
		s.m.countRequest("materialized", http.StatusMethodNotAllowed)
		http.Error(w, "GET or DELETE", http.StatusMethodNotAllowed)
	}
}

// materializedMetrics appends the per-view gauges to the /metrics
// exposition. Cardinality is operator-bounded: one label set per
// registered view.
func materializedMetrics(db *wcoj.DB, f func(format string, args ...any)) {
	views := db.MaterializedViews()
	f("# HELP wcojd_materialized_views Maintained views currently registered.\n")
	f("# TYPE wcojd_materialized_views gauge\n")
	f("wcojd_materialized_views %d\n", len(views))
	if len(views) == 0 {
		return
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID() < views[j].ID() })
	f("# HELP wcojd_materialized_epoch Update epoch each view is current as of.\n")
	f("# TYPE wcojd_materialized_epoch gauge\n")
	for _, mq := range views {
		f("wcojd_materialized_epoch{id=%q} %d\n", mq.ID(), mq.Result().Epoch)
	}
	f("# HELP wcojd_materialized_count Maintained count of each view.\n")
	f("# TYPE wcojd_materialized_count gauge\n")
	for _, mq := range views {
		f("wcojd_materialized_count{id=%q} %d\n", mq.ID(), mq.Result().Count)
	}
	f("# HELP wcojd_materialized_stale Whether the view's last maintenance failed (1 = serving its newest good value).\n")
	f("# TYPE wcojd_materialized_stale gauge\n")
	for _, mq := range views {
		stale := 0
		if mq.Result().Err != nil {
			stale = 1
		}
		f("wcojd_materialized_stale{id=%q} %d\n", mq.ID(), stale)
	}
}
