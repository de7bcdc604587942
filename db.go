package wcoj

// The long-lived engine. One-shot Execute re-derives everything per
// call and keeps none of it: the plan (variable order, possibly
// cost-based LP solves over freshly measured degree statistics), the
// agg classification, and the atom tries. DB is the serving-shape
// alternative: it owns named relations, whose tries are memoized on
// their storage, and Prepare compiles a query once into a
// PreparedQuery whose plan is re-executed concurrently by any number
// of goroutines with per-call Stats and context cancellation — the
// pod-style shape of many tenants hitting shared, pre-built state. Both run the same executor
// (exec.go); a PreparedQuery merely keeps its executor, and hands its
// plans to the next one when the data moves.
//
// Relations are mutable through Insert/Delete/Apply: each named
// relation's head is an epoch-versioned snapshot (internal/delta) of
// an immutable base plus a small delta log, published atomically per
// batch. Readers resolve a consistent snapshot at execution start and
// keep it for the whole call (MVCC-style: writers advance the head,
// in-flight executions never observe a half-applied batch), and
// prepared plans survive updates — only the touched relation's
// per-binding tries are re-versioned (by linear level merge, not
// re-sort), never the plan. See dbmutate.go for the write path.

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wcoj/internal/core"
	"wcoj/internal/delta"
	"wcoj/internal/planner"
	"wcoj/internal/query"
	"wcoj/internal/relation"
	"wcoj/internal/wal"
)

// CSVOptions configure DB.LoadCSV / ReadCSV; see
// internal/relation.CSVOptions for field semantics.
type CSVOptions = relation.CSVOptions

// DB is a long-lived query engine: a named collection of mutable
// relations (epoch-versioned snapshots over immutable storage), whose
// tries are memoized on that storage, and a cache of prepared plans.
// All methods are safe for concurrent use; every execution of a
// PreparedQuery reads one consistent snapshot of the data, even while
// Insert/Delete/Apply advance it concurrently.
type DB struct {
	mu       sync.RWMutex
	data     *Database                 //wcojlint:guardedby mu
	versions map[string]*delta.Version //wcojlint:guardedby mu
	// tries counts the trie memo hits and builds of this DB's queries
	// (the tries themselves live on the relations; see core.TrieMemo).
	tries core.TrieMemo

	// writeMu serializes the writers (Register, Apply, Compact); the
	// read path never takes it.
	writeMu sync.Mutex
	// wal, when non-nil, is the write-ahead log of a durable DB (see
	// OpenDir): writers append (and fsync) their change before
	// publishing it. walDictN is the dictionary high-water mark already
	// logged; walClosed marks a Close()d durable DB, whose writers must
	// fail rather than silently continue non-durably.
	wal       *wal.Log //wcojlint:guardedby writeMu
	walDictN  int      //wcojlint:guardedby writeMu
	walClosed bool     //wcojlint:guardedby writeMu
	// updEpoch counts published update batches. Prepared-query states
	// compare against it with one atomic load to detect staleness; it
	// is only ever advanced while holding mu, so a snapshot of
	// (updEpoch, versions) taken under mu.RLock is consistent.
	updEpoch atomic.Uint64

	// compactRatio and compactMinBase gate the compaction Apply runs.
	compactRatio   float64 //wcojlint:guardedby writeMu
	compactMinBase int

	// Update counters (see DBStats).
	batches, inserts, deletes atomic.Uint64
	insertNoops, deleteNoops  atomic.Uint64
	compactions               atomic.Uint64

	// views holds the maintained queries (see dbmaterialize.go): writers
	// mutate the registry under writeMu and publish membership changes
	// under mu, so Apply's maintenance pass and a snapshot reader agree
	// on which views exist at an epoch. matSeq allocates view ids.
	views  map[string]*MaterializedQuery //wcojlint:guardedby mu
	matSeq uint64                        //wcojlint:guardedby writeMu

	plansMu    sync.Mutex
	plans      map[string]*planCacheEntry //wcojlint:guardedby plansMu
	planLimit  int                        //wcojlint:guardedby plansMu
	planClock  uint64                     //wcojlint:guardedby plansMu
	gen        uint64                     //wcojlint:guardedby plansMu — bumped by Register; guards stale plan inserts
	planHits   atomic.Uint64
	planMisses atomic.Uint64
}

// planCacheEntry is one resident prepared plan with its recency stamp
// (guarded by plansMu).
type planCacheEntry struct {
	pq    *PreparedQuery
	stamp uint64
}

// DefaultPlanCacheLimit bounds a DB's plan cache. Each entry pins its
// bound relations and built plans, so the cache must not grow without
// bound under adversarial query shapes (e.g. a serving daemon fed
// arbitrary client text); past the limit the least-recently-prepared
// entries are dropped and will replan on next use.
const DefaultPlanCacheLimit = 512

// NewDB returns an empty engine.
func NewDB() *DB {
	db := &DB{
		data:           relation.NewDatabase(),
		versions:       make(map[string]*delta.Version),
		compactRatio:   DefaultCompactionRatio,
		compactMinBase: defaultCompactionMinBase,
		views:          make(map[string]*MaterializedQuery),
		plans:          make(map[string]*planCacheEntry),
		planLimit:      DefaultPlanCacheLimit,
	}
	return db
}

// Register stores (or replaces) relations under their own names, each
// as a fresh epoch-0 snapshot with an empty delta. Replacing a
// relation drops every cached plan — prepared queries held by callers
// stay valid against the data they were bound to, but new Prepare
// calls see the new relation (a held handle converges to the new data
// at its next snapshot refresh, i.e. after any subsequent update
// batch). Tries of replaced relations go with them, once no plan
// holds them.
// For incremental changes use Insert/Delete/Apply instead: they keep
// the base storage, the built tries and all prepared plans.
func (db *DB) Register(rels ...*Relation) error {
	for _, r := range rels {
		if r == nil {
			return fmt.Errorf("wcoj: Register: nil relation")
		}
	}
	db.writeMu.Lock()
	if db.walClosed {
		db.writeMu.Unlock()
		return fmt.Errorf("wcoj: Register: DB is closed")
	}
	if err := db.walAppendRegisterLocked(rels); err != nil {
		db.writeMu.Unlock()
		return err
	}
	db.mu.Lock()
	for _, r := range rels {
		db.data.Put(r)
		db.versions[r.Name()] = delta.New(r)
	}
	db.mu.Unlock()
	// Replacing a relation invalidates any differential state bound to
	// it, and there is no per-batch delta to fold — recompute every
	// maintained view from scratch before releasing the writer lock.
	db.rematerializeAllLocked()
	db.writeMu.Unlock()
	db.plansMu.Lock()
	db.plans = make(map[string]*planCacheEntry)
	db.gen++
	db.plansMu.Unlock()
	return nil
}

// SetPlanCacheLimit replaces the plan cache's entry budget and returns
// the previous one; limits <= 0 disable plan caching (every Prepare
// replans). The default is DefaultPlanCacheLimit.
func (db *DB) SetPlanCacheLimit(n int) int {
	db.plansMu.Lock()
	defer db.plansMu.Unlock()
	prev := db.planLimit
	db.planLimit = n
	db.evictPlansLocked()
	return prev
}

// evictPlansLocked drops least-recently-prepared entries until the
// cache fits its budget. Callers hold plansMu.
func (db *DB) evictPlansLocked() {
	limit := db.planLimit
	if limit < 0 {
		limit = 0
	}
	for len(db.plans) > limit {
		var oldestKey string
		oldest := uint64(0)
		first := true
		for k, e := range db.plans {
			if first || e.stamp < oldest {
				oldestKey, oldest, first = k, e.stamp, false
			}
		}
		delete(db.plans, oldestKey)
	}
}

// LoadCSV reads a relation from delimited text (see CSVOptions; the
// zero value reads comma-separated integer data with a header row) and
// registers it. When opt.Dict is nil and the data is non-integer, set
// Dict to db.Dict() — or any *Dict — to intern strings.
func (db *DB) LoadCSV(r io.Reader, name string, opt CSVOptions) (*Relation, error) {
	rel, err := relation.ReadCSV(r, name, opt)
	if err != nil {
		return nil, err
	}
	if err := db.Register(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// LoadCSVFile is LoadCSV over a file path. Paths ending in .tsv or
// .tab default the delimiter to a tab when opt.Comma is unset.
func (db *DB) LoadCSVFile(path, name string, opt CSVOptions) (*Relation, error) {
	if opt.Comma == 0 && (strings.HasSuffix(path, ".tsv") || strings.HasSuffix(path, ".tab")) {
		opt.Comma = '\t'
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return db.LoadCSV(f, name, opt)
}

// LoadFile registers a relation from a file, dispatching on the
// extension: .csv loads comma-separated with strings interned via the
// DB dictionary; everything else loads as tab-separated integer data
// with '#' comment lines (the cmd/wcojgen format), both through
// ReadCSV. Both commands (cmd/wcoj, cmd/wcojd) load through here, so a
// given -rel flag means the same thing everywhere.
func (db *DB) LoadFile(path, name string) (*Relation, error) {
	if strings.HasSuffix(path, ".csv") {
		return db.LoadCSVFile(path, name, CSVOptions{Dict: db.Dict()})
	}
	return db.LoadCSVFile(path, name, CSVOptions{Comma: '\t'})
}

// Dict returns the engine's string dictionary (shared with LoadCSV
// callers that intern through it).
func (db *DB) Dict() *Dict {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Dict()
}

// Relation returns the named relation's current effective tuple set
// (base with the delta log merged in; materialized lazily, at most
// once per update epoch).
func (db *DB) Relation(name string) (*Relation, bool) {
	db.mu.RLock()
	v, ok := db.versions[name]
	db.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return v.Effective(), true
}

// Names returns the registered relation names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Names()
}

// DBStats is a point-in-time snapshot of the engine's shared state.
type DBStats struct {
	// Relations and Tuples size the registered data (Tuples counts the
	// effective cardinality: base − deleted + inserted).
	Relations, Tuples int
	// TrieHits / TrieMisses count the lifetime trie lookups of this
	// DB's queries that found the trie memoized on its relation, and
	// those that built it.
	TrieHits, TrieMisses uint64
	// PlansCached is the resident plan-cache size; PlanHits and
	// PlanMisses count Prepare calls served from / missing the cache.
	PlansCached          int
	PlanHits, PlanMisses uint64
	// Epoch is the current update epoch (published batches that changed
	// something); DeltaTuples is the current delta depth summed over
	// relations (logged inserts + tombstones awaiting compaction);
	// MaxEpoch is the largest per-relation snapshot epoch.
	Epoch       uint64
	DeltaTuples int
	MaxEpoch    uint64
	// Batches / Inserted / Deleted / InsertNoops / DeleteNoops are
	// lifetime update counters: no-ops are updates with no effect
	// (duplicate insert, absent delete), counted exactly, never folded
	// into the delta. Compactions counts delta-into-base folds.
	Batches                  uint64
	Inserted, Deleted        uint64
	InsertNoops, DeleteNoops uint64
	Compactions              uint64
	// MaterializedViews counts the registered maintained queries
	// (DB.Materialize).
	MaterializedViews int
}

// Stats snapshots the engine counters.
func (db *DB) Stats() DBStats {
	db.mu.RLock()
	rels := len(db.versions)
	nviews := len(db.views)
	tuples, deltaTuples := 0, 0
	var maxEpoch uint64
	for _, v := range db.versions {
		tuples += v.Len()
		deltaTuples += v.DeltaLen()
		if v.Epoch > maxEpoch {
			maxEpoch = v.Epoch
		}
	}
	db.mu.RUnlock()
	hits, misses := db.tries.Stats()
	db.plansMu.Lock()
	cached := len(db.plans)
	db.plansMu.Unlock()
	return DBStats{
		Relations: rels, Tuples: tuples,
		TrieHits: hits, TrieMisses: misses,
		PlansCached: cached,
		PlanHits:    db.planHits.Load(), PlanMisses: db.planMisses.Load(),
		Epoch:       db.updEpoch.Load(),
		DeltaTuples: deltaTuples,
		MaxEpoch:    maxEpoch,
		Batches:     db.batches.Load(),
		Inserted:    db.inserts.Load(), Deleted: db.deletes.Load(),
		InsertNoops: db.insertNoops.Load(), DeleteNoops: db.deleteNoops.Load(),
		Compactions: db.compactions.Load(),

		MaterializedViews: nviews,
	}
}

// planKey fingerprints (query shape, options) for the plan cache.
// Parallelism is part of the key: it is captured by the prepared query
// (execution calls take only a context), so two parallelism settings
// are two prepared entries sharing the relations' tries. The
// constraint set is fingerprinted too — AlgoBacktracking runs under
// it, so two constraint sets must never share a cached plan. Slices
// are rendered with sliceKey so nil (defaulted) and empty (invalid,
// must still reach validation) options never collide, and no slice
// element can forge a separator.
func planKey(src string, opts Options) string {
	return fmt.Sprintf("%s|algo=%d|planner=%d|order=%s|project=%s|par=%d|push=%t|dc=%#v",
		src, opts.Algorithm, opts.Planner,
		sliceKey(opts.Order), sliceKey(opts.Project), opts.Parallelism,
		!opts.DisablePushdown, opts.Constraints)
}

// sliceKey renders an options slice for the cache key: nil is distinct
// from empty, and %q escapes every element (Constraints use %#v above
// for the same reason — %v space-joins nested slices ambiguously).
func sliceKey(s []string) string {
	if s == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%q", s)
}

// Prepare parses, binds and validates the query against the
// registered relations and returns a PreparedQuery that re-executes
// it concurrently. Each execution mode's plan (variable order —
// including any cost-based LP work — tries, and the aggregate
// classification) is resolved once, on the mode's first call; Warm
// forces the enumeration plan eagerly. Prepared plans are cached by
// (query shape, options): preparing the same query again is a map
// hit, and the cached instance accumulates call stats across all
// holders. Register invalidates the cache; Insert/Delete/Apply do
// not — prepared queries follow updates by re-versioning only the
// touched relation's tries at their next execution.
func (db *DB) Prepare(src string, opts Options) (*PreparedQuery, error) {
	// Per-call cancellation of a prepared query comes from the ctx
	// argument of each execution method; a one-shot Options.Context
	// must not be pinned by a long-lived plan cache entry (nor split
	// the cache key).
	opts.Context = nil
	parsed, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	canonical := parsed.String()
	key := planKey(canonical, opts)
	db.plansMu.Lock()
	if e, ok := db.plans[key]; ok {
		db.planClock++
		e.stamp = db.planClock
		db.plansMu.Unlock()
		db.planHits.Add(1)
		return e.pq, nil
	}
	gen := db.gen
	db.plansMu.Unlock()
	db.planMisses.Add(1)

	db.mu.RLock()
	q, err := parsed.Bind(db.data)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if err := opts.validate(q); err != nil {
		return nil, err
	}
	// Validate the planner/order combination now (cheap — no planning
	// work), so Prepare still rejects what eager plan building used to:
	// a missing explicit order, a conflicting Planner+Order pair, or an
	// explicit order that is not a permutation of the query variables.
	popt, err := opts.plannerOptions()
	if err != nil {
		return nil, err
	}
	if popt.Policy == planner.Explicit {
		if err := core.CheckOrder(q, popt.Explicit); err != nil {
			return nil, err
		}
	}
	// Plans are built lazily, once per mode (enumerate/count/exists),
	// on first use: a query served only through Count never pays
	// for the enumeration plan's order resolution or tries. Warm
	// forces the enumeration build for startup warm-up.
	pq := &PreparedQuery{db: db, src: canonical, opts: opts}
	pq.state.Store(db.newState(q, opts, nil))
	db.plansMu.Lock()
	switch won, ok := db.plans[key]; {
	case ok:
		pq = won.pq // a concurrent Prepare won the race; share its plans
	case db.gen != gen:
		// A Register slipped in after this Prepare bound its relations:
		// the plan is valid for the data it saw, but caching it would
		// serve stale data to future Prepare calls. Hand it back uncached.
	case db.planLimit > 0:
		db.planClock++
		db.plans[key] = &planCacheEntry{pq: pq, stamp: db.planClock}
		db.evictPlansLocked()
	}
	db.plansMu.Unlock()
	return pq, nil
}

// Bind parses the query and binds its atoms against the registered
// relations' current snapshots without preparing a plan — what
// Explain-style tooling needs (a prepared plan would eagerly build
// execution state the explanation never runs).
func (db *DB) Bind(src string) (*Query, error) {
	parsed, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	q, err := parsed.Bind(db.data)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	vers := atomVersions(q, db.versions)
	db.mu.RUnlock()
	for i, v := range vers {
		if v != nil {
			q.Atoms[i].Rel = v.Effective()
		}
	}
	return q, nil
}

// atomVersions resolves each atom of q to its relation's version in a
// name-keyed snapshot (nil where the snapshot lacks the name).
func atomVersions(q *Query, vers map[string]*delta.Version) []*delta.Version {
	out := make([]*delta.Version, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = vers[a.Name]
	}
	return out
}

// bindSnapshot binds a query shape to one snapshot: atom i reads
// vers[i]'s effective relation (materialized lazily — call this outside
// any DB lock); an atom with a nil version keeps the relation it has.
// The returned source serves exactly the tries of that binding.
func bindSnapshot(memo *core.TrieMemo, shape *Query, vers []*delta.Version) (*Query, snapshotSource) {
	q := &Query{Vars: shape.Vars, Atoms: append([]Atom(nil), shape.Atoms...)}
	src := snapshotSource{memo: memo, vers: make(map[*relation.Relation]*delta.Version, len(vers))}
	for i, v := range vers {
		if v != nil {
			q.Atoms[i].Rel = v.Effective()
			src.vers[q.Atoms[i].Rel] = v
		}
	}
	return q, src
}

// Warm prepares each query and eagerly builds its enumeration plan
// (order resolution and tries), returning the first error. Use it at
// startup so serving traffic never pays a cold plan.
func (db *DB) Warm(srcs ...string) error {
	for _, src := range srcs {
		pq, err := db.Prepare(src, Options{})
		if err != nil {
			return err
		}
		if _, _, err := pq.currentState().plan(planEnum); err != nil {
			return err
		}
	}
	return nil
}

// Query is Prepare + Execute in one call; repeated calls hit the plan
// cache, so ad-hoc callers still amortize planning.
func (db *DB) Query(ctx context.Context, src string, opts Options) (*Relation, *Stats, error) {
	pq, err := db.Prepare(src, opts)
	if err != nil {
		return nil, nil, err
	}
	return pq.Execute(ctx)
}

// PreparedQuery is a compiled query: parse, bind, variable order, agg
// classification and tries are resolved once, then Execute / Count /
// Exists re-run the search any number of times, from any number of
// goroutines. Results are identical to the equivalent one-shot calls.
// Per-call Stats are returned by each call; cumulative counters are
// read by Stats.
//
// A prepared query survives updates to its relations: each execution
// resolves the DB's current snapshot (one atomic epoch comparison on
// the fast path), and on the first execution after a batch only the
// touched relation's per-binding tries are re-versioned — by merging
// the delta log into the cached base trie — while the plan skeleton
// (variable order, classification) is reused. Concurrent executions
// each keep the snapshot they started with, so a reader never sees a
// half-applied batch.
type PreparedQuery struct {
	db   *DB
	src  string
	opts Options

	// state is the current resolved snapshot: the executor of the query
	// bound to it. Executions load it once and use it throughout
	// (snapshot isolation); updates are observed by swapping in a
	// successor.
	state atomic.Pointer[pqState]

	calls  atomic.Int64
	tuples atomic.Int64
	nanos  atomic.Int64
}

// pqState is one epoch-consistent resolution of a prepared query: the
// executor over the snapshot's effective relations and their tries.
type pqState struct {
	epoch uint64
	*executor
}

// newState resolves a fresh snapshot state. q supplies the binding
// shape (names and variables); atom relations are re-pointed at the
// snapshot's effective views. prev, when non-nil, donates its built
// plans for re-versioning.
func (db *DB) newState(q *Query, opts Options, prev *executor) *pqState {
	db.mu.RLock()
	epoch := db.updEpoch.Load()
	vers := atomVersions(q, db.versions)
	db.mu.RUnlock()
	q2, src := bindSnapshot(&db.tries, q, vers)
	return &pqState{epoch: epoch, executor: newExecutor(q2, src, opts, prev)}
}

// currentState returns the prepared query's state for the DB's
// current update epoch, refreshing (and publishing the refresh) when
// a batch has landed since the state was resolved.
func (pq *PreparedQuery) currentState() *pqState {
	s := pq.state.Load()
	if s.epoch == pq.db.updEpoch.Load() {
		return s
	}
	ns := pq.db.newState(s.q, pq.opts, s.executor)
	for {
		if pq.state.CompareAndSwap(s, ns) {
			return ns
		}
		cur := pq.state.Load()
		if cur.epoch >= ns.epoch {
			return cur // a concurrent refresh won with a same-or-newer snapshot
		}
		s = cur
	}
}

// Source returns the canonical text of the prepared query.
func (pq *PreparedQuery) Source() string { return pq.src }

// Query returns the query bound to the current snapshot.
func (pq *PreparedQuery) Query() *Query { return pq.currentState().q }

// Options returns the options the query was prepared with.
func (pq *PreparedQuery) Options() Options { return pq.opts }

// Order returns the resolved global variable order of the primary
// plan: for AlgoBacktracking, its constraints' compatible order unless
// Options.Order fixed one. It is nil when the plan fails to build.
func (pq *PreparedQuery) Order() []string {
	p, _, err := pq.currentState().plan(planEnum)
	if err != nil {
		return nil
	}
	return append([]string(nil), p.Order...)
}

// Explain returns the planning record of the prepared plan against
// the current snapshot; see Explain (package level) for its contents.
func (pq *PreparedQuery) Explain() (*PlanExplanation, error) {
	return Explain(pq.currentState().q, pq.opts)
}

// record folds one call into the cumulative counters. stats is the
// call's own (nil when it failed before it started): every execution
// mode reports its result cardinality in Stats.Output — the tuples
// materialized, streamed or counted, and 1 for a witnessed Exists — and
// a run that failed later, a caller's emit stopping it included, the
// tuples it emitted until then.
func (pq *PreparedQuery) record(start time.Time, stats *Stats) {
	pq.calls.Add(1)
	pq.nanos.Add(int64(time.Since(start)))
	if stats != nil {
		pq.tuples.Add(int64(stats.Output))
	}
}

// PreparedStats are cumulative counters across every call of a
// prepared query (all goroutines).
type PreparedStats struct {
	// Calls counts completed executions (including failed ones).
	Calls int64
	// Tuples totals the result cardinalities, with the tuples a failed
	// or stopped call emitted before it ended.
	Tuples int64
	// Duration totals wall-clock execution time.
	Duration time.Duration
}

// Stats snapshots the cumulative per-query counters.
func (pq *PreparedQuery) Stats() PreparedStats {
	return PreparedStats{
		Calls:    pq.calls.Load(),
		Tuples:   pq.tuples.Load(),
		Duration: time.Duration(pq.nanos.Load()),
	}
}

// Execute runs the prepared plan against the current snapshot and
// materializes the result (the distinct projected tuples when prepared
// with Options.Project). Cancelling ctx stops the search workers
// promptly and returns ctx.Err().
func (pq *PreparedQuery) Execute(ctx context.Context) (*Relation, *Stats, error) {
	start := time.Now()
	out, stats, err := pq.currentState().execute(ctx)
	pq.record(start, stats)
	return out, stats, err
}

// ExecuteFunc streams the prepared query's result to emit under the
// one-shot ExecuteFunc contract (canonical order, reused Tuple).
func (pq *PreparedQuery) ExecuteFunc(ctx context.Context, emit func(Tuple) error) (*Stats, error) {
	start := time.Now()
	stats, err := pq.currentState().visit(ctx, emit)
	pq.record(start, stats)
	return stats, err
}

// Count returns the prepared query's output cardinality (distinct
// projected tuples when prepared with Options.Project). Like the
// one-shot Count it runs the aggregate-aware pushdown plan by default,
// enumerating every result tuple only when the query was prepared
// with Options.DisablePushdown.
func (pq *PreparedQuery) Count(ctx context.Context) (int, *Stats, error) {
	start := time.Now()
	n, stats, err := pq.currentState().count(ctx)
	pq.record(start, stats)
	return int(n), stats, err
}

// Exists reports whether the prepared query has any result,
// short-circuiting on the first witness across all workers.
func (pq *PreparedQuery) Exists(ctx context.Context) (bool, *Stats, error) {
	start := time.Now()
	found, stats, err := pq.currentState().exists(ctx)
	pq.record(start, stats)
	return found, stats, err
}
