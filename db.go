package wcoj

// The long-lived engine. One-shot Execute re-derives everything per
// call: the plan (variable order, possibly cost-based LP solves over
// freshly measured degree statistics), the agg classification, and the
// atom tries (served from a process-global cache shared with every
// other caller). DB is the serving-shape alternative: it owns named
// relations and a private trie store, and Prepare compiles a query
// once into a PreparedQuery whose plan is re-executed concurrently by
// any number of goroutines with per-call Stats and context
// cancellation — the pod-style shape of many tenants hitting shared,
// pre-built state.
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
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wcoj/internal/agg"
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
// relations (epoch-versioned snapshots over immutable storage), a
// private bounded trie store holding their indexes, and a cache of
// prepared plans. All methods are safe for concurrent use; every
// execution of a PreparedQuery reads one consistent snapshot of the
// data, even while Insert/Delete/Apply advance it concurrently.
type DB struct {
	mu       sync.RWMutex
	data     *Database                 //wcojlint:guardedby mu
	versions map[string]*delta.Version //wcojlint:guardedby mu
	store    *core.TrieStore

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

	// compactRatio (float64 bits) and compactMinBase gate background
	// compaction; the ratio is atomic so sweeps re-arming themselves
	// read it without any lock. compacting marks relations with a
	// sweep in flight (guarded by mu).
	compactRatio   atomic.Uint64
	compactMinBase int
	compacting     map[string]bool //wcojlint:guardedby mu

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
// bound relations and built plans, so — like the trie store — the
// cache must not grow without bound under adversarial query shapes
// (e.g. a serving daemon fed arbitrary client text); past the limit
// the least-recently-prepared entries are dropped and will replan on
// next use.
const DefaultPlanCacheLimit = 512

// NewDB returns an empty engine whose trie store starts at the default
// byte budget (see SetTrieCacheLimit to change it).
func NewDB() *DB {
	db := &DB{
		data:           relation.NewDatabase(),
		versions:       make(map[string]*delta.Version),
		store:          core.NewTrieStore(core.DefaultTrieCacheLimit),
		compactMinBase: defaultCompactionMinBase,
		compacting:     make(map[string]bool),
		views:          make(map[string]*MaterializedQuery),
		plans:          make(map[string]*planCacheEntry),
		planLimit:      DefaultPlanCacheLimit,
	}
	db.compactRatio.Store(math.Float64bits(DefaultCompactionRatio))
	return db
}

// Register stores (or replaces) relations under their own names, each
// as a fresh epoch-0 snapshot with an empty delta. Replacing a
// relation drops every cached plan — prepared queries held by callers
// stay valid against the data they were bound to, but new Prepare
// calls see the new relation (a held handle converges to the new data
// at its next snapshot refresh, i.e. after any subsequent update
// batch). Tries of replaced relations age out of the store by LRU.
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
// extension: .csv loads through the CSV reader with strings interned
// via the DB dictionary; everything else loads as plain integer TSV
// (the cmd/wcojgen format). Both commands (cmd/wcoj, cmd/wcojd) load
// through here, so a given -rel flag means the same thing everywhere.
func (db *DB) LoadFile(path, name string) (*Relation, error) {
	if strings.HasSuffix(path, ".csv") {
		return db.LoadCSVFile(path, name, CSVOptions{Dict: db.Dict()})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := relation.ReadTSV(f, name)
	if err != nil {
		return nil, err
	}
	if err := db.Register(r); err != nil {
		return nil, err
	}
	return r, nil
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

// SetTrieCacheLimit replaces the DB-owned trie store's byte budget and
// returns the previous one; it does not touch the process-global store
// one-shot Execute uses.
func (db *DB) SetTrieCacheLimit(bytes int64) int64 { return db.store.SetLimit(bytes) }

// DBStats is a point-in-time snapshot of the engine's shared state.
//
//wcojlint:exhaustive
type DBStats struct {
	// Relations and Tuples size the registered data (Tuples counts the
	// effective cardinality: base − deleted + inserted).
	Relations, Tuples int
	// TrieEntries / TrieBytes / TrieLimit describe the owned trie
	// store; TrieHits / TrieMisses are its lifetime counters.
	TrieEntries          int
	TrieBytes, TrieLimit int64
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
	hits, misses, entries := db.store.Stats()
	bytes, limit, _ := db.store.Usage()
	db.plansMu.Lock()
	cached := len(db.plans)
	db.plansMu.Unlock()
	return DBStats{
		Relations: rels, Tuples: tuples,
		TrieEntries: entries, TrieBytes: bytes, TrieLimit: limit,
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
// are two prepared entries sharing tries through the store. The
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
	if err := opts.validatePlanner(); err != nil {
		return nil, err
	}
	if err := opts.validateProject(q); err != nil {
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
	if wcojAlgorithm(opts.Algorithm) && popt.Policy == planner.Explicit {
		if err := core.CheckOrder(q, popt.Explicit); err != nil {
			return nil, err
		}
	}
	// Plans are built lazily, once per mode (enumerate/count/exists),
	// on first use: a query served only through Count never pays
	// for the enumeration plan's order resolution or tries. Warm
	// forces the enumeration build for startup warm-up.
	pq := &PreparedQuery{db: db, src: canonical, opts: opts}
	pq.state.Store(db.newState(pq, q, nil))
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
	vers := db.atomVersions(q)
	db.mu.RUnlock()
	rebindEffective(q, vers)
	return q, nil
}

// atomVersions snapshots the current version of every relation the
// query touches.
//
//wcojlint:locked callers hold db.mu (read or write)
func (db *DB) atomVersions(q *Query) map[string]*delta.Version {
	vers := make(map[string]*delta.Version, len(q.Atoms))
	for _, a := range q.Atoms {
		if v, ok := db.versions[a.Name]; ok {
			vers[a.Name] = v
		}
	}
	return vers
}

// rebindEffective points each atom at its snapshot's effective
// relation (materializing lazily — outside any DB lock).
func rebindEffective(q *Query, vers map[string]*delta.Version) {
	for i := range q.Atoms {
		if v := vers[q.Atoms[i].Name]; v != nil {
			q.Atoms[i].Rel = v.Effective()
		}
	}
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
		if wcojAlgorithm(pq.opts.Algorithm) {
			if _, _, err := pq.currentState().enumPlan(); err != nil {
				return err
			}
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

// wcojAlgorithm reports whether the algorithm runs through the
// trie-based plan machinery prepared queries cache.
func wcojAlgorithm(a Algorithm) bool {
	return a == AlgoGenericJoin || a == AlgoLeapfrog
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
//
// For AlgoBacktracking and the binary-join baselines — which have no
// trie plan to cache — the prepared query falls back to the one-shot
// path per call (parse and bind still amortized); those paths have no
// cancellation plumbing, so ctx is checked only before the call
// starts, not during it.
type PreparedQuery struct {
	db   *DB
	src  string
	opts Options

	// state is the current resolved snapshot: the bound query, the
	// versioned trie source and the lazily-built per-mode plans.
	// Executions load it once and use it throughout (snapshot
	// isolation); updates are observed by swapping in a successor.
	state atomic.Pointer[pqState]

	calls  atomic.Int64
	tuples atomic.Int64
	nanos  atomic.Int64
}

// modePlan is one execution mode's resolved plan.
type modePlan struct {
	p   *core.Plan
	cls *agg.Classification
	err error
}

// pqState is one epoch-consistent resolution of a prepared query:
// atoms bound to the snapshot's effective relations, a trie source
// over the same snapshot, and the per-mode plans (built lazily, at
// most once per state; inherited plans from the previous state are
// re-versioned instead of re-planned).
type pqState struct {
	pq    *PreparedQuery
	epoch uint64
	q     *Query
	src   core.TrieSource

	// inh* carry the previous state's built plans (skeleton only; the
	// tries inside are stale and re-resolved by core.RefreshPlan).
	inhEnum, inhCount, inhExists *modePlan

	enumOnce, countOnce, existsOnce sync.Once
	enum, count, exists             modePlan
	enumDone, countDone, existsDone atomic.Bool
}

// newState resolves a fresh snapshot state for pq. q supplies the
// binding shape (names and variables); atom relations are re-pointed
// at the snapshot's effective views. prev, when non-nil, donates its
// built plans for re-versioning.
func (db *DB) newState(pq *PreparedQuery, q *Query, prev *pqState) *pqState {
	db.mu.RLock()
	epoch := db.updEpoch.Load()
	vers := db.atomVersions(q)
	db.mu.RUnlock()
	q2 := &Query{Vars: q.Vars, Atoms: append([]Atom(nil), q.Atoms...)}
	rebindEffective(q2, vers)
	s := &pqState{
		pq:    pq,
		epoch: epoch,
		q:     q2,
		src:   dbTrieSource{store: db.store, vers: vers},
	}
	// Inherit plans only while the binding shape is unchanged (a
	// Register that swapped in a different-arity relation invalidates
	// the skeleton; the fresh build below then reports the real error).
	sameShape := true
	for _, a := range q2.Atoms {
		if a.Rel.Arity() != len(a.Vars) {
			sameShape = false
		}
	}
	if prev != nil && sameShape {
		s.inhEnum = prev.donate(&prev.enumDone, &prev.enum)
		s.inhCount = prev.donate(&prev.countDone, &prev.count)
		s.inhExists = prev.donate(&prev.existsDone, &prev.exists)
	}
	return s
}

// donate hands a built mode plan to a successor state; nil when the
// mode was never built (or is still building) — the successor then
// builds from scratch on demand. The done flag's atomic store/load
// pair orders the plan fields. The plan is donated BY VALUE: handing
// out &s.enum would pin the whole donor state (and, through its own
// inh fields, every ancestor state) for as long as the successor
// lives — an unbounded chain under a steady update stream. The copy
// retains only the donor's plan and tries, for exactly one
// generation, until the successor's once-build re-versions them.
func (s *pqState) donate(done *atomic.Bool, mp *modePlan) *modePlan {
	if done.Load() {
		c := *mp
		return &c
	}
	return nil
}

// refreshInherited re-versions an inherited plan's tries against this
// state's snapshot. nil means no (usable) donation: build fresh.
// Donated errors are dropped — the fresh build recomputes the same
// deterministic error, and data-dependent failures get a clean retry.
func (s *pqState) refreshInherited(inh *modePlan) *modePlan {
	if inh == nil || inh.err != nil {
		return nil
	}
	np, err := core.RefreshPlan(inh.p, s.q, s.src)
	if err != nil {
		return nil
	}
	return &modePlan{p: np, cls: inh.cls}
}

// currentState returns the prepared query's state for the DB's
// current update epoch, refreshing (and publishing the refresh) when
// a batch has landed since the state was resolved.
func (pq *PreparedQuery) currentState() *pqState {
	s := pq.state.Load()
	if s.epoch == pq.db.updEpoch.Load() {
		return s
	}
	ns := pq.db.newState(pq, s.q, s)
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

// enumPlan builds (once per state) the enumeration plan: plain when no
// projection is requested, a sunk projected plan otherwise.
func (s *pqState) enumPlan() (*core.Plan, *agg.Classification, error) {
	s.enumOnce.Do(func() {
		defer s.enumDone.Store(true)
		mp := s.refreshInherited(s.inhEnum)
		s.inhEnum = nil // drop the donor plan; it pinned old tries
		if mp != nil {
			s.enum = *mp
			return
		}
		opts := s.pq.opts
		if opts.Project != nil {
			spec := agg.Spec{Mode: agg.ModeEnumerate, Project: opts.Project}
			pol, err := opts.orderPolicyFor(&spec)
			if err != nil {
				s.enum.err = err
				return
			}
			s.enum.p, s.enum.cls, s.enum.err = core.AggPlanSrc(s.src, s.q, pol, spec)
			return
		}
		pol, err := opts.orderPolicy()
		if err != nil {
			s.enum.err = err
			return
		}
		s.enum.p, s.enum.err = core.BuildPlanSrc(s.src, s.q, pol)
	})
	return s.enum.p, s.enum.cls, s.enum.err
}

// countPlan builds (once per state) the pushdown count plan and
// classification.
func (s *pqState) countPlan() (*core.Plan, *agg.Classification, error) {
	s.countOnce.Do(func() {
		defer s.countDone.Store(true)
		mp := s.refreshInherited(s.inhCount)
		s.inhCount = nil // drop the donor plan; it pinned old tries
		if mp != nil {
			s.count = *mp
			return
		}
		opts := s.pq.opts
		spec := agg.Spec{Mode: agg.ModeCount, Project: opts.Project}
		pol, err := opts.orderPolicyFor(&spec)
		if err != nil {
			s.count.err = err
			return
		}
		s.count.p, s.count.cls, s.count.err = core.AggPlanSrc(s.src, s.q, pol, spec)
	})
	return s.count.p, s.count.cls, s.count.err
}

// existsPlan builds (once per state) the Exists plan and
// classification.
func (s *pqState) existsPlan() (*core.Plan, *agg.Classification, error) {
	s.existsOnce.Do(func() {
		defer s.existsDone.Store(true)
		mp := s.refreshInherited(s.inhExists)
		s.inhExists = nil // drop the donor plan; it pinned old tries
		if mp != nil {
			s.exists = *mp
			return
		}
		opts := s.pq.opts
		spec := agg.Spec{Mode: agg.ModeExists}
		pol, err := opts.orderPolicyFor(&spec)
		if err != nil {
			s.exists.err = err
			return
		}
		s.exists.p, s.exists.cls, s.exists.err = core.AggPlanSrc(s.src, s.q, pol, spec)
	})
	return s.exists.p, s.exists.cls, s.exists.err
}

// Source returns the canonical text of the prepared query.
func (pq *PreparedQuery) Source() string { return pq.src }

// Query returns the query bound to the current snapshot.
func (pq *PreparedQuery) Query() *Query { return pq.currentState().q }

// Options returns the options the query was prepared with.
func (pq *PreparedQuery) Options() Options { return pq.opts }

// Order returns the resolved global variable order of the primary
// plan (nil for the non-WCOJ algorithms).
func (pq *PreparedQuery) Order() []string {
	if !wcojAlgorithm(pq.opts.Algorithm) {
		return nil
	}
	p, _, err := pq.currentState().enumPlan()
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

// record folds one call into the cumulative call/time counters;
// result cardinalities are added to pq.tuples by each entry point once
// it knows them.
func (pq *PreparedQuery) record(start time.Time) {
	pq.calls.Add(1)
	pq.nanos.Add(int64(time.Since(start)))
}

// PreparedStats are cumulative counters across every call of a
// prepared query (all goroutines).
//
//wcojlint:exhaustive
type PreparedStats struct {
	// Calls counts completed executions (including failed ones).
	Calls int64
	// Tuples totals the result cardinalities.
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
	defer pq.record(time.Now())
	s := pq.currentState()
	if !wcojAlgorithm(pq.opts.Algorithm) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		out, stats, err := Execute(s.q, pq.opts)
		if err == nil {
			pq.tuples.Add(int64(out.Len()))
		}
		return out, stats, err
	}
	attrs := s.q.Vars
	if pq.opts.Project != nil {
		attrs = pq.opts.Project
	}
	stats := &Stats{}
	out := relation.NewBuilder(s.q.OutputName(), attrs...)
	err := pq.visit(ctx, s, stats, func(t Tuple) error { return out.Add(t...) })
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	pq.tuples.Add(int64(rel.Len()))
	return rel, stats, nil
}

// ExecuteFunc streams the prepared query's result to emit under the
// one-shot ExecuteFunc contract (canonical order, reused Tuple).
func (pq *PreparedQuery) ExecuteFunc(ctx context.Context, emit func(Tuple) error) (*Stats, error) {
	defer pq.record(time.Now())
	s := pq.currentState()
	if !wcojAlgorithm(pq.opts.Algorithm) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats, err := ExecuteFunc(s.q, pq.opts, emit)
		if err == nil {
			pq.tuples.Add(int64(stats.Output))
		}
		return stats, err
	}
	stats := &Stats{}
	n := 0
	err := pq.visit(ctx, s, stats, func(t Tuple) error { n++; return emit(t) })
	if err != nil {
		return nil, err
	}
	stats.Output = n
	pq.tuples.Add(int64(n))
	return stats, nil
}

// visit drives the prepared enumeration (plain or projected) on the
// engine the query was prepared for, against one snapshot state.
func (pq *PreparedQuery) visit(ctx context.Context, s *pqState, stats *Stats, emit func(Tuple) error) error {
	p, cls, err := s.enumPlan()
	if err != nil {
		return err
	}
	return core.GenericJoinPlanVisit(ctx, p, cls, pq.opts.Algorithm.level(), pq.opts.workers(), stats, emit)
}

// Count returns the prepared query's output cardinality (distinct
// projected tuples when prepared with Options.Project). Like the
// one-shot Count it runs the aggregate-aware pushdown plan by default,
// enumerating every result tuple only when the query was prepared
// with Options.DisablePushdown.
func (pq *PreparedQuery) Count(ctx context.Context) (int, *Stats, error) {
	defer pq.record(time.Now())
	s := pq.currentState()
	if !wcojAlgorithm(pq.opts.Algorithm) {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		n, stats, err := Count(s.q, pq.opts)
		if err == nil {
			pq.tuples.Add(int64(n))
		}
		return n, stats, err
	}
	// Distinct projected counting is inherently aggregate-aware, so
	// DisablePushdown only governs the multiplicity count.
	if pq.opts.Project == nil && pq.opts.DisablePushdown {
		p, _, err := s.enumPlan()
		if err != nil {
			return 0, nil, err
		}
		n, stats, err := core.GenericJoinPlanCount(ctx, p, nil, pq.opts.Algorithm.level(), pq.opts.workers())
		if err != nil {
			return 0, nil, err
		}
		pq.tuples.Add(int64(n))
		return n, stats, nil
	}
	p, cls, err := s.countPlan()
	if err != nil {
		return 0, nil, err
	}
	n, stats, err := core.GenericJoinAggPlan(ctx, p, cls, pq.opts.Algorithm.level(), pq.opts.workers())
	if err != nil {
		return 0, nil, err
	}
	pq.tuples.Add(n)
	return int(n), stats, nil
}

// Exists reports whether the prepared query has any result,
// short-circuiting on the first witness across all workers.
func (pq *PreparedQuery) Exists(ctx context.Context) (bool, *Stats, error) {
	defer pq.record(time.Now())
	s := pq.currentState()
	if !wcojAlgorithm(pq.opts.Algorithm) {
		if err := ctx.Err(); err != nil {
			return false, nil, err
		}
		return Exists(s.q, pq.opts)
	}
	p, cls, err := s.existsPlan()
	if err != nil {
		return false, nil, err
	}
	n, stats, err := core.GenericJoinAggPlan(ctx, p, cls, pq.opts.Algorithm.level(), pq.opts.workers())
	if err != nil {
		return false, nil, err
	}
	if n != 0 {
		pq.tuples.Add(1)
	}
	return n != 0, stats, nil
}
