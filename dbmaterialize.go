package wcoj

// Incremental view maintenance. DB.Materialize registers a standing
// COUNT/EXISTS/enumeration query whose result is kept continuously
// correct under Insert/Delete/Apply by differential (semi-naive)
// evaluation instead of recomputation:
//
//	Q(post) − Q(pre) = Σᵢ Q(post₁..postᵢ₋₁, Δᵢ, preᵢ₊₁..pre_m)
//
// — the telescoping identity over the query's atom occurrences, exact
// because a join is multilinear in each atom slot over signed
// ℤ-multisets and every relation is a duplicate-free set. Each batch
// therefore contributes one term per touched occurrence i: the query
// evaluated with slot i bound to the batch's effective delta
// (delta.BatchDelta — inserts count +, deletes −), slots before i
// bound to post-batch snapshots and slots after i to pre-batch
// snapshots.
//
// All of a view's terms run under one shared global variable order
// (the shape's heuristic order, the same one prepared queries
// resolve). Per-term delta-first orders would bound each term by
// O(|Δ|·degrees) — but every term would then restrict the shared
// variables differently, and at serving scale the dominant batch cost
// is building the snapshot-side (base ⊎ delta) tries those orders
// demand: each further column order a term reads a relation in is one
// more merged trie per batch. Sharing one order builds each snapshot
// trie at most once per batch, shares it across all m terms, and —
// tries being memoized on the snapshot's relation by column order —
// with concurrently executing prepared queries, while the batch-sized
// delta trie still prunes the term's search at whatever levels its
// variables occupy.
//
// COUNT with no projection (and EXISTS, which is COUNT ≠ 0) folds
// signed term counts directly — counting is linear. Enumeration and
// distinct projected counting are not linear: the view keeps a
// support count per projected tuple (how many full join tuples map to
// it) and the maintained rows change exactly when a support crosses
// zero.
//
// Consistency: maintenance runs inside Apply, under writeMu, and the
// new result is published inside the same db.mu critical section that
// installs the batch's versions and advances the update epoch — a
// reader never observes a view value and a DBStats.Epoch from
// different batches. A maintenance failure leaves the previous value
// in place, tagged with the error (MaterializedResult.Err); the next
// batch detects the stale epoch and self-heals by recomputing from
// scratch. Durable DBs log registrations (wal.KindMaterialize) and
// OpenDir re-arms the views after replay; see dbwal.go.

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/delta"
	"wcoj/internal/query"
	"wcoj/internal/relation"
)

// MaterializeMode selects what a maintained query keeps current.
type MaterializeMode int

// Available modes.
const (
	// MaterializeCount maintains the output cardinality — the full join
	// count with a nil Project, the distinct projected count otherwise.
	MaterializeCount MaterializeMode = iota
	// MaterializeExists maintains non-emptiness (internally the full
	// count, read as count ≠ 0 — a boolean alone cannot absorb signed
	// deltas).
	MaterializeExists
	// MaterializeRows maintains the materialized result relation (the
	// distinct projected tuples when Project is set).
	MaterializeRows
)

func (m MaterializeMode) String() string {
	switch m {
	case MaterializeCount:
		return "count"
	case MaterializeExists:
		return "exists"
	case MaterializeRows:
		return "rows"
	}
	return fmt.Sprintf("MaterializeMode(%d)", int(m))
}

// ParseMaterializeMode resolves a mode name as printed by String.
func ParseMaterializeMode(name string) (MaterializeMode, error) {
	for _, m := range []MaterializeMode{MaterializeCount, MaterializeExists, MaterializeRows} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("wcoj: unknown materialize mode %q", name)
}

// MaterializeOptions configure DB.Materialize.
type MaterializeOptions struct {
	// Mode selects what is maintained (default MaterializeCount).
	Mode MaterializeMode
	// Parallelism bounds the worker goroutines of each term evaluation
	// (0 means the core budget, as in Options.Parallelism). Terms run
	// on the writer's budget slot, so a p=2 view gets one more worker
	// when one slot is free.
	Parallelism int
	// Project, when non-nil, projects the maintained result onto these
	// variables (same contract as Options.Project). Rejected for
	// MaterializeExists, whose answer a projection cannot change.
	Project []string
}

// exec is the executor configuration of the view's recomputes and
// differential terms: full tuples (the view projects them itself, it
// needs the support counts) under the shape's heuristic order.
func (o MaterializeOptions) exec() Options {
	return Options{Parallelism: o.Parallelism}
}

// needTuples reports whether the mode must maintain per-tuple support
// counts (any projection, and any maintained row set, breaks count
// linearity).
func (o MaterializeOptions) needTuples() bool {
	return o.Mode == MaterializeRows || (o.Mode == MaterializeCount && o.Project != nil)
}

// validate rejects option combinations maintenance cannot honor.
func (o MaterializeOptions) validate(q *Query) error {
	if o.Mode < MaterializeCount || o.Mode > MaterializeRows {
		return fmt.Errorf("wcoj: Materialize: unknown mode %v", o.Mode)
	}
	if o.Mode == MaterializeExists && o.Project != nil {
		return fmt.Errorf("wcoj: Materialize: Project cannot change an EXISTS answer; drop it")
	}
	return Options{Project: o.Project}.validateProject(q)
}

// MaterializedResult is one epoch-consistent value of a maintained
// query. Epoch is the update epoch the value is correct for. A non-nil
// Err marks the value stale: maintenance failed at some later epoch,
// the fields still describe the last epoch that succeeded, and the
// next effective batch retries by recomputing from scratch.
type MaterializedResult struct {
	Epoch uint64
	// Count is the maintained cardinality (all modes).
	Count int64
	// Rows is the maintained result relation (MaterializeRows only).
	Rows *Relation
	// Err, when non-nil, is the error that interrupted maintenance.
	Err error
}

// MaterializedQuery is a standing query registered with DB.Materialize:
// its result is updated inside every effective Apply, atomically with
// the batch's publication. Readers load the current value with one
// atomic pointer read; all methods are safe for concurrent use.
type MaterializedQuery struct {
	db   *DB
	id   string
	seq  uint64
	src  string
	opts MaterializeOptions

	// shape is the bound query skeleton (atom names and variables);
	// maintenance re-points the atom relations at per-term snapshots.
	shape *Query
	// outAttrs/outPos are the maintained output schema and the binding
	// positions feeding it (tuple engine only).
	outAttrs []string
	outPos   []int

	// terms keeps, per atom occurrence, the executor of the occurrence's
	// last differential term (nil until its first): the next batch's
	// term inherits its plan, so terms are re-versioned, never
	// re-planned. Like a PreparedQuery's, the kept executor pins the
	// tries of the snapshot it ran against for one generation. support
	// holds the per-projected-tuple multiplicities of the tuple engine
	// (nil forces the next maintenance to recompute).
	terms   []*executor      //wcojlint:guardedby writeMu
	support map[string]int64 //wcojlint:guardedby writeMu

	// val is the published value. Maintenance stores the successor
	// inside the same db.mu critical section that publishes the batch.
	val    atomic.Pointer[MaterializedResult]
	closed atomic.Bool
}

// ID returns the view's registry identifier ("m0", "m1", ...).
func (mq *MaterializedQuery) ID() string { return mq.id }

// Source returns the canonical query text.
func (mq *MaterializedQuery) Source() string { return mq.src }

// Mode returns the maintained mode.
func (mq *MaterializedQuery) Mode() MaterializeMode { return mq.opts.Mode }

// Options returns the options the view was materialized with.
func (mq *MaterializedQuery) Options() MaterializeOptions { return mq.opts }

// Result returns the current maintained value.
func (mq *MaterializedQuery) Result() MaterializedResult { return *mq.val.Load() }

// Count returns the current maintained cardinality.
func (mq *MaterializedQuery) Count() int64 { return mq.val.Load().Count }

// Exists reports whether the maintained result is non-empty.
func (mq *MaterializedQuery) Exists() bool { return mq.val.Load().Count != 0 }

// Rows returns the maintained result relation (nil unless the view was
// materialized with MaterializeRows).
func (mq *MaterializedQuery) Rows() *Relation { return mq.val.Load().Rows }

// Close unregisters the view: it stops being maintained (and, on a
// durable DB, its registration is logged away so recovery will not
// re-arm it). The last published value remains readable. Closing
// twice is a no-op.
func (mq *MaterializedQuery) Close() error {
	if mq.closed.Swap(true) {
		return nil
	}
	db := mq.db
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.walAppendUnmaterializeLocked(mq.id); err != nil {
		mq.closed.Store(false)
		return err
	}
	db.mu.Lock()
	delete(db.views, mq.id)
	db.mu.Unlock()
	return nil
}

// Materialize parses, binds and validates the query, computes its
// result from the current snapshot and registers it for continuous
// maintenance: every subsequent effective batch publishes an updated
// value atomically with the batch itself. On a durable DB the
// registration is logged (and fsynced) before it is published, and
// OpenDir re-arms it after recovery. Close the returned view to stop
// maintenance.
func (db *DB) Materialize(src string, opts MaterializeOptions) (*MaterializedQuery, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.walClosed {
		return nil, fmt.Errorf("wcoj: Materialize: DB is closed")
	}
	seq := db.matSeq
	mq, err := db.materializeLocked(fmt.Sprintf("m%d", seq), seq, src, opts, false)
	if err != nil {
		return nil, err
	}
	db.matSeq = seq + 1
	return mq, nil
}

// materializeLocked builds, computes and registers one view under
// writeMu. With tolerateComputeErr (WAL re-arm), a failed initial
// computation registers the view as stale-with-error instead of
// failing — recovery must land on the pre-crash state, which may well
// have been a stale view — while structural errors (parse, bind,
// validation) still fail hard: a record that never validated could not
// have been written by a healthy engine.
func (db *DB) materializeLocked(id string, seq uint64, src string, opts MaterializeOptions, tolerateComputeErr bool) (*MaterializedQuery, error) {
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
	epoch := db.updEpoch.Load()
	db.mu.RUnlock()
	if err := opts.validate(q); err != nil {
		return nil, err
	}

	mq := &MaterializedQuery{
		db:    db,
		id:    id,
		seq:   seq,
		src:   parsed.String(),
		opts:  opts,
		shape: q,
	}
	mq.outAttrs = q.Vars
	if opts.Project != nil {
		mq.outAttrs = opts.Project
	}
	mq.outPos = make([]int, len(mq.outAttrs))
	for i, v := range mq.outAttrs {
		for j, qv := range q.Vars {
			if qv == v {
				mq.outPos[i] = j
			}
		}
	}
	mq.terms = make([]*executor, len(q.Atoms))

	res, err := mq.recompute(context.Background(), vers, epoch)
	if err != nil {
		if !tolerateComputeErr {
			return nil, err
		}
		res = &MaterializedResult{Epoch: epoch, Err: err}
	}
	mq.val.Store(res)

	// Durability before visibility, like every other registration.
	if err := db.walAppendMaterializeLocked(mq); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.views[id] = mq
	db.mu.Unlock()
	return mq, nil
}

// Materialized returns the registered view with the given ID.
func (db *DB) Materialized(id string) (*MaterializedQuery, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mq, ok := db.views[id]
	return mq, ok
}

// MaterializedViews returns the registered views in registration
// order.
func (db *DB) MaterializedViews() []*MaterializedQuery {
	db.mu.RLock()
	out := make([]*MaterializedQuery, 0, len(db.views))
	for _, mq := range db.views {
		out = append(out, mq)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// matKey is an injective byte encoding of a (projected) tuple — the
// support map key.
func matKey(t Tuple) string {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return string(buf)
}

// recompute evaluates the view from scratch against one snapshot —
// the initial computation, and the self-heal path after a maintenance
// failure or a Register. On success it replaces the tuple engine's
// support state. ctx carries the writer's core slot when Apply calls.
//
//wcojlint:locked callers hold db.writeMu
func (mq *MaterializedQuery) recompute(ctx context.Context, vers []*delta.Version, epoch uint64) (*MaterializedResult, error) {
	for i, v := range vers {
		if v == nil {
			return nil, fmt.Errorf("wcoj: materialize %s: no relation %q", mq.id, mq.shape.Atoms[i].Name)
		}
	}
	q, src := bindSnapshot(&mq.db.tries, mq.shape, vers)
	e := newExecutor(q, src, mq.opts.exec(), nil)

	if !mq.opts.needTuples() {
		n, _, err := e.count(ctx)
		if err != nil {
			return nil, err
		}
		return &MaterializedResult{Epoch: epoch, Count: n}, nil
	}

	supp := make(map[string]int64)
	var b *RelationBuilder
	if mq.opts.Mode == MaterializeRows {
		b = relation.NewBuilder(q.OutputName(), mq.outAttrs...)
	}
	buf := make(Tuple, len(mq.outPos))
	emit := func(t Tuple) error {
		for i, pos := range mq.outPos {
			buf[i] = t[pos]
		}
		k := matKey(buf)
		supp[k]++
		if supp[k] == 1 && b != nil {
			return b.Add(buf...)
		}
		return nil
	}
	if _, err := e.visit(ctx, emit); err != nil {
		return nil, err
	}
	mq.support = supp
	res := &MaterializedResult{Epoch: epoch, Count: int64(len(supp))}
	if b != nil {
		res.Rows = b.Build()
	}
	return res, nil
}

// viewUpdate pairs a view with its next value, computed off-lock and
// published inside the batch's db.mu critical section.
type viewUpdate struct {
	mq  *MaterializedQuery
	res *MaterializedResult
}

// maintainViews computes every registered view's successor value for
// the batch that produced next. Called by Apply under writeMu, after
// the batch is durable and before it publishes; the returned updates
// are stored inside the same critical section that installs the new
// versions and advances the epoch. Every search runs under ctx, which
// carries the writer's core slot (see core.HoldCore).
func (db *DB) maintainViews(ctx context.Context, next map[string]*delta.Version) []viewUpdate {
	db.mu.RLock()
	if len(db.views) == 0 {
		db.mu.RUnlock()
		return nil
	}
	views := make([]*MaterializedQuery, 0, len(db.views))
	for _, mq := range db.views {
		views = append(views, mq)
	}
	pre := make(map[string]*delta.Version, len(db.versions))
	for name, v := range db.versions {
		pre[name] = v
	}
	epoch := db.updEpoch.Load()
	db.mu.RUnlock()

	post := make(map[string]*delta.Version, len(pre))
	for name, v := range pre {
		post[name] = v
	}
	for name, nv := range next {
		post[name] = nv
	}
	newEpoch := epoch + 1
	ups := make([]viewUpdate, 0, len(views))
	for _, mq := range views {
		ups = append(ups, viewUpdate{mq: mq, res: mq.maintain(ctx, pre, post, next, newEpoch)})
	}
	return ups
}

// maintain produces the view's value at newEpoch: a shallow copy when
// the batch missed the view's relations, the differential fold when it
// hit them, and a from-scratch recompute when the previous value was
// stale (a prior maintenance failed, or a Register recompute failed).
// A failure never loses the last good value: it is re-published with
// its old epoch and the error attached, which the next batch reads as
// "recompute".
//
//wcojlint:locked callers hold db.writeMu
func (mq *MaterializedQuery) maintain(ctx context.Context, pre, post, next map[string]*delta.Version, newEpoch uint64) *MaterializedResult {
	old := mq.val.Load()
	stale := old.Err != nil || old.Epoch+1 != newEpoch || (mq.opts.needTuples() && mq.support == nil)
	if stale {
		res, err := mq.recompute(ctx, atomVersions(mq.shape, post), newEpoch)
		if err != nil {
			return &MaterializedResult{Epoch: old.Epoch, Count: old.Count, Rows: old.Rows, Err: err}
		}
		return res
	}
	touched := false
	for _, a := range mq.shape.Atoms {
		if _, ok := next[a.Name]; ok {
			touched = true
			break
		}
	}
	if !touched {
		return &MaterializedResult{Epoch: newEpoch, Count: old.Count, Rows: old.Rows}
	}
	res, err := mq.differential(ctx, old, pre, post, next, newEpoch)
	if err != nil {
		if mq.opts.needTuples() {
			// The support map may be half-folded; drop it so the recompute
			// rebuilds from scratch.
			mq.support = nil
		}
		return &MaterializedResult{Epoch: old.Epoch, Count: old.Count, Rows: old.Rows, Err: err}
	}
	return res
}

// addCount adds two signed counts of the view; a sum past int64 is
// agg.ErrCountOverflow, as in the counting engines, never a wrapped
// value.
func (mq *MaterializedQuery) addCount(a, b int64) (int64, error) {
	s := a + b
	if (s > a) != (b > 0) {
		return 0, fmt.Errorf("wcoj: materialize %s: %w", mq.id, agg.ErrCountOverflow)
	}
	return s, nil
}

// suppDelta accumulates one batch's signed contribution to one
// projected tuple.
type suppDelta struct {
	t relation.Tuple
	n int64
}

// differential folds one batch into the previous value by evaluating
// the telescoping terms (see the file comment).
//
//wcojlint:locked callers hold db.writeMu
func (mq *MaterializedQuery) differential(ctx context.Context, old *MaterializedResult, pre, post, next map[string]*delta.Version, newEpoch uint64) (*MaterializedResult, error) {
	tuples := mq.opts.needTuples()
	var dCount int64
	var deltaSupp map[string]*suppDelta
	if tuples {
		deltaSupp = make(map[string]*suppDelta)
	}
	buf := make(Tuple, len(mq.outPos))
	preV, postV := atomVersions(mq.shape, pre), atomVersions(mq.shape, post)
	for i := range mq.terms {
		nv, ok := next[mq.shape.Atoms[i].Name]
		if !ok {
			continue // untouched occurrence: its delta term is empty
		}
		bd := nv.LastBatch
		if bd == nil {
			return nil, fmt.Errorf("wcoj: materialize %s: relation %q published without a batch delta", mq.id, mq.shape.Atoms[i].Name)
		}
		for _, side := range [2]struct {
			rel  *relation.Relation
			sign int64
		}{{bd.Ins, 1}, {bd.Del, -1}} {
			if side.rel.Len() == 0 {
				continue
			}
			e, err := mq.term(i, side.rel, preV, postV)
			if err != nil {
				return nil, err
			}
			if tuples {
				sign := side.sign
				_, err := e.visit(ctx, func(t Tuple) error {
					for j, pos := range mq.outPos {
						buf[j] = t[pos]
					}
					k := matKey(buf)
					sd := deltaSupp[k]
					if sd == nil {
						sd = &suppDelta{t: buf.Clone()}
						deltaSupp[k] = sd
					}
					sd.n += sign
					return nil
				})
				if err != nil {
					return nil, err
				}
			} else {
				n, _, err := e.count(ctx)
				if err == nil {
					dCount, err = mq.addCount(dCount, side.sign*n)
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}

	if !tuples {
		n, err := mq.addCount(old.Count, dCount)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("wcoj: materialize %s: maintained count went negative (%d)", mq.id, n)
		}
		return &MaterializedResult{Epoch: newEpoch, Count: n}, nil
	}

	// Fold the signed support deltas; rows change exactly where a
	// support crosses zero, so the crossing sets satisfy MergeDelta's
	// preconditions (inserts disjoint from rows, deletes ⊆ rows) by
	// construction.
	count := old.Count
	var insB, delB *RelationBuilder
	if mq.opts.Mode == MaterializeRows {
		insB = relation.NewBuilder(old.Rows.Name(), mq.outAttrs...)
		delB = relation.NewBuilder(old.Rows.Name(), mq.outAttrs...)
	}
	for k, sd := range deltaSupp {
		if sd.n == 0 {
			continue
		}
		cur := mq.support[k]
		nw := cur + sd.n
		if nw < 0 {
			return nil, fmt.Errorf("wcoj: materialize %s: support count went negative", mq.id)
		}
		switch {
		case cur == 0 && nw > 0:
			count++
			if insB != nil {
				if err := insB.Add(sd.t...); err != nil {
					return nil, err
				}
			}
		case cur > 0 && nw == 0:
			count--
			if delB != nil {
				if err := delB.Add(sd.t...); err != nil {
					return nil, err
				}
			}
		}
		if nw == 0 {
			delete(mq.support, k)
		} else {
			mq.support[k] = nw
		}
	}
	res := &MaterializedResult{Epoch: newEpoch, Count: count, Rows: old.Rows}
	if insB != nil {
		ins, del := insB.Build(), delB.Build()
		if ins.Len() > 0 || del.Len() > 0 {
			rows, err := relation.MergeDelta(old.Rows, ins, del)
			if err != nil {
				return nil, err
			}
			res.Rows = rows
		}
	}
	return res, nil
}

// term returns the executor of occurrence i's differential term: slot
// i reads the batch delta side drel, earlier slots read post-batch
// snapshots, later slots pre-batch snapshots. It succeeds the
// occurrence's previous term, so its plan is that term's, re-versioned.
//
//wcojlint:locked callers hold db.writeMu
func (mq *MaterializedQuery) term(i int, drel *relation.Relation, pre, post []*delta.Version) (*executor, error) {
	vers := make([]*delta.Version, len(mq.shape.Atoms))
	for j, a := range mq.shape.Atoms {
		switch {
		case j == i:
			continue
		case j < i:
			vers[j] = post[j]
		default:
			vers[j] = pre[j]
		}
		if vers[j] == nil {
			return nil, fmt.Errorf("wcoj: materialize %s: no relation %q", mq.id, a.Name)
		}
	}
	q, src := bindSnapshot(&mq.db.tries, mq.shape, vers)
	q.Atoms[i].Rel = drel
	mq.terms[i] = newExecutor(q, src, mq.opts.exec(), mq.terms[i])
	return mq.terms[i], nil
}

// rematerializeAllLocked recomputes every registered view from scratch
// against the current snapshot — the Register path: replacing a
// relation invalidates any differential state bound to it, and
// Register carries no per-batch delta to fold. Runs under writeMu; a
// view whose recompute fails keeps its last value, stale-with-error,
// and self-heals on the next effective batch.
func (db *DB) rematerializeAllLocked() {
	db.mu.RLock()
	nviews := len(db.views)
	views := make([]*MaterializedQuery, 0, nviews)
	for _, mq := range db.views {
		views = append(views, mq)
	}
	vers := make(map[string]*delta.Version, len(db.versions))
	for name, v := range db.versions {
		vers[name] = v
	}
	epoch := db.updEpoch.Load()
	db.mu.RUnlock()
	for _, mq := range views {
		res, err := mq.recompute(context.Background(), atomVersions(mq.shape, vers), epoch)
		if err != nil {
			old := mq.val.Load()
			mq.support = nil
			res = &MaterializedResult{Epoch: old.Epoch, Count: old.Count, Rows: old.Rows, Err: err}
		}
		mq.val.Store(res)
	}
}
