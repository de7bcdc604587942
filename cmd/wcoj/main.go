// Command wcoj evaluates a conjunctive query over TSV/CSV relations
// with a selectable join algorithm, through a long-lived wcoj.DB (the
// query is prepared once; -repeat re-executes the prepared plan).
//
// Usage:
//
//	wcoj -query 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)' \
//	     -rel R=r.tsv -rel S=s.tsv -rel T=t.tsv \
//	     [-algo generic-join|backtracking] \
//	     [-order A,B,C] [-planner auto|cost-based] \
//	     [-explain] [-count] [-exists] [-project A,C] \
//	     [-out out.tsv] [-parallel N] [-repeat N]
//
// Every -rel file loads through DB.LoadFile: a path ending in .csv is
// comma-separated (quoted fields; strings interned through the DB
// dictionary), anything else is tab-separated integers. For a
// long-lived serving process, see cmd/wcojd.
//
// Each TSV file has an attribute header line followed by integer
// tuples (see wcojgen to generate workloads). -planner selects how
// the WCOJ variable order is resolved: auto takes -order when given and
// the degree-order heuristic otherwise, cost-based runs the bounds
// driven optimizer. -algo leapfrog-triejoin is still accepted, as the
// name of generic-join, which streams the levels that may stop early
// (see wcoj.AlgoLeapfrog). -explain prints the planning record — chosen
// order, per-level bounds, candidates considered, and (for -count /
// -project) the bound/free-output/free-counted level classification —
// then the whole query's worst-case output bounds: the AGM bound with
// its fractional edge cover, and the polymatroid and modular bounds
// under the degree constraints measured on the data. It exits without
// running the join; -count reports the actual output size.
//
// Aggregates run through the aggregate-aware search: -count uses the
// Count pushdown (free-counted suffix levels are multiplied, not
// enumerated), -exists short-circuits on the first witness, and
// -project enumerates only the distinct projected tuples, existence
// checking the projected-away levels.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wcoj"
	"wcoj/internal/relation"
	"wcoj/internal/stats"
)

type relFlags []string

func (r *relFlags) String() string { return strings.Join(*r, ",") }
func (r *relFlags) Set(s string) error {
	*r = append(*r, s)
	return nil
}

// config carries the parsed command line.
type config struct {
	query    string
	algo     string
	order    string
	planner  string
	project  string
	explain  bool
	count    bool
	exists   bool
	outPath  string
	parallel int
	repeat   int
	rels     relFlags
}

func main() {
	var c config
	flag.StringVar(&c.query, "query", "", "conjunctive query, e.g. 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)'")
	flag.StringVar(&c.algo, "algo", "generic-join", "join algorithm: generic-join|backtracking")
	flag.StringVar(&c.order, "order", "", "comma-separated variable order (optional)")
	flag.StringVar(&c.planner, "planner", "auto", "variable-order planner: auto|cost-based")
	flag.StringVar(&c.project, "project", "", "comma-separated variables to project onto (distinct tuples)")
	flag.BoolVar(&c.explain, "explain", false, "print the plan explanation and the output-size bounds, and exit without running the join")
	flag.BoolVar(&c.count, "count", false, "print only the output cardinality (aggregate-aware Count)")
	flag.BoolVar(&c.exists, "exists", false, "print only whether the output is non-empty (first-witness short-circuit)")
	flag.StringVar(&c.outPath, "out", "", "write the result as TSV to this file")
	flag.IntVar(&c.parallel, "parallel", 0, "worker goroutines of the search (0 = all cores, 1 = serial)")
	flag.IntVar(&c.repeat, "repeat", 1, "execute the prepared query N times (plan and indexes are built once)")
	flag.Var(&c.rels, "rel", "NAME=path.tsv|.csv (repeatable)")
	flag.Parse()
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "wcoj:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, c config) error {
	if c.query == "" {
		return fmt.Errorf("missing -query")
	}
	if c.count && c.exists {
		return fmt.Errorf("-count and -exists are mutually exclusive")
	}
	algo, err := wcoj.ParseAlgorithm(c.algo)
	if err != nil {
		return err
	}
	planner, err := wcoj.ParsePlanner(c.planner)
	if err != nil {
		return err
	}
	db := wcoj.NewDB()
	if err := loadRelations(db, c.rels); err != nil {
		return err
	}
	var order, project []string
	if c.order != "" {
		order = strings.Split(c.order, ",")
	}
	if c.project != "" {
		project = strings.Split(c.project, ",")
	}
	opts := wcoj.Options{Algorithm: algo, Order: order, Planner: planner, Parallelism: c.parallel, Project: project}

	if c.explain {
		// Explain never runs the join, so bind without preparing —
		// Prepare would eagerly build the tries the explanation skips.
		q, err := db.Bind(c.query)
		if err != nil {
			return err
		}
		e, err := wcoj.Explain(q, opts)
		if err != nil {
			return err
		}
		if (c.count || c.exists) && e.Count != nil {
			e = e.Count // the aggregate plan is what count/exists runs
		}
		fmt.Fprint(w, e)
		return printBounds(w, q)
	}

	prepStart := time.Now()
	pq, err := db.Prepare(c.query, opts)
	if err != nil {
		return err
	}
	prepElapsed := time.Since(prepStart)
	if c.repeat < 1 {
		c.repeat = 1
	}

	ctx := context.Background()
	start := time.Now()
	if c.exists {
		var found bool
		var stats *wcoj.Stats
		for i := 0; i < c.repeat; i++ {
			if found, stats, err = pq.Exists(ctx); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "exists=%v algo=%v elapsed=%v recursions=%d\n", found, algo, perCall(start, c.repeat), stats.Recursions)
		reportRepeat(w, pq, prepElapsed, c.repeat)
		return nil
	}
	if c.count {
		var n int
		var stats *wcoj.Stats
		for i := 0; i < c.repeat; i++ {
			if n, stats, err = pq.Count(ctx); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "count=%d algo=%v elapsed=%v recursions=%d multiplies=%d memohits=%d\n",
			n, algo, perCall(start, c.repeat), stats.Recursions, stats.AggMultiplies, stats.AggMemoHits)
		reportRepeat(w, pq, prepElapsed, c.repeat)
		return nil
	}
	var out *wcoj.Relation
	var stats *wcoj.Stats
	for i := 0; i < c.repeat; i++ {
		if out, stats, err = pq.Execute(ctx); err != nil {
			return err
		}
	}
	elapsed := perCall(start, c.repeat)
	reportRepeat(w, pq, prepElapsed, c.repeat)
	fmt.Fprintf(w, "rows=%d algo=%v elapsed=%v intermediate=%d\n", out.Len(), algo, elapsed, stats.Intermediate)
	if c.outPath != "" {
		f, err := os.Create(c.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return relation.WriteTSV(f, out)
	}
	// Print up to 20 rows to stdout.
	limit := out.Len()
	if limit > 20 {
		limit = 20
	}
	fmt.Fprintln(w, strings.Join(out.Attrs(), "\t"))
	var row wcoj.Tuple
	for i := 0; i < limit; i++ {
		row = out.Tuple(i, row)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(int64(v))
		}
		fmt.Fprintln(w, strings.Join(parts, "\t"))
	}
	if out.Len() > limit {
		fmt.Fprintf(w, "... (%d more rows; use -out to save)\n", out.Len()-limit)
	}
	return nil
}

// loadRelations registers every -rel file through DB.LoadFile (.csv
// via the CSV reader with dictionary interning, anything else as
// integer TSV) — the same dispatch cmd/wcojd uses.
func loadRelations(db *wcoj.DB, rels relFlags) error {
	for _, spec := range rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -rel %q, want NAME=path", spec)
		}
		if _, err := db.LoadFile(path, name); err != nil {
			return err
		}
	}
	return nil
}

// perCall averages the elapsed wall clock over the repeat count.
func perCall(start time.Time, repeat int) time.Duration {
	return time.Since(start) / time.Duration(repeat)
}

// reportRepeat prints the plan-reuse summary for -repeat runs.
func reportRepeat(w io.Writer, pq *wcoj.PreparedQuery, prep time.Duration, repeat int) {
	if repeat <= 1 {
		return
	}
	st := pq.Stats()
	fmt.Fprintf(w, "prepared once in %v; %d calls, %v total execution, %v/call\n",
		prep, st.Calls, st.Duration, st.Duration/time.Duration(st.Calls))
}

// printBounds prints q's worst-case output-size bounds: AGM from the
// relation cardinalities, with its optimal fractional edge cover, and
// the polymatroid and modular bounds under the degree constraints
// measured on the data (stats.AllDegrees).
func printBounds(w io.Writer, q *wcoj.Query) error {
	agm, err := wcoj.AGMBound(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "AGM bound:         %.1f tuples (2^%.3f), rho* = %.3f\n", agm.Bound, agm.LogBound, agm.Rho)
	for i, a := range q.Atoms {
		fmt.Fprintf(w, "  cover delta[%s] = %.3f\n", a.Name, agm.Cover[i])
	}
	dc, err := stats.AllDegrees(q, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "constraints:       %d measured degree constraints\n", len(dc))
	poly, err := wcoj.PolymatroidBound(q, dc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "polymatroid bound: %.1f tuples (2^%.3f)\n", poly.Bound, poly.LogBound)
	if !dc.IsAcyclic() {
		fmt.Fprintln(w, "modular bound:     skipped (constraints are cyclic; Prop 4.4 does not apply)")
		return nil
	}
	mod, err := wcoj.ModularBound(q, dc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "modular bound:     %.1f tuples (2^%.3f) [acyclic DC: equals polymatroid by Prop 4.4]\n",
		mod.Bound, mod.LogBound)
	return nil
}
