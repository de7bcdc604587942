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
// Relations whose path ends in .csv are loaded through the CSV reader
// (quoted fields; strings interned through the DB dictionary);
// everything else is integer TSV. For a many-query serving or batch
// process, see cmd/wcojd.
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
// and exits without running the join.
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
	"os"
	"strings"
	"time"

	"wcoj"
	"wcoj/internal/relation"
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
	flag.BoolVar(&c.explain, "explain", false, "print the plan explanation and exit without running the join")
	flag.BoolVar(&c.count, "count", false, "print only the output cardinality (aggregate-aware Count)")
	flag.BoolVar(&c.exists, "exists", false, "print only whether the output is non-empty (first-witness short-circuit)")
	flag.StringVar(&c.outPath, "out", "", "write the result as TSV to this file")
	flag.IntVar(&c.parallel, "parallel", 0, "worker goroutines of the search (0 = all cores, 1 = serial)")
	flag.IntVar(&c.repeat, "repeat", 1, "execute the prepared query N times (plan and indexes are built once)")
	flag.Var(&c.rels, "rel", "NAME=path.tsv|.csv (repeatable)")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "wcoj:", err)
		os.Exit(1)
	}
}

func run(c config) error {
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
		fmt.Print(e)
		return nil
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
		fmt.Printf("exists=%v algo=%v elapsed=%v recursions=%d\n", found, algo, perCall(start, c.repeat), stats.Recursions)
		reportRepeat(pq, prepElapsed, c.repeat)
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
		fmt.Printf("count=%d algo=%v elapsed=%v recursions=%d multiplies=%d memohits=%d\n",
			n, algo, perCall(start, c.repeat), stats.Recursions, stats.AggMultiplies, stats.AggMemoHits)
		reportRepeat(pq, prepElapsed, c.repeat)
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
	reportRepeat(pq, prepElapsed, c.repeat)
	fmt.Printf("rows=%d algo=%v elapsed=%v intermediate=%d\n", out.Len(), algo, elapsed, stats.Intermediate)
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
	fmt.Println(strings.Join(out.Attrs(), "\t"))
	var row wcoj.Tuple
	for i := 0; i < limit; i++ {
		row = out.Tuple(i, row)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(int64(v))
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	if out.Len() > limit {
		fmt.Printf("... (%d more rows; use -out to save)\n", out.Len()-limit)
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
func reportRepeat(pq *wcoj.PreparedQuery, prep time.Duration, repeat int) {
	if repeat <= 1 {
		return
	}
	st := pq.Stats()
	fmt.Printf("prepared once in %v; %d calls, %v total execution, %v/call\n",
		prep, st.Calls, st.Duration, st.Duration/time.Duration(st.Calls))
}
