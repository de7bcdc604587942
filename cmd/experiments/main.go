// Command experiments regenerates every table and figure of the
// paper's evaluation-style artifacts (see DESIGN.md §2 for the
// mapping):
//
//	table1    Table 1: bound tightness across constraint classes
//	table2    Table 2 / Example 1: PANDA proof-sequence execution
//	triangle  §2: WCOJ vs binary plans on triangle instances
//	heavylight §2 Algorithm 2 vs Algorithm 1 ablation
//	lw        Loomis–Whitney: WCOJ vs join-project gap
//	alg3      Algorithm 3 runtime vs the dual bound ∏ N^δ
//	lp        Prop 4.4: modular LP = polymatroid LP on acyclic DC
//	repair    Prop 5.2: acyclic repair of query (63) constraints
//	shearer   Cor 5.5: Shearer iff fractional edge cover
//	parallel  sharded executor: worker scaling on triangle/clique
//	planner   cost-based variable orders: model cost vs measured work
//
// Usage: experiments -exp all|table1|... [-n 10000] [-parallel P]
//
//	[-planner auto|cost-based] [-explain]
//
// -planner selects the policy the planner experiment explains;
// -explain prints its full EXPLAIN record (per-level bounds, every
// candidate kept, the worst rejected order).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"wcoj"
	"wcoj/internal/baseline"
	"wcoj/internal/bounds"
	"wcoj/internal/constraints"
	"wcoj/internal/core"
	"wcoj/internal/dataset"
	"wcoj/internal/entropy"
	"wcoj/internal/hypergraph"
	"wcoj/internal/panda"
	"wcoj/internal/relation"
	"wcoj/internal/stats"
)

var experiments = []struct {
	name string
	desc string
	run  func(scale int) error
}{
	{"table1", "Table 1: bound tightness by constraint class", table1},
	{"table2", "Table 2 / Example 1: PANDA execution", table2},
	{"triangle", "Triangle: WCOJ vs binary join plans", triangle},
	{"heavylight", "Algorithm 2 vs Algorithm 1 ablation", heavylight},
	{"lw", "Loomis-Whitney: WCOJ vs join-project", loomisWhitney},
	{"alg3", "Algorithm 3 vs dual bound", alg3},
	{"lp", "Prop 4.4: modular = polymatroid on acyclic DC", lpExp},
	{"repair", "Prop 5.2: constraint repair on query (63)", repair},
	{"shearer", "Cor 5.5: Shearer iff fractional cover", shearer},
	{"parallel", "Sharded executor: worker scaling on triangle/clique", parallelScaling},
	{"planner", "Cost-based planner: model cost vs measured work per order", plannerExp},
	{"agg", "Aggregate pushdown: Count/Exists/projection vs enumeration", aggExp},
}

// maxWorkers bounds the worker counts the parallel experiment sweeps;
// set by -parallel (0 = all cores).
var maxWorkers int

// plannerPolicy and explainPlans configure the planner experiment:
// which policy to explain and whether to print the full EXPLAIN text.
var (
	plannerPolicy string
	explainPlans  bool
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	n := flag.Int("n", 10000, "base scale")
	flag.IntVar(&maxWorkers, "parallel", 0, "max workers for the parallel experiment (0 = all cores)")
	flag.StringVar(&plannerPolicy, "planner", "cost-based", "policy the planner experiment explains: auto|cost-based")
	flag.BoolVar(&explainPlans, "explain", false, "print the full plan explanation in the planner experiment")
	flag.Parse()
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("\n=== %s — %s ===\n", e.name, e.desc)
		if err := e.run(*n); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

func triangleQuery(tri dataset.Triangle) (*core.Query, error) {
	return core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
}

// table1 reproduces the structure of Table 1: for each constraint
// class, compare the computed bound against the measured worst case on
// instances designed to meet it.
func table1(scale int) error {
	fmt.Printf("%-34s %-14s %-14s %-10s\n", "constraint class / instance", "bound (log2)", "|Q| (log2)", "tight?")
	// Row 1: cardinality constraints only — AGM bound, tight.
	tri := dataset.TriangleAGMTight(scale)
	q, err := triangleQuery(tri)
	if err != nil {
		return err
	}
	dc := stats.Cardinalities(q)
	poly, err := bounds.Polymatroid(q.Vars, dc)
	if err != nil {
		return err
	}
	n, _, err := wcoj.Count(q, wcoj.Options{})
	if err != nil {
		return err
	}
	printRow("cardinality only (AGM, tight)", poly.LogBound, n)

	// Row 2: cardinality + FD constraints. Instance: R(A,B,C) with
	// A→B; query Q(A,B,C) ← R1(A,B), R2(B,C), R3(A,C) plus FD A→B on
	// R1. Build data satisfying the FD where the bound is met.
	k := int(math.Sqrt(float64(scale)))
	b1 := relation.NewBuilder("R1", "A", "B")
	for a := 0; a < k*k; a++ {
		b1.Add(relation.Value(a), relation.Value(a%k))
	}
	b2 := relation.NewBuilder("R2", "B", "C")
	b3 := relation.NewBuilder("R3", "A", "C")
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			b2.Add(relation.Value(i), relation.Value(j))
		}
	}
	for a := 0; a < k*k; a++ {
		for j := 0; j < k; j++ {
			b3.Add(relation.Value(a), relation.Value(j))
		}
	}
	qfd, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R1", Vars: []string{"A", "B"}, Rel: b1.Build()},
		{Name: "R2", Vars: []string{"B", "C"}, Rel: b2.Build()},
		{Name: "R3", Vars: []string{"A", "C"}, Rel: b3.Build()},
	})
	if err != nil {
		return err
	}
	dcfd := stats.Cardinalities(qfd)
	dcfd = append(dcfd, constraints.FD("R1", []string{"A"}, []string{"B"}))
	polyfd, err := bounds.Polymatroid(qfd.Vars, dcfd)
	if err != nil {
		return err
	}
	nfd, _, err := wcoj.Count(qfd, wcoj.Options{})
	if err != nil {
		return err
	}
	printRow("cardinality + FD", polyfd.LogBound, nfd)

	// Row 3: general degree constraints (chain query (63)-style data).
	c := dataset.NewChain63(scale/100+2, 4, 4, 4, 1)
	qdc, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A"}, Rel: c.R},
		{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
		{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
		{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
	})
	if err != nil {
		return err
	}
	dcGen := constraints.Set{
		constraints.Cardinality("R", []string{"A"}, float64(c.NA)),
		constraints.Degree("S", []string{"A"}, []string{"A", "B"}, float64(c.NBgA)),
		constraints.Degree("T", []string{"B"}, []string{"B", "C"}, float64(c.NCgB)),
		constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, float64(c.NADgC)),
	}
	polyg, err := bounds.Polymatroid(qdc.Vars, dcGen)
	if err != nil {
		return err
	}
	ng, _, err := wcoj.Count(qdc, wcoj.Options{})
	if err != nil {
		return err
	}
	printRow("general degree constraints", polyg.LogBound, ng)
	fmt.Println("(entropic bound is not computable — Open Problem 1; measured log|Q| is its lower witness)")
	return nil
}

func printRow(label string, logBound float64, n int) {
	logN := math.Inf(-1)
	if n > 0 {
		logN = math.Log2(float64(n))
	}
	tight := "loose"
	if logBound-logN < 0.05 {
		tight = "tight"
	} else if logBound-logN < 1 {
		tight = "≈tight"
	}
	fmt.Printf("%-34s %-14.3f %-14.3f %-10s\n", label, logBound, logN, tight)
}

// table2 executes Example 1's Table 2 proof sequence and compares the
// PANDA intermediates against the runtime bound (75).
func table2(scale int) error {
	fmt.Printf("%-8s %-10s %-12s %-14s %-14s %-10s\n", "N", "output", "panda-inter", "bound (75)", "naive-inter", "elapsed")
	for _, n := range []int{scale / 10, scale / 3, scale} {
		if n < 100 {
			n = 100
		}
		d := dataset.NewExample1(n, 4, 4, 0.4, 7)
		st := panda.Example1Stats{
			NAB:     float64(d.R.Len()),
			NBC:     float64(d.S.Len()),
			NCD:     float64(d.T.Len()),
			NACDgAC: maxDeg(d.W, []string{"A", "C"}, []string{"A", "C", "D"}),
			NABDgBD: maxDeg(d.V, []string{"B", "D"}, []string{"A", "B", "D"}),
		}
		ps := panda.Example1Sequence(st)
		affil := panda.Affiliation{
			{S: 0b0011}:            d.R,
			{S: 0b0110}:            d.S,
			{S: 0b1100}:            d.T,
			{S: 0b1101, G: 0b0101}: d.W,
			{S: 0b1011, G: 0b1010}: d.V,
		}
		filters := []*relation.Relation{d.R, d.S, d.T, d.W, d.V}
		start := time.Now()
		out, est, err := panda.Execute(ps, panda.Example1Vars, affil, filters)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// Naive comparator: the first intermediate |R ⋈ S| of the
		// canonical left-deep plan.
		rs, err := relation.Join(d.R, d.S)
		if err != nil {
			return err
		}
		naive := rs.Len()
		fmt.Printf("%-8d %-10d %-12d %-14.0f %-14d %-10v\n",
			n, out.Len(), est.Intermediate, st.RuntimeBound(), naive, elapsed.Round(time.Millisecond))
	}
	fmt.Println("(PANDA intermediates stay within the (75) bound; naive left-deep plans do not)")
	return nil
}

func maxDeg(r *relation.Relation, x, y []string) float64 {
	d, err := r.MaxDegree(x, y)
	if err != nil || d < 1 {
		return 1
	}
	return float64(d)
}

// triangle compares Generic-Join, heavy/light and binary plans on
// AGM-tight and skewed instances across a scale sweep (the §2
// headline). Generic-Join's enumerating count materializes every level,
// as Leapfrog Triejoin's search order would visit every value too.
func triangle(scale int) error {
	for _, kind := range []string{"agm-tight", "skew"} {
		fmt.Printf("-- %s instances --\n", kind)
		fmt.Printf("%-8s %-9s %-12s %-12s %-12s %-12s\n",
			"N", "output", "generic", "heavylight", "binary", "bin-inter")
		for _, n := range []int{scale / 16, scale / 4, scale} {
			if n < 64 {
				n = 64
			}
			var tri dataset.Triangle
			if kind == "agm-tight" {
				tri = dataset.TriangleAGMTight(n)
			} else {
				tri = dataset.TriangleSkew(n)
			}
			q, err := triangleQuery(tri)
			if err != nil {
				return err
			}
			tGJ, cnt := timeIt(func() int {
				c, _, err := wcoj.Count(q, wcoj.Options{Order: []string{"A", "B", "C"}, Parallelism: 1, DisablePushdown: true})
				if err != nil {
					panic(err)
				}
				return c
			})
			tHL, _ := timeIt(func() int {
				out, _, err := core.TriangleHeavyLight(tri.R, tri.S, tri.T)
				if err != nil {
					panic(err)
				}
				return out.Len()
			})
			var inter int
			tBin, _ := timeIt(func() int {
				out, st, err := baseline.JoinOnly(q, nil, nil)
				if err != nil {
					panic(err)
				}
				inter = st.Intermediate
				return out.Len()
			})
			fmt.Printf("%-8d %-9d %-12v %-12v %-12v %-12d\n",
				tri.R.Len(), cnt, tGJ, tHL, tBin, inter)
		}
	}
	fmt.Println("(shape: WCOJ times grow ~N^{3/2} on agm-tight and ~N on skew; binary intermediates grow ~N² on skew)")
	fmt.Println(indexFooter)
	return nil
}

// indexFooter closes every timed table: the free functions cache
// nothing, so cells compare like with like.
const indexFooter = "(every timed cell includes its own index build: one-shot calls build their tries and discard them)"

func timeIt(f func() int) (time.Duration, int) {
	start := time.Now()
	n := f()
	return time.Since(start).Round(time.Microsecond), n
}

// heavylight is the Algorithm 1 vs Algorithm 2 ablation.
func heavylight(scale int) error {
	fmt.Printf("%-8s %-9s %-14s %-14s %-14s\n", "N", "output", "alg1(generic)", "alg2(hl)", "hl-inter")
	for _, n := range []int{scale / 16, scale / 4, scale} {
		if n < 64 {
			n = 64
		}
		tri := dataset.TriangleSkew(n)
		q, err := triangleQuery(tri)
		if err != nil {
			return err
		}
		t1, cnt := timeIt(func() int {
			out, _, err := wcoj.Execute(q, wcoj.Options{Order: []string{"A", "B", "C"}, Parallelism: 1})
			if err != nil {
				panic(err)
			}
			return out.Len()
		})
		var inter int
		t2, _ := timeIt(func() int {
			out, st, err := core.TriangleHeavyLight(tri.R, tri.S, tri.T)
			if err != nil {
				panic(err)
			}
			inter = st.Intermediate
			return out.Len()
		})
		agm := math.Sqrt(float64(tri.R.Len()) * float64(tri.S.Len()) * float64(tri.T.Len()))
		fmt.Printf("%-8d %-9d %-14v %-14v %d (≤ %.0f = sqrt bound)\n", tri.R.Len(), cnt, t1, t2, inter, agm)
	}
	return nil
}

// loomisWhitney measures the WCOJ vs join-project gap on LW(k).
func loomisWhitney(scale int) error {
	fmt.Printf("%-4s %-8s %-9s %-12s %-12s %-12s %-10s\n", "k", "N", "output", "wcoj", "joinproj", "jp-inter", "jp/wcoj")
	for _, k := range []int{3, 4, 5} {
		n := scale
		if k >= 4 {
			n = scale / 4
		}
		rels := dataset.LoomisWhitney(k, n)
		var vars []string
		for j := 0; j < k; j++ {
			vars = append(vars, fmt.Sprintf("A%d", j))
		}
		var atoms []core.Atom
		for _, r := range rels {
			atoms = append(atoms, core.Atom{Name: r.Name(), Vars: r.Attrs(), Rel: r})
		}
		q, err := core.NewQuery(vars, atoms)
		if err != nil {
			return err
		}
		tW, cnt := timeIt(func() int {
			c, _, err := wcoj.Count(q, wcoj.Options{Parallelism: 1, DisablePushdown: true})
			if err != nil {
				panic(err)
			}
			return c
		})
		var inter int
		tJ, _ := timeIt(func() int {
			out, st, err := baseline.JoinProject(q, nil, nil)
			if err != nil {
				panic(err)
			}
			inter = st.Intermediate
			return out.Len()
		})
		ratio := float64(tJ) / float64(tW)
		fmt.Printf("%-4d %-8d %-9d %-12v %-12v %-12d %.1fx\n",
			k, rels[0].Len(), cnt, tW, tJ, inter, ratio)
	}
	fmt.Println("(paper: any join-project plan loses Ω(N^{1-1/k}) on LW(k))")
	return nil
}

// alg3 compares Algorithm 3's work counters against the dual bound
// ∏ N_{Y|X}^{δ_{Y|X}} from LP (57).
func alg3(scale int) error {
	fmt.Printf("%-8s %-8s %-10s %-12s %-14s %-14s\n", "N_A", "deg", "output", "search-work", "dual-bound", "elapsed")
	for _, deg := range []int{2, 4, 8} {
		nA := scale / (deg * deg * 10)
		if nA < 4 {
			nA = 4
		}
		c := dataset.NewChain63(nA, deg, deg, deg, 3)
		q, err := core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
			{Name: "R", Vars: []string{"A"}, Rel: c.R},
			{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
			{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
			{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
		})
		if err != nil {
			return err
		}
		dc := constraints.Set{
			constraints.Cardinality("R", []string{"A"}, float64(c.NA)),
			constraints.Degree("S", []string{"A"}, []string{"A", "B"}, float64(c.NBgA)),
			constraints.Degree("T", []string{"B"}, []string{"B", "C"}, float64(c.NCgB)),
			constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, float64(c.NADgC)),
		}
		acyclic, err := dc.MakeAcyclic(q.Vars)
		if err != nil {
			return err
		}
		mod, err := bounds.Modular(q.Vars, acyclic)
		if err != nil {
			return err
		}
		// The serial enumeration, so the counters are the search's own
		// (no aggregate pushdown, no sharding).
		start := time.Now()
		n, st, err := wcoj.Count(q, wcoj.Options{
			Algorithm: wcoj.AlgoBacktracking, Constraints: acyclic, Parallelism: 1, DisablePushdown: true,
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("%-8d %-8d %-10d %-12d %-14.0f %-14v\n",
			c.NA, deg, n, st.IntersectValues+st.Recursions, mod.Bound, elapsed.Round(time.Microsecond))
	}
	fmt.Println("(Theorem 5.1: search work is O(|D| + ∏ N^δ) up to n·|DC|·log|D|)")
	return nil
}

// lpExp verifies Proposition 4.4 on the chain DC family and times the
// two LPs.
func lpExp(scale int) error {
	fmt.Printf("%-6s %-14s %-14s %-12s %-12s\n", "nvars", "modular", "polymatroid", "t-mod", "t-poly")
	// Capped at 8 variables: the polymatroid LP has 2^n−1 variables and
	// Θ(n²·2^n) elemental rows, which is precisely the exponential
	// blow-up the paper's Open Problem 2 is about; the modular LP stays
	// microseconds at any width.
	for _, nv := range []int{3, 5, 7, 8} {
		vars := make([]string, nv)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i)
		}
		dc := constraints.Set{constraints.Cardinality("R0", vars[:1], 1000)}
		for i := 1; i < nv; i++ {
			dc = append(dc, constraints.Degree(fmt.Sprintf("R%d", i),
				[]string{vars[i-1]}, []string{vars[i-1], vars[i]}, 16))
		}
		start := time.Now()
		mod, err := bounds.Modular(vars, dc)
		if err != nil {
			return err
		}
		tMod := time.Since(start)
		start = time.Now()
		poly, err := bounds.Polymatroid(vars, dc)
		if err != nil {
			return err
		}
		tPoly := time.Since(start)
		fmt.Printf("%-6d %-14.3f %-14.3f %-12v %-12v\n",
			nv, mod.LogBound, poly.LogBound, tMod.Round(time.Microsecond), tPoly.Round(time.Microsecond))
	}
	fmt.Println("(equal values: Prop 4.4; the modular LP is poly-size, the polymatroid LP is 2^n)")
	return nil
}

// repair demonstrates Proposition 5.2 on the paper's query (63).
func repair(int) error {
	dc := constraints.Set{
		constraints.Cardinality("R", []string{"A"}, 100),
		constraints.Degree("S", []string{"A"}, []string{"A", "B"}, 10),
		constraints.Degree("T", []string{"B"}, []string{"B", "C"}, 10),
		constraints.Degree("W", []string{"C"}, []string{"C", "A", "D"}, 10),
	}
	vars := []string{"A", "B", "C", "D"}
	fmt.Printf("original DC acyclic: %v\n", dc.IsAcyclic())
	// Naive dropping of any single constraint unbinds a variable.
	for i := range dc {
		rest := append(dc[:i:i], dc[i+1:]...)
		fmt.Printf("  drop %v -> all bound: %v\n", dc[i], rest.AllBound(vars))
	}
	repaired, err := dc.MakeAcyclic(vars)
	if err != nil {
		return err
	}
	fmt.Printf("repaired DC acyclic: %v, constraints: %d\n", repaired.IsAcyclic(), len(repaired))
	for _, c := range repaired {
		fmt.Printf("  %v\n", c)
	}
	mod, err := bounds.Modular(vars, repaired)
	if err != nil {
		return err
	}
	fmt.Printf("modular bound on DC': 2^%.3f = %.0f tuples (finite, as Prop 5.2 promises)\n",
		mod.LogBound, mod.Bound)
	return nil
}

// shearer verifies Corollary 5.5 on the named hypergraph families.
func shearer(int) error {
	fmt.Printf("%-12s %-22s %-8s %-8s\n", "hypergraph", "delta", "cover?", "shearer?")
	cases := []struct {
		name  string
		h     *hypergraph.Hypergraph
		delta []float64
	}{
		{"triangle", hypergraph.LoomisWhitney(3), []float64{.5, .5, .5}},
		{"triangle", hypergraph.LoomisWhitney(3), []float64{.4, .5, .5}},
		{"C4", hypergraph.Cycle(4), []float64{.5, .5, .5, .5}},
		{"C4", hypergraph.Cycle(4), []float64{1, 0, 1, 0}},
		{"C4", hypergraph.Cycle(4), []float64{1, 0, 0, 1}},
		{"LW(4)", hypergraph.LoomisWhitney(4), []float64{1. / 3, 1. / 3, 1. / 3, 1. / 3}},
	}
	for _, c := range cases {
		isCover := c.h.IsFractionalEdgeCover(c.delta, 1e-9)
		n := c.h.NumVertices()
		masks := make([]uint32, c.h.NumEdges())
		for e, edge := range c.h.Edges() {
			m, err := entropy.MaskOf(edge.Vertices, c.h.Vertices())
			if err != nil {
				return err
			}
			masks[e] = m
		}
		ok, err := entropy.VerifyShearer(n, masks, c.delta, 1e-6)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-22v %-8v %-8v\n", c.name, c.delta, isCover, ok)
		if ok != isCover {
			return fmt.Errorf("shearer mismatch on %s", c.name)
		}
	}
	fmt.Println("(agreement on every row: Shearer holds iff delta is a fractional edge cover)")
	return nil
}

// parallelScaling sweeps the sharded executor's worker count on the
// triangle and 4-clique workloads, reporting speedup over the serial
// search (the North-star "fast as the hardware allows" check; expect
// near-linear scaling up to physical cores on multicore machines).
func parallelScaling(scale int) error {
	if scale < 64 {
		scale = 64 // floors RandomGraph's vertex count at 16
	}
	limit := maxWorkers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	var workers []int
	for p := 1; p <= limit; p *= 2 {
		workers = append(workers, p)
	}
	if last := workers[len(workers)-1]; last != limit {
		workers = append(workers, limit)
	}

	tri := dataset.TriangleAGMTight(scale)
	triQ, err := triangleQuery(tri)
	if err != nil {
		return err
	}
	db := wcoj.NewDatabase()
	db.Put(dataset.RandomGraph(scale/4, scale*2, 7))
	cliqueQ, err := wcoj.MustParse("Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)").Bind(db)
	if err != nil {
		return err
	}

	for _, wl := range []struct {
		name string
		q    *core.Query
	}{{"triangle", triQ}, {"clique4", cliqueQ}} {
		order := append([]string(nil), wl.q.Vars...)
		fmt.Printf("-- %s (N=%d) --\n", wl.name, wl.q.MaxRelationSize())
		fmt.Printf("%-8s %-9s %-12s %-9s\n", "workers", "output", "generic", "speedup")
		var baseGJ time.Duration
		for _, p := range workers {
			opts := wcoj.Options{Order: order, Parallelism: p}
			tGJ, cnt := timeIt(func() int {
				c, _, err := wcoj.Count(wl.q, opts)
				if err != nil {
					panic(err)
				}
				return c
			})
			if p == 1 {
				baseGJ = tGJ
			}
			fmt.Printf("%-8d %-9d %-12v %-9.2f\n", p, cnt, tGJ, float64(baseGJ)/float64(tGJ))
		}
	}
	fmt.Println("(identical outputs at every worker count; sharded over the depth-0 intersection)")
	fmt.Println(indexFooter)
	return nil
}

// plannerExp demonstrates the cost-based variable-order planner on
// the skewed star: every candidate order's modeled cost (Σ per-prefix
// modular bounds) is compared against its measured search work and
// wall time, showing the model ranks orders the way execution does —
// the paper's "bounds prescribe the algorithm" loop closed at plan
// time.
func plannerExp(scale int) error {
	if scale < 200 {
		scale = 200
	}
	star := dataset.SkewedStar(scale, 10, scale/20)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: star.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: star.S},
	})
	if err != nil {
		return err
	}
	policy, err := wcoj.ParsePlanner(plannerPolicy)
	if err != nil {
		return err
	}
	exp, err := wcoj.Explain(q, wcoj.Options{Planner: policy})
	if err != nil {
		return err
	}
	fmt.Printf("star: %d spokes on one hub, fan %d, %d distractor edges\n",
		star.R.Len(), 10, scale/20)
	if explainPlans {
		fmt.Print(exp)
	} else {
		fmt.Printf("policy=%v chose [%s] (cost %.3g, %d orders scored; -explain for the full record)\n",
			exp.Policy, strings.Join(exp.Order, " "), exp.Cost, exp.Considered)
	}

	cands := append([]wcoj.PlanCandidate(nil), exp.Candidates...)
	if exp.Worst != nil {
		last := cands[len(cands)-1]
		if strings.Join(last.Order, ",") != strings.Join(exp.Worst.Order, ",") {
			cands = append(cands, *exp.Worst)
		}
	}
	fmt.Printf("%-12s %-14s %-14s %-12s %-10s\n", "order", "model-cost", "search-work", "elapsed", "")
	for i, cand := range cands {
		start := time.Now()
		_, st, err := wcoj.Count(q, wcoj.Options{Order: cand.Order, Parallelism: 1})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		note := ""
		if i == 0 {
			note = "<- chosen"
		} else if exp.Worst != nil && strings.Join(cand.Order, ",") == strings.Join(exp.Worst.Order, ",") {
			note = "<- worst"
		}
		fmt.Printf("%-12s %-14.3g %-14d %-12v %-10s\n",
			strings.Join(cand.Order, ","), cand.Cost, st.Recursions+st.IntersectValues,
			elapsed.Round(time.Microsecond), note)
	}
	fmt.Println("(model cost ranks orders as execution does; the chosen order avoids the cross-product prefix)")
	return nil
}

// aggExp measures the aggregate-aware execution mode: COUNT via
// enumerate-then-count (Execute + Len), the streaming count
// (DisablePushdown) and the pushdown count (free-counted suffix
// multiplication, tail intersection counting and the subtree memo),
// plus first-witness EXISTS and projection pushdown. The pushdown
// column is the ISSUE acceptance measurement: on the AGM-tight
// triangle it must beat the enumeration path by well over 10x.
func aggExp(scale int) error {
	if scale < 400 {
		scale = 400
	}
	tri := dataset.TriangleAGMTight(scale)
	triQ, err := triangleQuery(tri)
	if err != nil {
		return err
	}
	db := wcoj.NewDatabase()
	db.Put(dataset.RandomGraph(scale/4, scale*2, 7))
	pathQ, err := wcoj.MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D)").Bind(db)
	if err != nil {
		return err
	}
	star := dataset.SkewedStar(scale, 10, scale/20)
	starQ, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: star.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: star.S},
	})
	if err != nil {
		return err
	}
	workloads := []struct {
		name string
		q    *core.Query
	}{{"triangle-agm", triQ}, {"path4", pathQ}, {"skewed-star", starQ}}

	fmt.Printf("%-14s %-10s %-12s %-12s %-12s %-10s %-10s\n",
		"workload", "count", "enumerate", "streaming", "pushdown", "vs-enum", "vs-count")
	for _, wl := range workloads {
		opts := wcoj.Options{Parallelism: 1}
		tEnum, n := timeIt(func() int {
			out, _, err := wcoj.Execute(wl.q, opts)
			if err != nil {
				panic(err)
			}
			return out.Len()
		})
		// Count runs the pushdown by default; DisablePushdown gives the
		// streaming count for the streaming-vs-pushdown columns.
		streamOpts := opts
		streamOpts.DisablePushdown = true
		tCount, n2 := timeIt(func() int {
			c, _, err := wcoj.Count(wl.q, streamOpts)
			if err != nil {
				panic(err)
			}
			return c
		})
		tFast, n3 := timeIt(func() int {
			c, _, err := wcoj.Count(wl.q, opts)
			if err != nil {
				panic(err)
			}
			return c
		})
		if n2 != n || n3 != n {
			return fmt.Errorf("agg: counts diverge on %s: enumerate=%d streaming=%d pushdown=%d", wl.name, n, n2, n3)
		}
		fmt.Printf("%-14s %-10d %-12v %-12v %-12v %-10.1f %-10.1f\n",
			wl.name, n, tEnum.Round(time.Microsecond), tCount.Round(time.Microsecond),
			tFast.Round(time.Microsecond), float64(tEnum)/float64(tFast), float64(tCount)/float64(tFast))
	}

	// EXISTS short-circuits; the classification sinks the projected-away
	// variables, so the projection never enumerates multiplicities.
	tExists, _ := timeIt(func() int {
		found, _, err := wcoj.Exists(triQ, wcoj.Options{Parallelism: 1})
		if err != nil {
			panic(err)
		}
		if !found {
			return 0
		}
		return 1
	})
	tProj, distinct := timeIt(func() int {
		c, _, err := wcoj.Count(starQ, wcoj.Options{Parallelism: 1, Project: []string{"A"}})
		if err != nil {
			panic(err)
		}
		return c
	})
	fmt.Printf("exists(triangle-agm): %v (first witness)\n", tExists.Round(time.Microsecond))
	fmt.Printf("count distinct A (skewed-star): %d in %v (projection pushdown)\n", distinct, tProj.Round(time.Microsecond))
	e, err := wcoj.Explain(pathQ, wcoj.Options{})
	if err != nil {
		return err
	}
	ce := e.Count
	fmt.Printf("path4 count plan: order=[%s] counted-suffix from level %d\n",
		strings.Join(ce.Order, " "), ce.CountFrom)
	fmt.Println("(the count pushdown multiplies free-counted suffixes and counts tail intersections instead of enumerating)")
	fmt.Println(indexFooter)
	return nil
}
