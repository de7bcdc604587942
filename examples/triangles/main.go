// Triangles: the social-network triangle-counting workload that
// motivates Section 1.2 of the paper (R = S = T = E). Generates a
// skewed power-law graph, counts triangles with every algorithm in the
// library and with the binary-join reference baseline, and compares
// against the AGM bound — on skewed graphs the
// one-pair-at-a-time baseline visibly degrades while the WCOJ
// algorithms do not.
//
// Run with: go run ./examples/triangles [-n 200000] [-v 20000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"wcoj"
	"wcoj/internal/baseline"
	"wcoj/internal/dataset"
)

func main() {
	nEdges := flag.Int("n", 200000, "number of edges")
	nVerts := flag.Int("v", 20000, "number of vertices")
	flag.Parse()

	e := dataset.PowerLawGraph(*nVerts, *nEdges, 1.4, 1)
	db := wcoj.NewDatabase()
	db.Put(e)
	fmt.Printf("graph: %d vertices, %d edges (power-law sources)\n", *nVerts, e.Len())

	q, err := wcoj.MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		log.Fatal(err)
	}

	agm, err := wcoj.AGMBound(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AGM bound: %.0f (= |E|^{3/2})\n\n", agm.Bound)

	fmt.Printf("%-22s %-12s %-12s %-10s\n", "algorithm", "triangles", "elapsed", "max-inter")
	for _, algo := range []wcoj.Algorithm{wcoj.AlgoGenericJoin, wcoj.AlgoBacktracking} {
		start := time.Now()
		n, stats, err := wcoj.Count(q, wcoj.Options{Algorithm: algo})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %-12d %-12v %-10d\n",
			algo, n, time.Since(start).Round(time.Millisecond), stats.Intermediate)
	}
	// The one-pair-at-a-time baseline is a reference implementation, not
	// an algorithm the library serves, so it is called directly.
	start := time.Now()
	out, stats, err := baseline.JoinOnly(q, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %-12d %-12v %-10d\n",
		"binary-join", out.Len(), time.Since(start).Round(time.Millisecond), stats.Intermediate)
	// An EXISTS streams its levels (the survey's Leapfrog Triejoin) and
	// stops at the first triangle.
	start = time.Now()
	found, st, err := wcoj.Exists(q, wcoj.Options{Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %-12v %-12v nodes=%d\n", "exists (streamed)", found, time.Since(start).Round(time.Microsecond), st.Recursions)
	fmt.Println("\n(WCOJ algorithms never build the quadratic wedge set the binary plan does)")
}
