// Command wcojlint runs the project's static analysis suite (see
// internal/lint) over the given packages, in the style of a
// go/analysis multichecker:
//
//	go run ./cmd/wcojlint ./...
//	go run ./cmd/wcojlint -only snapshotonce,valueident ./...
//	go run ./cmd/wcojlint -disable nilness ./...
//
// -only restricts the run to the named analyzers; -disable subtracts
// names from whatever -only left.
//
// Exit status: 0 clean, 1 findings reported, 2 analysis failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wcoj/internal/lint"
	"wcoj/internal/lint/analysis"
	"wcoj/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wcojlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	list := fs.Bool("list", false, "list available analyzers and exit")
	dir := fs.String("C", "", "change to this directory before loading packages")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: wcojlint [-only a,b] [-disable a,b] [-C dir] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	parseNames := func(csv string) ([]string, bool) {
		var names []string
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				fmt.Fprintf(stderr, "wcojlint: unknown analyzer %q\n", name)
				return nil, false
			}
			names = append(names, name)
		}
		return names, true
	}
	if *only != "" {
		names, ok := parseNames(*only)
		if !ok {
			return 2
		}
		keep := make(map[string]bool, len(names))
		for _, n := range names {
			keep[n] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if *disable != "" {
		names, ok := parseNames(*disable)
		if !ok {
			return 2
		}
		drop := make(map[string]bool, len(names))
		for _, n := range names {
			drop[n] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	units, err := loader.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "wcojlint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, units)
	if err != nil {
		fmt.Fprintf(stderr, "wcojlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
