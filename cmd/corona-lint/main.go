// Command corona-lint runs Corona's invariant analyzers — lockhold,
// lockorder, atomicsafe, cowsafe, aliasretain, obshygiene (see DESIGN.md
// §"Checked invariants") — over the module and exits non-zero on findings.
//
// Usage:
//
//	go run ./cmd/corona-lint [-only name,name] [packages]
//
// Packages default to ./... . There is no way to silence a finding: it is
// fixed in the code, or its analyzer's rule changes with a fixture case
// that pins the new shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/aliasretain"
	"corona/internal/analysis/atomicsafe"
	"corona/internal/analysis/cowsafe"
	"corona/internal/analysis/lockhold"
	"corona/internal/analysis/lockorder"
	"corona/internal/analysis/obshygiene"
)

var suite = []*analysis.Analyzer{
	lockhold.Analyzer,
	lockorder.Analyzer,
	atomicsafe.Analyzer,
	cowsafe.Analyzer,
	aliasretain.Analyzer,
	obshygiene.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: corona-lint [flags] [packages]\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "corona-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "corona-lint: %v\n", err)
		os.Exit(2)
	}
	prog, err := analysis.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corona-lint: %v\n", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corona-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "corona-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
