// Command corona-lint runs Corona's invariant analyzers — lockhold,
// lockorder, atomicsafe, cowsafe, aliasretain, obshygiene (see DESIGN.md
// §"Checked invariants") — over the module and exits non-zero on findings.
//
// Usage:
//
//	go run ./cmd/corona-lint [-only name,name] [-allows] [packages]
//
// Packages default to ./... . Findings are silenced per-site with an
// auditable //lint:allow <analyzer> <reason> comment; -allows runs the
// full suite and lists every suppression with its justification, marking
// the ones that no longer suppress anything STALE and exiting non-zero if
// any exist — a suppression that outlives its finding must be deleted,
// not kept as dead weight.
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
	allows := flag.Bool("allows", false, "audit //lint:allow suppressions: list them, fail on stale ones")
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

	if *allows {
		auditAllows(prog)
		return
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

// auditAllows runs the full suite (staleness is undefined under -only)
// and prints every suppression directive with its justification, marking
// those that no longer suppress any finding. Stale directives fail the
// audit: an exception that outlives its finding must be removed.
func auditAllows(prog *analysis.Program) {
	_, stale, err := analysis.RunAudited(prog, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corona-lint: %v\n", err)
		os.Exit(2)
	}
	staleAt := map[string]bool{}
	for _, d := range stale {
		staleAt[d.Pos.String()] = true
	}
	for _, d := range analysis.Allows(prog) {
		mark := ""
		if staleAt[d.Pos.String()] {
			mark = " STALE"
		}
		fmt.Printf("%s: allow %s: %s%s\n", d.Pos, strings.Join(d.Analyzers, ","), d.Reason, mark)
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "corona-lint: %d stale suppression(s): the findings they excused are gone, remove them\n", len(stale))
		os.Exit(1)
	}
}
