// Package analysis is Corona's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// model, hosting the analyzers that mechanically enforce the engine's
// concurrency and zero-copy invariants (see DESIGN.md §"Checked
// invariants").
//
// The framework deliberately mirrors the upstream API shape — Analyzer,
// Pass, Diagnostic — so the suite could be rebased onto x/tools if the
// dependency ever becomes available. It differs in one way that the
// analyzers exploit: a Pass sees the whole program (every package of the
// module) at once, with one shared token.FileSet and one consistent
// types.Object universe, so cross-package call-graph construction and
// interface-implementation resolution need no fact serialization.
//
// There is no suppression comment: a finding is fixed in the code, or its
// analyzer's rule changes with a fixture case that pins the new shape.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and to corona-lint -only.
	// Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the program and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Package is one type-checked package of the analyzed program.
type Package struct {
	// Path is the import path ("corona/internal/state").
	Path string
	// Name is the package name ("state"). Analyzers that scope rules to a
	// subsystem match on the name, which also holds for test fixtures.
	Name string
	// Dir is the directory the sources were loaded from.
	Dir string
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression annotations.
	Info *types.Info
}

// A Pass is one analyzer's view of the whole analyzed program.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the source-analyzed packages, in dependency order
	// (imported packages first).
	Pkgs []*Package

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded program and returns every
// finding, sorted by position. The returned error reports analyzer
// failures, not findings.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkgs: prog.Pkgs}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
