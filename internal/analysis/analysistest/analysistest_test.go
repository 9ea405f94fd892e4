package analysistest_test

import (
	"go/ast"
	"strings"
	"testing"

	"corona/internal/analysis"
	"corona/internal/analysis/analysistest"
)

// flagAnalyzer is a toy whole-program analyzer: it reports every function
// whose name starts with Flag, naming the package it was found in. The
// messages embed the package name so the golden run proves diagnostics
// and wants are matched per-package across the whole fixture tree.
var flagAnalyzer = &analysis.Analyzer{
	Name: "flagfunc",
	Doc:  "reports functions named Flag*, for harness testing",
	Run: func(pass *analysis.Pass) error {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || !strings.HasPrefix(fd.Name.Name, "Flag") {
						continue
					}
					pass.Reportf(fd.Name.Pos(), "flagged function %s in package %s", fd.Name.Name, pkg.Name)
				}
			}
		}
		return nil
	},
}

// TestMultiPackageFixture runs one golden pass over a fixture tree of two
// packages where `second` imports `first`: expectations in both packages
// must match, and the importing package must type-check against its
// sibling — the property every cross-package analyzer fixture (lockorder's
// core+cluster+transport) relies on.
func TestMultiPackageFixture(t *testing.T) {
	analysistest.Run(t, "testdata", flagAnalyzer)
}
