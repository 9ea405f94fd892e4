// Package analysistest runs an analyzer over a source fixture tree and
// checks its findings against expectations embedded in the fixtures, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture tree is testdata/src/<pkg>/*.go; fixture packages may import
// one another by their path under src. An expected finding is declared on
// the offending line:
//
//	g.objects["x"][0] = 1 // want "write into COW-shared buffer"
//
// The quoted string is a regular expression matched against the
// diagnostic message. Every diagnostic must be matched by a want and
// every want by a diagnostic, so a line without a want proves the
// analyzer stays silent on it.
//
// The analyzers guard the engine's invariants, so their fixtures are their
// proof: a fixture edit changes a file the test reads, and go test re-runs
// the analyzer's test for it rather than reporting a cached pass.
package analysistest

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"corona/internal/analysis"
)

// wantRE matches one quoted expectation pattern: backquoted (the usual
// form, since diagnostic messages themselves contain double quotes) or
// double-quoted.
var wantRE = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture tree rooted at testdata, applies the analyzer,
// and reports mismatches between findings and // want expectations on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer) {
	t.Helper()
	prog, err := analysis.LoadFixture(testdata)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, prog)
	for _, d := range diags {
		if !match(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched `want %q`", w.file, w.line, w.re)
		}
	}
}

func match(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants extracts every `// want "re" ...` expectation from the
// fixture comments.
func collectWants(t *testing.T, prog *analysis.Program) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, prog, c)...)
				}
			}
		}
	}
	return wants
}

func parseWants(t *testing.T, prog *analysis.Program, c *ast.Comment) []*want {
	t.Helper()
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, "want ") {
		return nil
	}
	pos := prog.Fset.Position(c.Pos())
	var out []*want
	for _, m := range wantRE.FindAllString(text[len("want "):], -1) {
		pat, err := strconv.Unquote(m)
		if err != nil {
			t.Fatalf("%s: bad want expectation %s: %v", pos, m, err)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s: `want` comment with no quoted pattern", pos)
	}
	return out
}
