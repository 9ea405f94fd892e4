// Package obshygiene keeps the observability surface auditable and off
// the hot paths. It applies to every call of Counter/Gauge/Histogram on
// an obs.Registry (any package named "obs") and enforces three rules:
//
//  1. Metric names are compile-time string constants. A dynamic name
//     cannot be grepped for, collides unpredictably, and usually means a
//     per-entity instrument leak.
//  2. Names are globally unique across the program: two call sites
//     registering the same name silently share one instrument and
//     corrupt each other's readings.
//  3. Registration happens at setup — package-level var initializers,
//     init functions, or constructors (New*/new*/Open*/open*) — never on
//     a request path, where the get-or-create lookup adds a lock and a
//     map access per call. Resolve the instrument once and store it.
//
// The obs package itself is exempt (its internals necessarily handle
// names as values). There is no other exception: a per-group instrument,
// unbounded and dynamically named, is a finding like any other.
package obshygiene

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"corona/internal/analysis"
)

// Analyzer is the obshygiene checker.
var Analyzer = &analysis.Analyzer{
	Name: "obshygiene",
	Doc:  "requires constant, globally unique metric names registered once at setup",
	Run:  run,
}

var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// site is one registration call.
type site struct {
	pos     token.Pos
	method  string
	name    string // constant value, if constant
	isConst bool
	ctxOK   bool
	ctx     string // human description of the calling context
}

func run(pass *analysis.Pass) error {
	var sites []site
	for _, pkg := range pass.Pkgs {
		if pkg.Name == "obs" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					collect(pkg, d, true, "package-level var", &sites)
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					ok, desc := setupContext(d)
					collect(pkg, d.Body, ok, desc, &sites)
				}
			}
		}
	}

	// R1 (constant names) and R3 (setup context) are per-site.
	for _, s := range sites {
		if !s.isConst {
			pass.Reportf(s.pos, "obs.%s name must be a compile-time constant; dynamic metric names defeat auditing and leak instruments", s.method)
			continue
		}
		if !s.ctxOK {
			pass.Reportf(s.pos, "obs.%s(%q) called in %s; resolve instruments once at setup (New*/init/package var) and store them — registration locks on every call", s.method, s.name, s.ctx)
		}
	}

	// R2: global uniqueness of constant names.
	byName := map[string][]site{}
	for _, s := range sites {
		if s.isConst {
			byName[s.name] = append(byName[s.name], s)
		}
	}
	for _, group := range byName {
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].pos < group[j].pos })
		first := pass.Fset.Position(group[0].pos)
		for _, s := range group[1:] {
			pass.Reportf(s.pos, "metric name %q already registered at %s; instrument names must be globally unique", s.name, first)
		}
	}
	return nil
}

// setupContext classifies a function as a legitimate registration site.
func setupContext(d *ast.FuncDecl) (bool, string) {
	name := d.Name.Name
	if name == "init" {
		return true, "init"
	}
	for _, p := range []string{"New", "new", "Open", "open"} {
		if strings.HasPrefix(name, p) {
			return true, "constructor"
		}
	}
	kind := "function"
	if d.Recv != nil {
		kind = "method"
	}
	return false, fmt.Sprintf("%s %s", kind, name)
}

// collect records every Registry registration call under root.
func collect(pkg *analysis.Package, root ast.Node, ctxOK bool, ctx string, sites *[]site) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !registryMethods[sel.Sel.Name] {
			return true
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok {
			return true
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok || !isRegistry(s.Recv()) || len(call.Args) == 0 {
			return true
		}
		st := site{pos: call.Pos(), method: fn.Name(), ctxOK: ctxOK, ctx: ctx}
		if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			st.isConst = true
			st.name = constant.StringVal(tv.Value)
		}
		*sites = append(*sites, st)
		return true
	})
}

// isRegistry reports whether t is (a pointer to) obs.Registry, for any
// package named obs.
func isRegistry(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Registry" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "obs"
}
