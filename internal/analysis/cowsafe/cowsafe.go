// Package cowsafe enforces the copy-on-write discipline of internal/state
// (PR 3): Capture returns O(1) views that share object buffers and the
// history tail with the live group, so the live side may never mutate
// shared memory in place.
//
// Fields are annotated in the source:
//
//   - //corona:cow marks live state that captures alias (Group.objects,
//     Group.history). Element writes into values reachable from such a
//     field are forbidden; installing a value into the field (map insert
//     or field assignment) requires a provably fresh buffer — a clone*/
//     Clone* call, make, a composite literal, nil, append-to-self (the
//     documented EventUpdate pattern: appends land past every captured
//     length), or append onto a fresh first argument. A bare re-slice
//     such as `g.history = g.history[idx:]` is rejected: it keeps the
//     shared backing array writable.
//
//   - //corona:cow-view marks the captured side (Transfer.objects,
//     Transfer.events). Inserting shared values is the whole point and is
//     allowed; element writes through the view are forbidden.
//
// The types cannot carry the discipline: a view shares the live group's
// []byte buffers, so both sides hold the same slice type, and a
// read-only slice is not a Go type. The taint walk follows the marked
// fields through locals, indexing, re-slicing, field access, comma-ok
// reads, var declarations and range statements, so `buf := g.objects[id];
// buf[0]++` is caught as surely as the direct write. The analyzer applies
// to every package named "state".
package cowsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/taint"
)

// Analyzer is the cowsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "cowsafe",
	Doc:  "forbids in-place mutation of COW-shared state buffers in internal/state",
	Run:  run,
}

// The labels of the two kinds of marked field, as the messages name them.
const (
	live = "COW-shared"        // //corona:cow: live state; captures alias it
	view = "captured COW view" // //corona:cow-view: shares live buffers
)

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Pkgs {
		if pkg.Name != "state" {
			continue
		}
		fields := markedFields(pkg)
		if len(fields) == 0 {
			continue
		}
		rules := &taint.Rules{
			Source: func(w *taint.Walker, e ast.Expr) string {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					return fields[w.Pkg.Info.Uses[sel.Sel]]
				}
				return ""
			},
			Store: func(w *taint.Walker, lhs, rhs ast.Expr, _ string) bool {
				return install(w, fields, lhs, rhs)
			},
			Writes: [...]string{
				taint.Assign: "write into %[1]s buffer %[2]s; captured views alias this memory",
				taint.IncDec: "in-place mutation of %[1]s buffer %[2]s; captured views may alias it",
				taint.Copy:   "copy into %[1]s buffer %[2]s; captured views may alias it",
				taint.Append: "append to %[1]s buffer %[2]s escapes; install the result back into the same field or build on a fresh base",
			},
		}
		taint.Funcs([]*analysis.Package{pkg}, func(pkg *analysis.Package, fd *ast.FuncDecl) {
			taint.Walk(pass, pkg, fd.Body, rules)
		})
	}
	return nil
}

// markedFields maps struct field objects to their label, collected from
// //corona:cow[-view] comments on the field declarations.
func markedFields(pkg *analysis.Package) map[types.Object]string {
	out := map[types.Object]string{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if field, ok := n.(*ast.Field); ok {
				for _, name := range field.Names {
					if m := fieldLabel(field); m != "" && pkg.Info.Defs[name] != nil {
						out[pkg.Info.Defs[name]] = m
					}
				}
			}
			return true
		})
	}
	return out
}

func fieldLabel(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, "corona:cow-view") {
				return view
			}
			if strings.Contains(c.Text, "corona:cow") {
				return live
			}
		}
	}
	return ""
}

// install judges a store into a marked field or into a map reached from
// one: a view takes any value, live state only a fresh one. Any other
// store is left to the walk.
func install(w *taint.Walker, fields map[types.Object]string, lhs, rhs ast.Expr) bool {
	field, label := lhs, ""
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		label = fields[w.Pkg.Info.Uses[l.Sel]]
	case *ast.IndexExpr:
		if t := w.Pkg.Info.TypeOf(l.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				field, label = l.X, w.Label(l.X)
			}
		}
	}
	if label == live && !w.Install(lhs, rhs) {
		w.Pass.Reportf(lhs.Pos(),
			"install into COW field %s must be a fresh buffer (clone, make, literal, nil, or append-to-self); %s may be shared with captured views",
			types.ExprString(field), types.ExprString(rhs))
	}
	return label != ""
}
