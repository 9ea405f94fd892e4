// Package taint is the per-function walk the sharing analyzers share.
// aliasretain follows decode results that alias the caller's input;
// cowsafe follows state buffers that captured views alias. Both ask the
// same question of a function body: which values reach shared memory, and
// which statements write into it. The walk answers it once; each analyzer
// supplies only its Rules: what a source is, how a store out of the
// function is judged, and how a write is worded.
//
// The walk is flow-insensitive and intra-function. A value is labelled
// when it comes from a source or from a labelled value through an index,
// slice, field, dereference, address or receive chain, and the label
// follows it through :=, =, var declarations, multi-value and comma-ok
// forms, range keys and values, and inserts into a local container.
// Assigning an unlabelled value to a local clears its label. A value of
// basic type is a copy, and an error is not a buffer, so neither is ever
// labelled. A write into labelled memory is reported: an element, field
// or *p assignment, ++ and --, copy into it, and append onto it, except
// an append a rule approved with Install. A field or array element of a
// value the function holds itself (a local struct copy, not memory reached
// through a pointer, slice or map) is the function's own storage, and a
// write there is none.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corona/internal/analysis"
)

// A Kind is one way to write into labelled memory.
type Kind int

// The kinds of write, indexing Rules.Writes.
const (
	Assign Kind = iota // x[i] =, x.f =, *x =
	IncDec             // x[i]++, x[i]--
	Copy               // copy(x, ...)
	Append             // append(x, ...)
)

// Rules are what one analyzer adds to the walk.
type Rules struct {
	// Source returns the label of the shared memory e denotes itself, or
	// "": the walk follows everything derived from it.
	Source func(w *Walker, e ast.Expr) string
	// Store judges storing rhs, labelled label ("" when it shares
	// nothing), into lhs, a destination that is not a local variable: a
	// field, a package-level variable, *p or an element. It reports true
	// when it judged the store, and the walk then checks no write into
	// lhs's container.
	Store func(w *Walker, lhs, rhs ast.Expr, label string) bool
	// Writes are the messages for each Kind of write: %[1]s is the
	// label, %[2]s the memory written.
	Writes [4]string
}

// A Walker walks one function body.
type Walker struct {
	Pass   *analysis.Pass
	Pkg    *analysis.Package
	rules  *Rules
	labels map[types.Object]string
	// approved are the appends Install judged: installed back where they
	// build from, or built on a fresh base.
	approved map[*ast.CallExpr]bool
}

// Walk walks body under rules, reporting every write into labelled memory
// and whatever the rules report of the stores they judge.
func Walk(pass *analysis.Pass, pkg *analysis.Package, body *ast.BlockStmt, rules *Rules) {
	w := &Walker{Pass: pass, Pkg: pkg, rules: rules,
		labels: map[types.Object]string{}, approved: map[*ast.CallExpr]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			w.assign(lhs, n.Values)
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if v != nil {
					w.store(v, n.X, w.Label(n.X))
				}
			}
		case *ast.IncDecStmt:
			if !w.held(n.X) {
				w.report(IncDec, n.Pos(), n.X, w.Label(n.X))
			}
		case *ast.CallExpr:
			if len(n.Args) > 0 && !w.approved[n] {
				if isBuiltin(pkg.Info, n, "copy") {
					w.report(Copy, n.Pos(), n.Args[0], w.Label(n.Args[0]))
				} else if isBuiltin(pkg.Info, n, "append") {
					w.report(Append, n.Pos(), n.Args[0], w.Label(n.Args[0]))
				}
			}
		}
		return true
	})
}

// Funcs calls fn with every function declared with a body in pkgs: the
// bodies the sharing analyzers walk.
func Funcs(pkgs []*analysis.Package, fn func(*analysis.Package, *ast.FuncDecl)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn(pkg, fd)
				}
			}
		}
	}
}

// assign labels or judges each destination of lhs = rhs. A single
// right-hand side feeding several destinations (x, y, err := f(), and the
// comma-ok forms) gives each its label.
func (w *Walker) assign(lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		if len(rhs) == len(lhs) {
			w.store(l, rhs[i], w.Label(rhs[i]))
		} else if len(rhs) == 1 {
			w.store(l, rhs[0], w.Label(rhs[0]))
		}
	}
}

// store stores rhs, labelled label, into lhs.
func (w *Walker) store(lhs, rhs ast.Expr, label string) {
	lhs = ast.Unparen(lhs)
	if !carries(w.Pkg.Info.TypeOf(lhs)) {
		label = ""
	}
	var cont ast.Expr // the container lhs writes into
	switch l := lhs.(type) {
	case *ast.Ident:
		obj := w.Pkg.Info.ObjectOf(l)
		if obj == nil {
			return
		}
		if obj.Parent() != w.Pkg.Types.Scope() {
			if label != "" {
				w.labels[obj] = label
			} else {
				delete(w.labels, obj)
			}
			return
		}
	case *ast.SelectorExpr:
		cont = l.X
	case *ast.IndexExpr:
		cont = l.X
	case *ast.StarExpr:
		cont = l.X
	}
	if w.rules.Store(w, lhs, rhs, label) || cont == nil {
		return
	}
	if c := w.Label(cont); c != "" {
		if !w.held(lhs) {
			w.report(Assign, lhs.Pos(), lhs, c)
		}
	} else if id, ok := ast.Unparen(cont).(*ast.Ident); ok && label != "" {
		// Shared memory inserted into a local container shares it.
		w.labels[w.Pkg.Info.ObjectOf(id)] = label
	}
}

func (w *Walker) report(k Kind, pos token.Pos, dst ast.Expr, label string) {
	if label != "" {
		w.Pass.Reportf(pos, w.rules.Writes[k], label, types.ExprString(ast.Unparen(dst)))
	}
}

// held reports whether e is storage the function holds itself: a local
// variable, or a field or array element of one reached without a pointer.
func (w *Walker) held(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := w.Pkg.Info.ObjectOf(e).(*types.Var)
		return ok && v.Parent() != w.Pkg.Types.Scope()
	case *ast.SelectorExpr:
		sel := w.Pkg.Info.Selections[e]
		return sel != nil && sel.Kind() == types.FieldVal && !sel.Indirect() && w.held(e.X)
	case *ast.IndexExpr:
		if t := w.Pkg.Info.TypeOf(e.X); t != nil {
			_, array := t.Underlying().(*types.Array)
			return array && w.held(e.X)
		}
	}
	return false
}

// Label returns the label of the shared memory e reaches, or "".
func (w *Walker) Label(e ast.Expr) string {
	e = ast.Unparen(e)
	if l := w.rules.Source(w, e); l != "" {
		return l
	}
	switch e := e.(type) {
	case *ast.Ident:
		return w.labels[w.Pkg.Info.Uses[e]]
	case *ast.SelectorExpr:
		return w.Label(e.X)
	case *ast.IndexExpr:
		return w.Label(e.X)
	case *ast.SliceExpr:
		return w.Label(e.X)
	case *ast.StarExpr:
		return w.Label(e.X)
	case *ast.UnaryExpr:
		return w.Label(e.X)
	}
	return ""
}

// Install reports whether rhs is Fresh enough to install at lhs, building
// on lhs itself or on nothing shared; an append it approves is no write.
func (w *Walker) Install(lhs, rhs ast.Expr) bool {
	ok := Fresh(w.Pkg.Info, rhs, types.ExprString(lhs))
	if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); ok && isCall {
		w.approved[call] = true
	}
	return ok
}

// Fresh reports whether e provably shares no memory: nil, a composite
// literal, a make, new or clone*/Clone* call, a conversion of a fresh
// value, or an append building on a fresh value or on the expression
// written self ("" for none).
func Fresh(info *types.Info, e ast.Expr, self string) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && Fresh(info, e.Args[0], "")
		}
		if isBuiltin(info, e, "append") {
			return len(e.Args) > 0 && (self != "" && types.ExprString(ast.Unparen(e.Args[0])) == self || Fresh(info, e.Args[0], ""))
		}
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return fun.Name == "make" || fun.Name == "new" || cloneName(fun.Name)
		case *ast.SelectorExpr:
			return cloneName(fun.Sel.Name)
		}
	}
	return false
}

func cloneName(name string) bool {
	return strings.HasPrefix(name, "clone") || strings.HasPrefix(name, "Clone")
}

// carries reports whether a value of type t can reach shared memory: a
// basic value is a copy, and an error is not a buffer.
func carries(t types.Type) bool {
	if t == nil {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic && t.String() != "error"
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
