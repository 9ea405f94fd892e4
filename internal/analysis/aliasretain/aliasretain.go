// Package aliasretain polices the wire codec's zero-copy contract from
// both sides.
//
// Decode functions annotated //corona:aliases-input (Codec.BytesAlias,
// DecodeObjectsAlias, decodeTransferPayload, …) return slices that alias
// the caller's input buffer. Callers therefore must treat the results as
// borrowed: the analyzer flags
//
//   - mutation — element writes, copy-into, or appends building on an
//     aliased slice, all of which can scribble on the shared buffer;
//   - retention — storing an aliased slice into a struct field or a
//     package-level variable, which outlives the decode call. Returning
//     the value or placing it in a composite literal is the documented
//     handoff and stays legal: the alias contract travels with the
//     function's own doc comment.
//
// Conversely, functions annotated //corona:zerocopy form the
// TransferStream fast path whose whole purpose is not copying. Inside
// them, defensive copies — ByteCopy, bytes.Clone, or the
// append([]byte(nil), x...) clone idiom — are flagged as regressions.
//
// Taint is tracked intra-function through locals, indexing, re-slicing,
// and container inserts; annotations are collected program-wide, so
// misuse in core or transport is caught, not just in internal/wire.
package aliasretain

import (
	"go/ast"
	"go/types"
	"strings"

	"corona/internal/analysis"
)

// Analyzer is the aliasretain checker.
var Analyzer = &analysis.Analyzer{
	Name: "aliasretain",
	Doc:  "flags retention or mutation of decode-buffer aliases, and needless copies on the zero-copy path",
	Run:  run,
}

const (
	markAliases  = "corona:aliases-input"
	markZerocopy = "corona:zerocopy"
)

func run(pass *analysis.Pass) error {
	marked := map[*types.Func]bool{}
	var zerocopy []bodyIn
	var all []bodyIn
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b := bodyIn{pkg: pkg, decl: fd}
				all = append(all, b)
				if hasMarker(fd.Doc, markAliases) {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						marked[fn] = true
					}
				}
				if hasMarker(fd.Doc, markZerocopy) {
					zerocopy = append(zerocopy, b)
				}
			}
		}
	}
	for _, b := range all {
		w := &walker{pass: pass, pkg: b.pkg, marked: marked, taint: map[types.Object]string{}}
		w.walk(b.decl.Body)
	}
	for _, b := range zerocopy {
		checkZerocopy(pass, b)
	}
	return nil
}

type bodyIn struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// walker tracks which locals alias a decode input within one function.
type walker struct {
	pass   *analysis.Pass
	pkg    *analysis.Package
	marked map[*types.Func]bool
	taint  map[types.Object]string // object → originating marked function
}

func (w *walker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.RangeStmt:
			if org := w.origin(n.X); org != "" {
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
						if obj := w.pkg.Info.Defs[id]; obj != nil {
							w.taint[obj] = org
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if org := w.origin(n.X); org != "" {
				w.pass.Reportf(n.Pos(), "write through slice aliasing the decode input (from %s); the caller's buffer would be corrupted", org)
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *walker) assign(a *ast.AssignStmt) {
	// Multi-value form: x, y, err := decodeTransferPayload(data) taints
	// every non-error result.
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		if org := w.callOrigin(a.Rhs[0]); org != "" {
			for _, lhs := range a.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := w.defOrUse(id); obj != nil && !isErr(obj) {
						w.taint[obj] = org
					}
				}
			}
		}
		return
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i := range a.Lhs {
		lhs, rhs := a.Lhs[i], a.Rhs[i]
		org := w.origin(rhs)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := w.defOrUse(l)
			if obj == nil {
				continue
			}
			if org != "" {
				if obj.Parent() == w.pkg.Types.Scope() {
					w.pass.Reportf(a.Pos(), "slice aliasing the decode input (from %s) retained in package-level %s; copy before storing", org, l.Name)
					continue
				}
				w.taint[obj] = org
			} else {
				delete(w.taint, obj)
			}
		case *ast.SelectorExpr:
			if org != "" {
				w.pass.Reportf(a.Pos(), "slice aliasing the decode input (from %s) retained in %s; copy before storing", org, types.ExprString(lhs))
				continue
			}
			if base := w.origin(l.X); base != "" {
				w.pass.Reportf(a.Pos(), "write through slice aliasing the decode input (from %s); the caller's buffer would be corrupted", base)
			}
		case *ast.IndexExpr:
			if base := w.origin(l.X); base != "" {
				w.pass.Reportf(a.Pos(), "write through slice aliasing the decode input (from %s); the caller's buffer would be corrupted", base)
				continue
			}
			// Inserting a tainted value into a local container taints the
			// container: the alias now travels with it.
			if org != "" {
				if id, ok := innerIdent(l.X); ok {
					if obj := w.defOrUse(id); obj != nil {
						w.taint[obj] = org
					}
				}
			}
		}
	}
}

func (w *walker) call(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				if len(call.Args) == 2 {
					if org := w.origin(call.Args[0]); org != "" {
						w.pass.Reportf(call.Pos(), "copy into slice aliasing the decode input (from %s); the caller's buffer would be corrupted", org)
					}
				}
			case "append":
				if len(call.Args) > 0 {
					if org := w.origin(call.Args[0]); org != "" {
						w.pass.Reportf(call.Pos(), "append building on slice aliasing the decode input (from %s) may write into the shared buffer; clone first", org)
					}
				}
			}
		}
	}
}

// callOrigin reports whether e is a direct call to an aliases-input
// function, returning that function's name.
func (w *walker) callOrigin(e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = w.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[fun]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = w.pkg.Info.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn != nil && w.marked[fn] {
		return fn.Name()
	}
	return ""
}

// origin reports the marked function an expression's memory traces back
// to, or "".
func (w *walker) origin(e ast.Expr) string {
	if org := w.callOrigin(e); org != "" {
		return org
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[e]; obj != nil {
			return w.taint[obj]
		}
	case *ast.SelectorExpr:
		return w.origin(e.X)
	case *ast.IndexExpr:
		return w.origin(e.X)
	case *ast.SliceExpr:
		return w.origin(e.X)
	case *ast.StarExpr:
		return w.origin(e.X)
	case *ast.UnaryExpr:
		return w.origin(e.X)
	}
	return ""
}

func (w *walker) defOrUse(id *ast.Ident) types.Object {
	if obj := w.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.pkg.Info.Uses[id]
}

func innerIdent(e ast.Expr) (*ast.Ident, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return id, ok
}

func isErr(obj types.Object) bool {
	return obj.Type() != nil && obj.Type().String() == "error"
}

// checkZerocopy flags defensive copies inside a //corona:zerocopy
// function: ByteCopy / bytes.Clone calls and append-onto-fresh-base
// clone idioms.
func checkZerocopy(pass *analysis.Pass, b bodyIn) {
	ast.Inspect(b.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "ByteCopy" {
				pass.Reportf(call.Pos(), "needless copy on //corona:zerocopy path: ByteCopy defeats the zero-copy transfer contract")
			}
			if b, ok := b.pkg.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 1 && isFreshSliceBase(call.Args[0]) {
				pass.Reportf(call.Pos(), "needless copy on //corona:zerocopy path: append onto a fresh base clones the buffer")
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Clone" || fun.Sel.Name == "ByteCopy" {
				pass.Reportf(call.Pos(), "needless copy on //corona:zerocopy path: %s defeats the zero-copy transfer contract", types.ExprString(fun))
			}
		}
		return true
	})
}

func isFreshSliceBase(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr: // conversion like []byte(nil)
		if len(e.Args) == 1 {
			if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
				return id.Name == "nil"
			}
		}
	}
	return false
}
