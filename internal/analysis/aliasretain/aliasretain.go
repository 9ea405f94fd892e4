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
//   - retention — storing an aliased slice into a struct field, a
//     package-level variable or through a pointer (*out = alias), or into a
//     map or slice held by one of those, all of which outlive the decode
//     call. Returning the value or placing it in
//     a composite literal, *out = Object{Data: alias} included, is the
//     documented handoff and stays legal: the alias contract travels with
//     the function's own doc comment.
//
// Conversely, functions annotated //corona:zerocopy form the
// TransferStream fast path whose whole purpose is not copying. Inside
// them, defensive copies — ByteCopy, bytes.Clone, or an append onto a
// fresh base such as append([]byte(nil), x...) — are flagged as
// regressions.
//
// The types cannot carry the contract: a []byte that aliases the input is
// the same type as one the caller owns, and what makes it borrowed is the
// call it came from. The taint walk follows that call's results through
// locals, indexing, re-slicing and container inserts; a byte or an int
// read out of them is a copy and is not followed. Annotations are
// collected program-wide, so misuse in core or transport is caught, not
// just in internal/wire.
package aliasretain

import (
	"go/ast"
	"go/types"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/taint"
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
	writeThrough = "write through slice aliasing the decode input (from %[1]s); the caller's buffer would be corrupted"
)

func run(pass *analysis.Pass) error {
	marked := map[*types.Func]bool{}
	taint.Funcs(pass.Pkgs, func(pkg *analysis.Package, fd *ast.FuncDecl) {
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && hasMarker(fd.Doc, markAliases) {
			marked[fn] = true
		}
	})
	rules := &taint.Rules{
		Source: func(w *taint.Walker, e ast.Expr) string { return source(w.Pkg, marked, e) },
		Store:  retain,
		Writes: [...]string{
			taint.Assign: writeThrough,
			taint.IncDec: writeThrough,
			taint.Copy:   "copy into slice aliasing the decode input (from %[1]s); the caller's buffer would be corrupted",
			taint.Append: "append building on slice aliasing the decode input (from %[1]s) may write into the shared buffer; clone first",
		},
	}
	taint.Funcs(pass.Pkgs, func(pkg *analysis.Package, fd *ast.FuncDecl) {
		taint.Walk(pass, pkg, fd.Body, rules)
		if hasMarker(fd.Doc, markZerocopy) {
			checkZerocopy(pass, pkg, fd.Body)
		}
	})
	return nil
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

// source returns the name of the aliases-input function e directly calls,
// or "".
func source(pkg *analysis.Package, marked map[*types.Func]bool, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn != nil && marked[fn] {
		return fn.Name()
	}
	return ""
}

// retain flags an alias stored where it outlives the decode call: a field,
// a package-level variable, through a pointer, or into a container held by
// one of those. An element of a local container is left to the walk, which
// labels the container.
func retain(w *taint.Walker, lhs, _ ast.Expr, label string) bool {
	if label == "" {
		return false
	}
	root := lhs
	for ix, ok := root.(*ast.IndexExpr); ok; ix, ok = root.(*ast.IndexExpr) {
		root = ast.Unparen(ix.X)
	}
	where := types.ExprString(lhs)
	if id, ok := root.(*ast.Ident); ok {
		if w.Pkg.Info.ObjectOf(id).Parent() != w.Pkg.Types.Scope() {
			return false
		}
		where = "package-level " + where
	}
	w.Pass.Reportf(lhs.Pos(), "slice aliasing the decode input (from %s) retained in %s; copy before storing", label, where)
	return true
}

// checkZerocopy flags defensive copies inside a //corona:zerocopy
// function: ByteCopy / Clone calls and appends onto a fresh base.
func checkZerocopy(pass *analysis.Pass, pkg *analysis.Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "ByteCopy" {
				pass.Reportf(call.Pos(), "needless copy on //corona:zerocopy path: ByteCopy defeats the zero-copy transfer contract")
			}
			if fun.Name == "append" && len(call.Args) > 1 && taint.Fresh(pkg.Info, call.Args[0], "") {
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
