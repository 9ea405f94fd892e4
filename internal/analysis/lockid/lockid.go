// Package lockid names mutexes and walks the spans they are held over, for
// the whole-program analyzers. lockhold checks what the spans block on;
// lockorder ranks the identities against the sanctioned hierarchy;
// atomicsafe uses them to tie mutex-guarded fields to the guard that
// covers their writes. All three walk with Roots and Walk, so they agree
// on what runs on which stack under which locks.
//
// The identity is type-based, not instance-based: every groupRuntime's mu
// is "core.groupRuntime.mu". That is exactly the granularity a lock
// hierarchy is declared at, and it is what makes one table cover every
// group, shard, and pump the engine ever allocates.
package lockid

import (
	"go/ast"
	"go/types"

	"corona/internal/analysis"
	"corona/internal/analysis/callgraph"
)

// Op matches x.Lock / RLock / Unlock / RUnlock on a sync.Mutex or
// sync.RWMutex and resolves the receiver to its identity and text.
func Op(pkg *analysis.Package, e ast.Expr) (l Lock, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return Lock{}, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return Lock{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return Lock{}, "", false
	}
	s, isMethod := pkg.Info.Selections[sel]
	if !isMethod || !IsMutex(s.Recv()) {
		return Lock{}, "", false
	}
	return Lock{ID: Ident(pkg, sel.X), Text: types.ExprString(sel.X)}, sel.Sel.Name, true
}

// IsMutex reports whether t (possibly behind a pointer) is sync.Mutex or
// sync.RWMutex.
func IsMutex(t types.Type) bool {
	n, ok := callgraph.Deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// Ident names a mutex operand: package.Type.field for struct-field locks,
// package.var for package-level locks, local:name for everything else.
// FieldIdent builds the same form for an owner type and field name, so a
// guard declared from a struct definition matches a held-set entry.
func Ident(pkg *analysis.Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			owner := callgraph.Deref(s.Recv())
			if n, ok := owner.(*types.Named); ok && n.Obj().Pkg() != nil {
				return FieldIdent(n, e.Sel.Name)
			}
		}
		// Package-qualified variable (pkg.mu).
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return "local:" + obj.Name()
		}
	}
	return "expr:" + types.ExprString(e)
}

// FieldIdent renders the identity of a named type's field.
func FieldIdent(owner *types.Named, field string) string {
	return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + field
}
