// Package atomicsafe checks that every shared field is accessed through
// exactly one synchronization discipline.
//
// Two checks, one rule — a field's readers and writers must agree on how
// the field is protected:
//
//  1. Typed atomics only. A call of a sync/atomic function (AddInt64,
//     LoadUint64, ...) is reported: a plain value handed to those
//     functions can still be loaded or stored plainly elsewhere, and the
//     race detector only catches that when both sides collide under test.
//     A typed atomic (atomic.Int64, ...) admits no plain access at all.
//
//  2. Guarded fields left unguarded. A field whose writes all happen
//     under its owner's mutex is a mutex-guarded field; reading it
//     without that mutex (or writing it on one sneaky path) observes
//     torn or stale state. The guard is inferred, not declared: a write
//     under a held `owner.mu` span pins the discipline, and every other
//     access must either hold the same identity or sit in a function
//     whose contract says the caller does — the repo-wide `...Locked`
//     suffix and "Caller holds" doc conventions.
//
// The analysis is type-based like lockorder's: the guard of one
// groupRuntime covers every groupRuntime. Constructors (New*, init) are
// exempt — pre-publication writes need no lock — but a literal a
// constructor stores runs after publication and is checked like any other
// root (lockid.Roots). Fields that are
// themselves synchronization values (sync.Mutex, sync.WaitGroup, typed
// atomics) carry their own discipline and are skipped.
package atomicsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/callgraph"
	"corona/internal/analysis/lockid"
)

// Analyzer is the atomicsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicsafe",
	Doc:  "flags sync/atomic function calls, and lock-free access to mutex-guarded fields",
	Run:  run,
}

// scoped are the packages whose accesses are checked. Matches lockorder:
// the invariant surface of the delivery pipeline.
func scoped(name string) bool {
	switch name {
	case "core", "cluster", "transport", "placement":
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		writes:   map[*ast.SelectorExpr]bool{},
		accesses: map[*types.Var][]access{},
		owners:   map[*types.Var]*types.Named{},
	}
	for _, pkg := range pass.Pkgs {
		if scoped(pkg.Name) {
			reportAtomicCalls(pass, pkg)
		}
	}
	lockid.Roots(pass.Pkgs, scoped, func(pkg *analysis.Package, fd *ast.FuncDecl) lockid.Visitor {
		w := &walker{checker: c, pkg: pkg}
		if fd != nil {
			w.exempt, w.contract = isConstructor(fd), hasContract(fd)
		}
		return w
	})
	c.reportUnguarded()
	return nil
}

// access is one read or write of a struct field at a specific site.
type access struct {
	pos   token.Pos
	write bool
	// held is the owner-guard identity held at the site, "" if none.
	held string
	// contract marks sites inside functions whose name or doc promises
	// the caller holds the guard (FooLocked, "Caller holds ...").
	contract bool
}

type checker struct {
	pass *analysis.Pass
	// writes marks the selector nodes that are written: assignment and
	// inc/dec targets, the field under an element write or a delete.
	writes map[*ast.SelectorExpr]bool
	// accesses records every field access in scoped packages.
	accesses map[*types.Var][]access
	owners   map[*types.Var]*types.Named
}

// ---- check 1: sync/atomic functions --------------------------------------

// reportAtomicCalls reports every call of a sync/atomic function in pkg;
// the typed atomics' methods are the discipline itself.
func reportAtomicCalls(pass *analysis.Pass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "sync/atomic.%s on a plain value: use a typed atomic", fn.Name())
			}
			return true
		})
	}
}

// ---- check 2: mutex-guarded fields ---------------------------------------

func (c *checker) reportUnguarded() {
	for v, accs := range c.accesses {
		// The discipline is pinned by direct evidence: at least one write
		// under a held owner guard. All such writes must agree on one
		// guard identity; if they don't, the field has no single guard
		// and is skipped.
		guard := ""
		conflicted := false
		for _, a := range accs {
			if a.write && a.held != "" {
				if guard == "" {
					guard = a.held
				} else if guard != a.held {
					conflicted = true
				}
			}
		}
		if guard == "" || conflicted {
			continue
		}
		// A write outside the guard breaks the discipline outright and is
		// the sharpest diagnostic; reads are only trustworthy once every
		// write is covered.
		plainWrite := false
		for _, a := range accs {
			if a.write && a.held == "" && !a.contract {
				c.pass.Reportf(a.pos, "write to %q without %q, which guards every other write", lockid.FieldIdent(c.owners[v], v.Name()), guard)
				plainWrite = true
			}
		}
		if plainWrite {
			continue
		}
		for _, a := range accs {
			if !a.write && a.held == "" && !a.contract {
				c.pass.Reportf(a.pos, "read of %q without %q, which guards every write to it", lockid.FieldIdent(c.owners[v], v.Name()), guard)
			}
		}
	}
}

// ---- access collection ----------------------------------------------------

// isConstructor matches functions whose writes precede publication.
func isConstructor(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// hasContract reports whether the function declares that its caller holds
// the relevant lock: the ...Locked naming convention or a "Caller holds"
// doc line.
func hasContract(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	return fd.Doc != nil && strings.Contains(fd.Doc.Text(), "aller holds")
}

// walker records the field accesses of one root with the guards held at
// each. A constructor's own accesses are exempt (pre-publication); the
// literals it stores run later, as roots of their own. A literal root
// carries no contract: its caller's promises do not transfer.
type walker struct {
	*checker
	pkg      *analysis.Package
	exempt   bool
	contract bool
}

func (w *walker) Acquire(token.Pos, lockid.Lock, lockid.Held) {}

func (w *walker) Node(n ast.Node, held lockid.Held) bool {
	if w.exempt {
		return true
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.markWrite(lhs)
		}
	case *ast.IncDecStmt:
		w.markWrite(n.X)
	case *ast.CallExpr:
		// delete(x.f, k) mutates the map held by f.
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
			_, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin)
			if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok && isBuiltin {
				w.writes[sel] = true
			}
		}
	case *ast.SelectorExpr:
		w.record(n, held, w.writes[n])
		// Keep walking: the base of x.f.g is itself an access.
	}
	return true
}

// markWrite marks the field an assignment target writes. Mutating an
// element of a field-held map or slice (x.f[k] = v) counts as a write to
// the field: the race is the same.
func (w *walker) markWrite(lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		w.writes[lhs] = true
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok {
			w.writes[sel] = true
		}
	}
}

// record notes one access of a struct field, if it is one worth tracking.
func (w *walker) record(sel *ast.SelectorExpr, held lockid.Held, write bool) {
	v, owner := w.trackedField(sel)
	if v == nil {
		return
	}
	w.owners[v] = owner
	w.accesses[v] = append(w.accesses[v], access{
		pos:      sel.Sel.Pos(),
		write:    write,
		held:     heldGuard(owner, held),
		contract: w.contract,
	})
}

// trackedField resolves a selector to a struct field of a named type,
// skipping fields that carry their own synchronization.
func (w *walker) trackedField(sel *ast.SelectorExpr) (*types.Var, *types.Named) {
	s, ok := w.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	owner, ok := callgraph.Deref(s.Recv()).(*types.Named)
	if !ok || owner.Obj().Pkg() == nil || !scoped(owner.Obj().Pkg().Name()) {
		return nil, nil
	}
	if selfSynced(v.Type()) {
		return nil, nil
	}
	return v, owner
}

// selfSynced reports types that synchronize themselves: the sync package's
// primitives and the typed atomics.
func selfSynced(t types.Type) bool {
	n, ok := callgraph.Deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// heldGuard returns the identity of an owner mutex field currently held.
func heldGuard(owner *types.Named, held lockid.Held) string {
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !lockid.IsMutex(f.Type()) {
			continue
		}
		if id := lockid.FieldIdent(owner, f.Name()); held.Holds(id) {
			return id
		}
	}
	return ""
}
