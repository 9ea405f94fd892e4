// Package callgraph is the shared call-resolution layer under the
// whole-program analyzers (lockhold, lockorder). It indexes every function
// declared in the analyzed program and resolves call expressions to the
// functions they may invoke:
//
//   - static calls (identifier or package-qualified) to their declaration;
//   - interface method calls to every implementation in the program, with
//     the interface method itself kept as a candidate so stdlib interfaces
//     classify by name even without an analyzed implementation;
//   - calls through stored func-typed struct fields (the engine's Hooks,
//     the WAL's completion callbacks) to every function value assigned to
//     that field anywhere in the program — by field assignment, composite
//     literal, or keyed literal element. This closed what lockhold's
//     original implementation documented as its one acknowledged hole.
//
// Calls through plain func-typed locals and parameters remain unresolved:
// without a heap model their value set is unbounded, and the repo's
// conventions route long-lived behaviour through fields, not loose values.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/types"

	"corona/internal/analysis"
)

// A Target is one possible callee: either a declared function (Fn non-nil)
// or an anonymous function literal (Lit non-nil) stored into a func-typed
// field.
type Target struct {
	Fn  *types.Func
	Lit *ast.FuncLit
	Pkg *analysis.Package // owning package (always set for Lit, nil for Fn without a body)
}

// Name renders the target for diagnostics.
func (t Target) Name() string {
	if t.Fn != nil {
		return FuncName(t.Fn)
	}
	return "func literal"
}

// A Body is one analyzed function body and its owning package.
type Body struct {
	Pkg  *analysis.Package
	Decl *ast.FuncDecl
}

// Graph indexes the program's functions, named types, and func-field
// assignments for call resolution.
type Graph struct {
	// Bodies maps every function declared in the program to its body.
	Bodies map[*types.Func]*Body
	// named lists the program's named types, for interface resolution.
	named []*types.Named
	// fieldFuncs maps a func-typed struct field to every function value
	// the program stores into it.
	fieldFuncs map[*types.Var][]Target
}

// New builds the graph over the whole analyzed program.
func New(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		Bodies:     map[*types.Func]*Body{},
		fieldFuncs: map[*types.Var][]Target{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.Bodies[fn] = &Body{Pkg: pkg, Decl: fd}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, n)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		g.collectFieldFuncs(pkg)
	}
	return g
}

// collectFieldFuncs records every function value the package stores into a
// func-typed struct field, via assignment or composite literal.
func (g *Graph) collectFieldFuncs(pkg *analysis.Package) {
	record := func(obj types.Object, rhs ast.Expr) {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		if t, ok := g.funcValue(pkg, rhs); ok {
			g.fieldFuncs[v] = append(g.fieldFuncs[v], t)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
						record(obj, n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if obj := pkg.Info.Uses[key]; obj != nil {
						record(obj, kv.Value)
					}
				}
			}
			return true
		})
	}
}

// funcValue resolves an expression used as a stored function value.
func (g *Graph) funcValue(pkg *analysis.Package, e ast.Expr) (Target, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return Target{Lit: e, Pkg: pkg}, true
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return Target{Fn: fn}, true
		}
	case *ast.SelectorExpr:
		// Method value (x.Method) or package-qualified function.
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return Target{Fn: fn}, true
		}
	}
	return Target{}, false
}

// Callees resolves a call to the targets it may invoke: one for a static
// call, every analyzed implementation for an interface method call, every
// stored value for a func-typed field call, none for calls through plain
// function-typed locals.
func (g *Graph) Callees(pkg *analysis.Package, call *ast.CallExpr) []Target {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []Target{{Fn: fn}}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				// Function-typed field: resolve against every value the
				// program stores into it.
				if v, ok := sel.Obj().(*types.Var); ok {
					return g.fieldFuncs[v]
				}
				return nil
			}
			if sel.Kind() == types.MethodVal && types.IsInterface(Deref(sel.Recv())) {
				return g.Implementations(Deref(sel.Recv()).Underlying().(*types.Interface), fn)
			}
			return []Target{{Fn: fn}}
		}
		// Package-qualified call (fmt.Println).
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []Target{{Fn: fn}}
		}
	}
	return nil
}

// Implementations returns the concrete methods the interface method m may
// dispatch to: for every named type of the analyzed program implementing
// iface, the method with m's name. The interface method itself is kept as
// a candidate so stdlib interfaces (io.Writer, net.Conn) classify by name
// even with no analyzed implementation.
func (g *Graph) Implementations(iface *types.Interface, m *types.Func) []Target {
	out := []Target{{Fn: m}}
	for _, n := range g.named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, Target{Fn: fn})
		}
	}
	return out
}

// Deref unwraps one level of pointer type.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// FuncName renders a function with its receiver for diagnostics.
func FuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// A Summary memoises one fold over the call graph: the value of each call
// target is computed once, by Body from the body the program declares for
// it, and by Leaf for a function with none (the zero value if Leaf is
// nil). A target reached again while its own value is being computed
// gives the zero value: a recursion cycle adds nothing that its first
// visit does not find.
type Summary[T any] struct {
	Graph *Graph
	Body  func(pkg *analysis.Package, body *ast.BlockStmt) T
	Leaf  func(fn *types.Func) T
	memo  map[Target]T
	busy  map[Target]bool
}

// Of returns the summary of one call target.
func (s *Summary[T]) Of(t Target) T {
	if v, ok := s.memo[t]; ok {
		return v
	}
	var v T
	if s.busy[t] {
		return v
	}
	if s.memo == nil {
		s.memo, s.busy = map[Target]T{}, map[Target]bool{}
	}
	pkg, body := t.Pkg, (*ast.BlockStmt)(nil)
	if t.Lit != nil {
		body = t.Lit.Body
	} else if b, ok := s.Graph.Bodies[t.Fn]; ok {
		pkg, body = b.Pkg, b.Decl.Body
	}
	switch {
	case body != nil:
		s.busy[t] = true
		v = s.Body(pkg, body)
		delete(s.busy, t)
	case s.Leaf != nil:
		v = s.Leaf(t.Fn)
	}
	s.memo[t] = v
	return v
}
