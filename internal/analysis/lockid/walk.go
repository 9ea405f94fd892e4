package lockid

import (
	"go/ast"
	"go/token"

	"corona/internal/analysis"
)

// A Lock is one mutex held at a program point.
type Lock struct {
	ID   string // type-based identity, "core.Engine.mu"
	Text string // the receiver as written, "e.mu"
	// DeferredUnlock is set once `defer x.Unlock()` has been seen: the
	// lock is held to the end of the function.
	DeferredUnlock bool
	// InDefer is set inside a call deferred while the lock was held with
	// its unlock deferred already: the call runs at function exit, before
	// that unlock (LIFO).
	InDefer bool
}

// Held is the set of locks held at a program point, innermost last.
type Held []Lock

// Holds reports whether a lock of identity id is held.
func (h Held) Holds(id string) bool {
	for _, l := range h {
		if l.ID == id {
			return true
		}
	}
	return false
}

func (h Held) clone() Held { return append(Held(nil), h...) }

// find returns the index of the innermost lock taken through the same
// receiver text, or failing that of the same identity; -1 if none.
func (h Held) find(l Lock) int {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Text == l.Text {
			return i
		}
	}
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].ID == l.ID {
			return i
		}
	}
	return -1
}

// A Visitor is told what a walk sees, with the locks held at each point.
type Visitor interface {
	// Acquire sees a Lock or RLock statement before l joins held.
	Acquire(pos token.Pos, l Lock, held Held)
	// Node sees every statement the walk enters and every node of an
	// expression it evaluates on this stack, parent before children.
	// Returning false skips an expression node's children.
	Node(n ast.Node, held Held) bool
}

// Walk walks one function body from an empty held set. A function literal
// in it runs here when it is invoked in place or deferred, and its body is
// walked where it stands; a literal launched by go or kept for later is
// not walked.
func Walk(pkg *analysis.Package, body *ast.BlockStmt, v Visitor) {
	walk(pkg, body, v, nil)
}

// Roots walks every function declared in the scoped packages, then every
// function literal in them that no walk reached in place, each from an
// empty held set: a goroutine body or a stored callback runs on a stack of
// its own. visit returns the visitor for one root, fd nil for a literal;
// a nil visitor skips the root.
func Roots(pkgs []*analysis.Package, scoped func(name string) bool, visit func(pkg *analysis.Package, fd *ast.FuncDecl) Visitor) {
	inPlace := map[*ast.FuncLit]bool{}
	for _, pkg := range pkgs {
		if !scoped(pkg.Name) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					walk(pkg, fd.Body, visit(pkg, fd), inPlace)
				}
			}
		}
	}
	// Enclosing literals come before nested ones, so a literal walked in
	// place inside another root is marked before the sweep reaches it.
	for _, pkg := range pkgs {
		if !scoped(pkg.Name) {
			continue
		}
		var lits []*ast.FuncLit
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
				return true
			})
		}
		for _, lit := range lits {
			if !inPlace[lit] {
				inPlace[lit] = true
				walk(pkg, lit.Body, visit(pkg, nil), inPlace)
			}
		}
	}
}

func walk(pkg *analysis.Package, body *ast.BlockStmt, v Visitor, inPlace map[*ast.FuncLit]bool) {
	if v == nil {
		return
	}
	w := &walker{pkg: pkg, v: v, inPlace: inPlace}
	var h Held
	w.stmts(body.List, &h)
}

type walker struct {
	pkg *analysis.Package
	v   Visitor
	// inPlace marks the literals walked where they stand, so Roots does
	// not walk them again; nil outside Roots.
	inPlace map[*ast.FuncLit]bool
}

// lit walks a literal's body where it stands, from held.
func (w *walker) lit(lit *ast.FuncLit, held Held) {
	if w.inPlace != nil {
		w.inPlace[lit] = true
	}
	w.stmts(lit.Body.List, &held)
}

// stmts walks a statement list, keeping *h to the locks held after each
// statement. A branch works on a copy: what it takes or releases does not
// outlive it.
func (w *walker) stmts(list []ast.Stmt, h *Held) {
	for _, s := range list {
		w.stmt(s, h)
	}
}

func (w *walker) stmt(s ast.Stmt, h *Held) {
	if s == nil {
		return
	}
	if es, ok := s.(*ast.ExprStmt); ok {
		if l, op, ok := Op(w.pkg, es.X); ok {
			switch op {
			case "Lock", "RLock":
				w.v.Acquire(es.X.Pos(), l, *h)
				if i := h.find(l); i < 0 || (*h)[i].Text != l.Text {
					*h = append(*h, l)
				}
			case "Unlock", "RUnlock":
				if i := h.find(l); i >= 0 {
					*h = append((*h)[:i], (*h)[i+1:]...)
				}
			}
			return
		}
	}
	if d, ok := s.(*ast.DeferStmt); ok {
		if l, op, ok := Op(w.pkg, d.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if i := h.find(l); i >= 0 {
				(*h)[i].DeferredUnlock = true
			}
			return
		}
	}
	w.v.Node(s, *h)
	switch s := s.(type) {
	case *ast.DeferStmt:
		// The operands are evaluated now; the call runs at function exit,
		// under the locks whose unlock was deferred before it. A plain
		// unlock, or an unlock deferred after it, runs first.
		var at Held
		for _, l := range *h {
			if l.DeferredUnlock {
				l.InDefer = true
				at = append(at, l)
			}
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.lit(lit, at)
		} else {
			w.v.Node(s.Call, at)
			w.expr(s.Call.Fun, *h)
		}
		for _, a := range s.Call.Args {
			w.expr(a, *h)
		}
	case *ast.GoStmt:
		// The spawned call runs on its own stack; a literal body is a root
		// of its own. Only the arguments are evaluated here.
		for _, a := range s.Call.Args {
			w.expr(a, *h)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, h)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, h)
	case *ast.IfStmt:
		w.stmt(s.Init, h)
		w.expr(s.Cond, *h)
		w.branch(s.Body.List, *h)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else}, *h)
		}
	case *ast.ForStmt:
		w.stmt(s.Init, h)
		w.expr(s.Cond, *h)
		inner := h.clone()
		w.stmts(s.Body.List, &inner)
		w.stmt(s.Post, &inner)
	case *ast.RangeStmt:
		w.expr(s.X, *h)
		w.branch(s.Body.List, *h)
	case *ast.SwitchStmt:
		w.stmt(s.Init, h)
		w.expr(s.Tag, *h)
		w.clauses(s.Body, *h)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, h)
		w.stmt(s.Assign, h)
		w.clauses(s.Body, *h)
	case *ast.SelectStmt:
		// A clause's channel operation waits as part of the select, which
		// Node has seen; its operands are evaluated here.
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				w.expr(comm.Chan, *h)
				w.expr(comm.Value, *h)
			case *ast.ExprStmt:
				w.expr(ast.Unparen(comm.X).(*ast.UnaryExpr).X, *h)
			case *ast.AssignStmt:
				w.expr(ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr).X, *h)
			}
			w.branch(cc.Body, *h)
		}
	default:
		// A simple statement: evaluated as a whole. Node has seen it.
		w.children(s, *h)
	}
}

func (w *walker) branch(list []ast.Stmt, held Held) {
	held = held.clone()
	w.stmts(list, &held)
}

func (w *walker) clauses(body *ast.BlockStmt, held Held) {
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		for _, e := range cc.List {
			w.expr(e, held)
		}
		w.branch(cc.Body, held)
	}
}

// expr evaluates an expression on this stack under held.
func (w *walker) expr(e ast.Expr, held Held) {
	if e != nil && w.v.Node(e, held) {
		w.children(e, held)
	}
}

// children visits what n evaluates on this stack, n itself already seen.
// A function literal is skipped, unless it is invoked in place: then its
// body is walked here, under held.
func (w *walker) children(n ast.Node, held Held) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case nil, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if c != n && !w.v.Node(c, held) {
				return false
			}
			if lit, ok := c.Fun.(*ast.FuncLit); ok {
				w.lit(lit, held.clone())
				for _, a := range c.Args {
					w.expr(a, held)
				}
				return false
			}
			return true
		}
		return c == n || w.v.Node(c, held)
	})
}
