// Package lockhold flags blocking operations reachable while an
// internal/core engine, internal/cluster server/coordinator, or per-group
// mutex is held.
//
// PR 2 shrank the engine's lock-hold windows (read lock + per-group mutex
// on the multicast hot path) and PR 3 bounded the join write-lock hold to
// membership + O(1) capture. Both invariants previously lived only in
// comments and in the join_lock_hold_ns / bcast_lock_wait_ns histograms,
// which catch regressions at runtime, probabilistically. This analyzer is
// the static complement: inside every Lock()/RLock() … Unlock() span of a
// package named "core" or "cluster" (the latter added with the placement
// subsystem, whose migration driver must capture under the lock and
// stream outside it), it rejects operations that can block — channel
// sends and receives (unless in a select with a default), selects without
// a default, time.Sleep, file and network I/O, log/fmt output, and the
// WAL's synchronous Barrier/Sync/Close — whether they appear directly in the
// span or anywhere in the static call graph below it. Calls through
// interfaces are resolved against every implementation in the analyzed
// program, so a committer hidden behind an interface is not a blind spot;
// calls through stored func-typed fields (the engine's Hooks) resolve
// against every function value the program assigns to the field, and
// deferred closures are traversed — they run on the caller's stack before
// the function returns, i.e. still under any lock the caller holds. Calls
// through plain func-typed locals remain the one acknowledged hole (see
// internal/analysis/callgraph).
//
// Nested sync.Mutex acquisition is deliberately not "blocking": short
// nested critical sections (obs, the WAL's pending queue) are part
// of the design, and lock-ordering is lockorder's job.
package lockhold

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/callgraph"
)

// Analyzer is the lockhold checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking operations reachable while a core engine or per-group mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := newChecker(pass)
	for _, pkg := range pass.Pkgs {
		if pkg.Name != "core" && pkg.Name != "cluster" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					c.checkSpans(pkg, fd.Body.List, newLockEnv())
				}
			}
		}
	}
	return nil
}

// checker owns the whole-program call-graph state.
type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	// reasons/litReasons memoize blocking classification per function and
	// per stored function literal.
	reasons    map[*types.Func]*reason
	state      map[*types.Func]int // 0 unvisited, 1 visiting, 2 done
	litReasons map[*ast.FuncLit]*reason
	litState   map[*ast.FuncLit]int
}

// reason explains why a function (or operation) blocks. A nil *reason
// means "does not block".
type reason struct {
	desc  string   // e.g. "channel receive", "call to (*os.File).Sync"
	chain []string // call chain from the checked function to the root op
}

func (r *reason) String() string {
	if len(r.chain) == 0 {
		return r.desc
	}
	return fmt.Sprintf("%s (via %s)", r.desc, strings.Join(r.chain, " → "))
}

func newChecker(pass *analysis.Pass) *checker {
	return &checker{
		pass:       pass,
		graph:      callgraph.New(pass.Pkgs),
		reasons:    map[*types.Func]*reason{},
		state:      map[*types.Func]int{},
		litReasons: map[*ast.FuncLit]*reason{},
		litState:   map[*ast.FuncLit]int{},
	}
}

// ---- lock-span walking -------------------------------------------------

// lockEnv tracks the mutexes held at a program point, keyed by the
// canonical text of the receiver expression ("e.mu", "gmu").
type lockEnv struct {
	order []string
	held  map[string]*heldLock
}

type heldLock struct {
	name string
	// deferredRelease is set once `defer x.Unlock()` has been seen: the
	// lock is then held for the remainder of the function, and any defer
	// registered afterwards runs before the release (LIFO), i.e. still
	// under the lock.
	deferredRelease bool
}

func newLockEnv() *lockEnv {
	return &lockEnv{held: map[string]*heldLock{}}
}

func (e *lockEnv) clone() *lockEnv {
	c := newLockEnv()
	c.order = append(c.order, e.order...)
	for k, v := range e.held {
		cp := *v
		c.held[k] = &cp
	}
	return c
}

func (e *lockEnv) acquire(key string) {
	if _, ok := e.held[key]; !ok {
		e.order = append(e.order, key)
	}
	e.held[key] = &heldLock{name: key}
}

func (e *lockEnv) release(key string) {
	delete(e.held, key)
	for i, k := range e.order {
		if k == key {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

func (e *lockEnv) any() *heldLock {
	for i := len(e.order) - 1; i >= 0; i-- {
		if l, ok := e.held[e.order[i]]; ok {
			return l
		}
	}
	return nil
}

func (e *lockEnv) anyDeferredRelease() *heldLock {
	for i := len(e.order) - 1; i >= 0; i-- {
		if l, ok := e.held[e.order[i]]; ok && l.deferredRelease {
			return l
		}
	}
	return nil
}

// checkSpans walks a statement list, maintaining the set of held locks
// and checking every expression evaluated while it is non-empty.
func (c *checker) checkSpans(pkg *analysis.Package, stmts []ast.Stmt, env *lockEnv) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if key, op, ok := mutexOp(pkg.Info, s.X); ok {
				switch op {
				case "Lock", "RLock":
					env.acquire(key)
				case "Unlock", "RUnlock":
					env.release(key)
				}
				continue
			}
			c.checkExpr(pkg, s.X, env)
		case *ast.DeferStmt:
			if key, op, ok := mutexOp(pkg.Info, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				if l, held := env.held[key]; held {
					l.deferredRelease = true
				}
				continue
			}
			// A defer registered after a deferred unlock runs before it
			// (LIFO), i.e. with the lock still held.
			if l := env.anyDeferredRelease(); l != nil {
				c.checkDeferred(pkg, s.Call, l)
			}
		case *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt:
			c.checkExpr(pkg, s, env)
		case *ast.GoStmt:
			// The goroutine body runs without the lock; only the call's
			// arguments are evaluated here.
			for _, a := range s.Call.Args {
				c.checkExpr(pkg, a, env)
			}
		case *ast.BlockStmt:
			c.checkSpans(pkg, s.List, env)
		case *ast.IfStmt:
			if s.Init != nil {
				c.checkExpr(pkg, s.Init, env)
			}
			c.checkExpr(pkg, s.Cond, env)
			c.checkSpans(pkg, s.Body.List, env.clone())
			if s.Else != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Else}, env.clone())
			}
		case *ast.ForStmt:
			if s.Init != nil {
				c.checkExpr(pkg, s.Init, env)
			}
			if s.Cond != nil {
				c.checkExpr(pkg, s.Cond, env)
			}
			inner := env.clone()
			c.checkSpans(pkg, s.Body.List, inner)
			if s.Post != nil {
				c.checkExpr(pkg, s.Post, inner)
			}
		case *ast.RangeStmt:
			c.checkExpr(pkg, s.X, env)
			if env.any() != nil && isChan(pkg.Info, s.X) {
				c.report(s.X.Pos(), env.any(), &reason{desc: "range over channel"})
			}
			c.checkSpans(pkg, s.Body.List, env.clone())
		case *ast.SwitchStmt:
			if s.Init != nil {
				c.checkExpr(pkg, s.Init, env)
			}
			if s.Tag != nil {
				c.checkExpr(pkg, s.Tag, env)
			}
			for _, cc := range s.Body.List {
				c.checkSpans(pkg, cc.(*ast.CaseClause).Body, env.clone())
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				c.checkExpr(pkg, s.Init, env)
			}
			for _, cc := range s.Body.List {
				c.checkSpans(pkg, cc.(*ast.CaseClause).Body, env.clone())
			}
		case *ast.SelectStmt:
			if l := env.any(); l != nil && !hasDefault(s) {
				c.report(s.Pos(), l, &reason{desc: "select without default"})
			}
			for _, cl := range s.Body.List {
				c.checkSpans(pkg, cl.(*ast.CommClause).Body, env.clone())
			}
		case *ast.LabeledStmt:
			c.checkSpans(pkg, []ast.Stmt{s.Stmt}, env)
		default:
			c.checkExpr(pkg, s, env)
		}
	}
}

// checkDeferred checks a call deferred while lock l is (and stays) held.
func (c *checker) checkDeferred(pkg *analysis.Package, call *ast.CallExpr, l *heldLock) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		c.checkNode(pkg, lit.Body, l, "deferred while %q is held (runs before the deferred unlock)")
		return
	}
	if r := c.callReason(pkg, call); r != nil {
		c.reportf(call.Pos(), l, r, "deferred while %q is held (runs before the deferred unlock)")
	}
}

// checkExpr reports blocking operations in the subtree rooted at n when a
// lock is held.
func (c *checker) checkExpr(pkg *analysis.Package, n ast.Node, env *lockEnv) {
	l := env.any()
	if l == nil {
		return
	}
	c.checkNode(pkg, n, l, "while %q is held")
}

func (c *checker) checkNode(pkg *analysis.Package, n ast.Node, l *heldLock, format string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				c.checkNode(pkg, a, l, format)
			}
			return false
		case *ast.FuncLit:
			return false // not executed here unless immediately invoked (CallExpr case recurses)
		case *ast.SelectStmt:
			if !hasDefault(n) {
				c.reportf(n.Pos(), l, &reason{desc: "select without default"}, format)
			}
			// Comm ops of a select with default never block; clause
			// bodies run after a successful comm, still under the lock.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					c.checkNode(pkg, s, l, format)
				}
			}
			return false
		case *ast.SendStmt:
			c.reportf(n.Pos(), l, &reason{desc: "channel send"}, format)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportf(n.Pos(), l, &reason{desc: "channel receive"}, format)
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately invoked: the body runs here, under the lock.
				c.checkNode(pkg, lit.Body, l, format)
				for _, a := range n.Args {
					c.checkNode(pkg, a, l, format)
				}
				return false
			}
			if r := c.callReason(pkg, n); r != nil {
				c.reportf(n.Pos(), l, r, format)
			}
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, l *heldLock, r *reason) {
	c.reportf(pos, l, r, "while %q is held")
}

func (c *checker) reportf(pos token.Pos, l *heldLock, r *reason, format string) {
	c.pass.Reportf(pos, "%s "+format, r, l.name)
}

// ---- call resolution and blocking classification -----------------------

// callReason classifies one call expression: nil means it cannot be shown
// to block.
func (c *checker) callReason(pkg *analysis.Package, call *ast.CallExpr) *reason {
	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	for _, callee := range c.graph.Callees(pkg, call) {
		if r := c.targetReason(callee); r != nil {
			return c.chained(callee, r)
		}
	}
	return nil
}

// chained prefixes the callee to r's call chain — unless the callee is
// itself the root blocking operation (an unanalyzed function classified by
// the blocklist), where a "via" chain would just repeat its name.
func (c *checker) chained(callee callgraph.Target, r *reason) *reason {
	if callee.Fn != nil {
		if _, analyzed := c.graph.Bodies[callee.Fn]; !analyzed && len(r.chain) == 0 {
			return r
		}
	}
	return &reason{desc: r.desc, chain: append([]string{callee.Name()}, r.chain...)}
}

// targetReason classifies one call target: nil means not blocking.
func (c *checker) targetReason(t callgraph.Target) *reason {
	if t.Lit != nil {
		return c.litReason(t.Lit, t.Pkg)
	}
	return c.funcReason(t.Fn)
}

// litReason classifies a stored function literal by its body.
func (c *checker) litReason(lit *ast.FuncLit, pkg *analysis.Package) *reason {
	if r, ok := c.litReasons[lit]; ok && c.litState[lit] == 2 {
		return r
	}
	if c.litState[lit] == 1 {
		return nil
	}
	c.litState[lit] = 1
	r := c.bodyReason(pkg, lit.Body)
	c.litReasons[lit], c.litState[lit] = r, 2
	return r
}

// funcReason classifies one function: nil means not blocking. Analyzed
// functions are classified by their bodies, recursively; everything else
// by the stdlib blocklist.
func (c *checker) funcReason(fn *types.Func) *reason {
	if r, ok := c.reasons[fn]; ok && c.state[fn] == 2 {
		return r
	}
	if c.state[fn] == 1 {
		// Recursion cycle: assume the cycle itself does not block (any
		// blocking op inside it is still found on the first visit).
		return nil
	}
	body, analyzed := c.graph.Bodies[fn]
	if !analyzed {
		r := stdBlocking(fn)
		c.reasons[fn], c.state[fn] = r, 2
		return r
	}
	c.state[fn] = 1
	r := c.bodyReason(body.Pkg, body.Decl.Body)
	c.reasons[fn], c.state[fn] = r, 2
	return r
}

// bodyReason finds the first blocking operation in an analyzed function
// body. Goroutine launches and non-invoked function literals are skipped —
// their bodies do not run on the caller's stack — with one exception: a
// deferred closure runs on this stack before the function returns, so its
// body is traversed like any other statement.
func (c *checker) bodyReason(pkg *analysis.Package, body *ast.BlockStmt) *reason {
	var found *reason
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.DeferStmt:
			// The deferred call runs before this function returns — on the
			// caller's stack, under any lock the caller holds.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, a := range n.Call.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			return true // plain deferred call: classified via its CallExpr
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !hasDefault(n) {
				found = &reason{desc: "select without default"}
				return false
			}
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.SendStmt:
			found = &reason{desc: "channel send"}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = &reason{desc: "channel receive"}
				return false
			}
		case *ast.RangeStmt:
			if isChan(pkg.Info, n.X) {
				found = &reason{desc: "range over channel"}
				return false
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, a := range n.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			for _, callee := range c.graph.Callees(pkg, n) {
				if r := c.targetReason(callee); r != nil {
					found = c.chained(callee, r)
					return false
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return found
}

// stdBlocking classifies functions with no analyzed body — the standard
// library, mostly — by package path, receiver, and name.
func stdBlocking(fn *types.Func) *reason {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	path, name := pkg.Path(), fn.Name()
	mk := func(kind string) *reason {
		return &reason{desc: fmt.Sprintf("%s [%s]", callgraph.FuncName(fn), kind)}
	}
	switch path {
	case "time":
		if name == "Sleep" {
			return mk("sleep")
		}
	case "fmt":
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
			"Scan", "Scanf", "Scanln", "Fscan", "Fscanf", "Fscanln":
			return mk("I/O")
		}
	case "log":
		return mk("logging")
	case "log/slog":
		switch name {
		case "Debug", "DebugContext", "Info", "InfoContext", "Warn", "WarnContext",
			"Error", "ErrorContext", "Log", "LogAttrs":
			return mk("logging")
		}
	case "os":
		switch name {
		case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString",
			"WriteTo", "Sync", "Close", "Truncate", // (*os.File) methods
			"Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "Stat", "Lstat":
			return mk("file I/O")
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast",
			"WriteString", "Pipe", "Read", "Write", "Close":
			return mk("I/O")
		}
	case "bufio":
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Flush", "ReadFrom",
			"Read", "ReadByte", "ReadBytes", "ReadString", "ReadSlice", "ReadRune",
			"Peek", "Discard", "Scan":
			return mk("buffered I/O")
		}
	case "net":
		if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
			return mk("network I/O")
		}
		switch name {
		case "Read", "Write", "Close", "Accept", "ReadFrom", "WriteTo":
			return mk("network I/O")
		}
	case "sync":
		if name == "Wait" { // WaitGroup.Wait, Cond.Wait
			return mk("wait")
		}
	}
	// The WAL's synchronous entry points are blocking by contract (barrier
	// wait, fsync, drain), independent of whether their bodies are analyzed
	// here. Records are written by AppendAsync, a non-blocking enqueue.
	if pkg.Name() == "wal" {
		switch name {
		case "Barrier", "Sync", "Close":
			return mk("WAL I/O")
		}
	}
	return nil
}

// ---- small helpers -----------------------------------------------------

// mutexOp matches x.Lock / x.RLock / x.Unlock / x.RUnlock calls on
// sync.Mutex or sync.RWMutex values and returns the canonical receiver
// text as span key.
func mutexOp(info *types.Info, e ast.Expr) (key, op string, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return "", "", false
	}
	recv := callgraph.Deref(s.Recv())
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

func isChan(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Chan)
	return ok
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}
