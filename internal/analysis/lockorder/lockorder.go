// Package lockorder checks the engine's sanctioned lock hierarchy.
//
// The post-fanout hot path layers four tiers of mutexes — engine registry
// read lock, per-group mutex, fanout shard intake, pump queue — and the
// cluster layer adds the server/coordinator mutexes that the engine's
// hooks take underneath the registry lock. Total order under concurrent
// delivery only holds if every goroutine acquires these locks in one
// global order; one inverted pair is a latent deadlock that -race cannot
// see and that only bites under exactly the wrong interleaving.
//
// The order is declared once, in the rank table below, as ranks over lock
// identities (package.Type.field, resolved from the receiver of each
// Lock/RLock call). The analyzer walks every Lock()…Unlock() span in the
// core, cluster, transport, and placement packages and — reusing the
// whole-program call graph, interface dispatch and stored func-typed
// fields included — reports:
//
//   - an acquisition, direct or anywhere in the call graph below the
//     span, of a ranked lock at or below the rank of a held ranked lock
//     (inversion, or unordered same-tier nesting);
//   - any acquisition of an identity already held, whatever its rank
//     (same-mutex re-entry: sync.Mutex self-deadlocks, and a nested
//     RLock deadlocks against a writer waiting between the two).
//
// Identities not in the table (the WAL's pending-queue mutex, obs
// internals) impose no ordering; they are the sanctioned
// short nested sections. Acquisitions inside spawned goroutines are the
// spawned goroutine's business, not an edge under the caller's locks.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corona/internal/analysis"
	"corona/internal/analysis/callgraph"
	"corona/internal/analysis/lockid"
)

// Analyzer is the lockorder checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "checks lock acquisitions against the sanctioned engine.mu → group mu → fanout shard → pump mu hierarchy",
	Run:  run,
}

// ranks is the sanctioned hierarchy: a lock may only be acquired while
// every held ranked lock has a strictly lower rank. The engine tiers are
// fixed by the delivery pipeline design (DESIGN §2); the cluster and
// placement tiers sit between the engine registry lock they are taken
// under (via the engine's Forward/membership hooks) and the pump mutex
// their sends end in.
var ranks = map[string]int{
	"core.Engine.mu":         20,
	"core.groupRuntime.mu":   30,
	"core.fanoutShard.mu":    40,
	"cluster.Server.mu":      44,
	"cluster.Coordinator.mu": 44,
	"placement.Tracker.mu":   46,
	"transport.Pump.mu":      50,
}

// scoped are the packages whose lock spans are walked. Summaries are
// still computed for every analyzed package, so a span in core sees
// acquisitions made by a callee in wal or obs.
func scoped(name string) bool {
	switch name {
	case "core", "cluster", "transport", "placement":
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		graph:     callgraph.New(pass.Pkgs),
		summaries: map[*types.Func]map[string]*acq{},
		state:     map[*types.Func]int{},
		litSums:   map[*ast.FuncLit]map[string]*acq{},
		litState:  map[*ast.FuncLit]int{},
		inlined:   map[*ast.FuncLit]bool{},
	}
	for _, pkg := range pass.Pkgs {
		if !scoped(pkg.Name) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					c.checkSpans(pkg, fd.Body.List, newHeld())
				}
			}
		}
	}
	// Function literals not walked inline above (goroutine bodies, stored
	// callbacks) are their own execution roots: walk each from an empty
	// held set. Enclosing literals walk before nested ones, so a literal
	// reached inline inside another root is marked before we get to it.
	for _, pkg := range pass.Pkgs {
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
			if !c.inlined[lit] {
				c.inlined[lit] = true
				c.checkSpans(pkg, lit.Body.List, newHeld())
			}
		}
	}
	return nil
}

// acq is one lock acquisition reachable from a function: the identity and
// a witness call chain for the diagnostic.
type acq struct {
	id    string
	chain []string
}

func (a *acq) String() string {
	if len(a.chain) == 0 {
		return a.id
	}
	return fmt.Sprintf("%s (via %s)", a.id, strings.Join(a.chain, " → "))
}

type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	// summaries memoizes, per function, every lock identity the function
	// may acquire directly or transitively.
	summaries map[*types.Func]map[string]*acq
	state     map[*types.Func]int // 0 unvisited, 1 visiting, 2 done
	litSums   map[*ast.FuncLit]map[string]*acq
	litState  map[*ast.FuncLit]int
	// inlined marks literals already walked as part of an enclosing span
	// (invoked, deferred, or spawned in place), so the root sweep skips them.
	inlined map[*ast.FuncLit]bool
}

// ---- held-lock tracking -------------------------------------------------

type held struct {
	order []string
	ids   map[string]bool
}

func newHeld() *held { return &held{ids: map[string]bool{}} }

func (h *held) clone() *held {
	c := newHeld()
	c.order = append(c.order, h.order...)
	for k := range h.ids {
		c.ids[k] = true
	}
	return c
}

func (h *held) acquire(id string) {
	if !h.ids[id] {
		h.ids[id] = true
		h.order = append(h.order, id)
	}
}

func (h *held) release(id string) {
	if !h.ids[id] {
		return
	}
	delete(h.ids, id)
	for i := len(h.order) - 1; i >= 0; i-- {
		if h.order[i] == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

// ---- span walking -------------------------------------------------------

// checkSpans walks a statement list maintaining the held-lock set; every
// acquisition (direct or via a call) is checked against it.
func (c *checker) checkSpans(pkg *analysis.Package, stmts []ast.Stmt, h *held) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if id, op, ok := lockid.Op(pkg, s.X); ok {
				switch op {
				case "Lock", "RLock":
					c.checkAcquire(s.X.Pos(), h, &acq{id: id})
					h.acquire(id)
				case "Unlock", "RUnlock":
					h.release(id)
				}
				continue
			}
			// An immediately-invoked literal runs on this stack under the
			// current held set.
			if call, ok := s.X.(*ast.CallExpr); ok {
				if lit, ok := call.Fun.(*ast.FuncLit); ok {
					c.inlined[lit] = true
					c.checkSpans(pkg, lit.Body.List, h.clone())
					for _, a := range call.Args {
						c.checkExpr(pkg, a, h)
					}
					continue
				}
			}
			c.checkExpr(pkg, s.X, h)
		case *ast.DeferStmt:
			if id, op, ok := lockid.Op(pkg, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				// The lock stays held to function exit; spans that follow
				// are still under it, which the held set already records.
				_ = id
				continue
			}
			// Deferred work runs before any deferred unlock registered
			// earlier, i.e. under the locks currently held.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				c.inlined[lit] = true
				c.checkSpans(pkg, lit.Body.List, h.clone())
			} else {
				c.checkExpr(pkg, s.Call, h)
			}
		case *ast.GoStmt:
			// The spawned goroutine is its own execution root: its body's
			// ordering is checked from an empty held set, and nothing it
			// acquires counts as an edge under the caller's locks.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				c.inlined[lit] = true
				c.checkSpans(pkg, lit.Body.List, newHeld())
			}
			for _, a := range s.Call.Args {
				c.checkExpr(pkg, a, h)
			}
		case *ast.BlockStmt:
			c.checkSpans(pkg, s.List, h)
		case *ast.IfStmt:
			if s.Init != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Init}, h)
			}
			c.checkExpr(pkg, s.Cond, h)
			c.checkSpans(pkg, s.Body.List, h.clone())
			if s.Else != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Else}, h.clone())
			}
		case *ast.ForStmt:
			if s.Init != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Init}, h)
			}
			if s.Cond != nil {
				c.checkExpr(pkg, s.Cond, h)
			}
			inner := h.clone()
			c.checkSpans(pkg, s.Body.List, inner)
			if s.Post != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Post}, inner)
			}
		case *ast.RangeStmt:
			c.checkExpr(pkg, s.X, h)
			c.checkSpans(pkg, s.Body.List, h.clone())
		case *ast.SwitchStmt:
			if s.Init != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Init}, h)
			}
			if s.Tag != nil {
				c.checkExpr(pkg, s.Tag, h)
			}
			for _, cc := range s.Body.List {
				c.checkSpans(pkg, cc.(*ast.CaseClause).Body, h.clone())
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				c.checkSpans(pkg, []ast.Stmt{s.Init}, h)
			}
			for _, cc := range s.Body.List {
				c.checkSpans(pkg, cc.(*ast.CaseClause).Body, h.clone())
			}
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				c.checkSpans(pkg, cl.(*ast.CommClause).Body, h.clone())
			}
		case *ast.LabeledStmt:
			c.checkSpans(pkg, []ast.Stmt{s.Stmt}, h)
		default:
			c.checkExpr(pkg, s, h)
		}
	}
}

// checkExpr checks every call in the subtree against the held set.
func (c *checker) checkExpr(pkg *analysis.Package, n ast.Node, h *held) {
	if n == nil || len(h.order) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				c.checkExpr(pkg, a, h)
			}
			return false
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				c.checkExpr(pkg, lit.Body, h)
				for _, a := range n.Args {
					c.checkExpr(pkg, a, h)
				}
				return false
			}
			if _, _, ok := lockid.Op(pkg, n); ok {
				return false // handled at statement level
			}
			for _, callee := range c.graph.Callees(pkg, n) {
				for _, a := range c.targetSummary(callee) {
					c.checkAcquire(n.Pos(), h, withHop(callee, a))
				}
			}
		}
		return true
	})
}

// checkAcquire reports an acquisition that re-enters a held identity or
// runs against the rank table.
func (c *checker) checkAcquire(pos token.Pos, h *held, a *acq) {
	if h.ids[a.id] {
		c.pass.Reportf(pos, "%s re-enters %q, already held", a, a.id)
		return
	}
	r, ranked := ranks[a.id]
	if !ranked {
		return
	}
	for i := len(h.order) - 1; i >= 0; i-- {
		hr, ok := ranks[h.order[i]]
		if !ok {
			continue
		}
		if r <= hr {
			c.pass.Reportf(pos, "%s acquired while %q is held: inverts the sanctioned order (rank %d ≤ %d)",
				a, h.order[i], r, hr)
			return
		}
	}
}

func withHop(t callgraph.Target, a *acq) *acq {
	return &acq{id: a.id, chain: append([]string{t.Name()}, a.chain...)}
}

// ---- transitive summaries -----------------------------------------------

func (c *checker) targetSummary(t callgraph.Target) map[string]*acq {
	if t.Lit != nil {
		return c.litSummary(t.Lit, t.Pkg)
	}
	return c.funcSummary(t.Fn)
}

func (c *checker) litSummary(lit *ast.FuncLit, pkg *analysis.Package) map[string]*acq {
	if c.litState[lit] == 2 {
		return c.litSums[lit]
	}
	if c.litState[lit] == 1 {
		return nil
	}
	c.litState[lit] = 1
	sum := c.bodySummary(pkg, lit.Body)
	c.litSums[lit], c.litState[lit] = sum, 2
	return sum
}

// funcSummary returns every lock identity fn may acquire, transitively.
func (c *checker) funcSummary(fn *types.Func) map[string]*acq {
	if c.state[fn] == 2 {
		return c.summaries[fn]
	}
	if c.state[fn] == 1 {
		return nil // recursion cycle: first visit collects its locks
	}
	body, analyzed := c.graph.Bodies[fn]
	if !analyzed {
		c.summaries[fn], c.state[fn] = nil, 2
		return nil
	}
	c.state[fn] = 1
	sum := c.bodySummary(body.Pkg, body.Decl.Body)
	c.summaries[fn], c.state[fn] = sum, 2
	return sum
}

// bodySummary collects acquisitions in one body: direct Lock/RLock calls
// plus the summaries of every callee, goroutine bodies excluded, deferred
// closures included.
func (c *checker) bodySummary(pkg *analysis.Package, body *ast.BlockStmt) map[string]*acq {
	sum := map[string]*acq{}
	add := func(a *acq) {
		if _, ok := sum[a.id]; !ok {
			sum[a.id] = a
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, a := range n.Call.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			return true
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, a := range n.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			if id, op, ok := lockid.Op(pkg, n); ok {
				if op == "Lock" || op == "RLock" {
					add(&acq{id: id})
				}
				return false
			}
			for _, callee := range c.graph.Callees(pkg, n) {
				for _, a := range c.targetSummary(callee) {
					add(withHop(callee, a))
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return sum
}
