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
	c := &checker{pass: pass, graph: callgraph.New(pass.Pkgs)}
	c.sums = callgraph.Summary[map[string]*acq]{Graph: c.graph, Body: c.bodySummary}
	lockid.Roots(pass.Pkgs, scoped, func(pkg *analysis.Package, _ *ast.FuncDecl) lockid.Visitor {
		return &span{checker: c, pkg: pkg}
	})
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
	// sums holds, per call target, every lock identity it may acquire
	// directly or transitively.
	sums callgraph.Summary[map[string]*acq]
}

// span checks every acquisition, direct or via a call, against the locks
// held where it happens.
type span struct {
	*checker
	pkg *analysis.Package
}

func (s *span) Acquire(pos token.Pos, l lockid.Lock, held lockid.Held) {
	s.check(pos, held, &acq{id: l.ID})
}

func (s *span) Node(n ast.Node, held lockid.Held) bool {
	if len(held) == 0 {
		return true
	}
	s.calls(s.pkg, n, func(a *acq) { s.check(n.Pos(), held, a) })
	return true
}

// calls hands f every acquisition a call node reaches through its callees.
func (c *checker) calls(pkg *analysis.Package, n ast.Node, f func(*acq)) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	if _, _, ok := lockid.Op(pkg, call); ok {
		return // a lock operation is the walk's, not a call's
	}
	for _, callee := range c.graph.Callees(pkg, call) {
		for _, a := range c.sums.Of(callee) {
			f(&acq{id: a.id, chain: append([]string{callee.Name()}, a.chain...)})
		}
	}
}

// check reports an acquisition that re-enters a held identity or runs
// against the rank table.
func (c *checker) check(pos token.Pos, held lockid.Held, a *acq) {
	if held.Holds(a.id) {
		c.pass.Reportf(pos, "%s re-enters %q, already held", a, a.id)
		return
	}
	r, ranked := ranks[a.id]
	if !ranked {
		return
	}
	for i := len(held) - 1; i >= 0; i-- {
		hr, ok := ranks[held[i].ID]
		if !ok {
			continue
		}
		if r <= hr {
			c.pass.Reportf(pos, "%s acquired while %q is held: inverts the sanctioned order (rank %d ≤ %d)",
				a, held[i].ID, r, hr)
			return
		}
	}
}

// bodySummary collects the acquisitions of one body: its own Lock and
// RLock calls and the summaries of its callees, goroutine bodies excluded,
// deferred closures included.
func (c *checker) bodySummary(pkg *analysis.Package, body *ast.BlockStmt) map[string]*acq {
	s := &summary{checker: c, pkg: pkg, sum: map[string]*acq{}}
	lockid.Walk(pkg, body, s)
	return s.sum
}

type summary struct {
	*checker
	pkg *analysis.Package
	sum map[string]*acq
}

func (s *summary) add(a *acq) {
	if _, ok := s.sum[a.id]; !ok {
		s.sum[a.id] = a
	}
}

func (s *summary) Acquire(_ token.Pos, l lockid.Lock, _ lockid.Held) {
	s.add(&acq{id: l.ID})
}

func (s *summary) Node(n ast.Node, _ lockid.Held) bool {
	s.calls(s.pkg, n, s.add)
	return true
}
