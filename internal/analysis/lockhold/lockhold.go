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
// the function returns, still under every lock whose unlock was deferred
// before them (a plain unlock releases its lock first). Calls
// through plain func-typed locals remain the one acknowledged hole (see
// internal/analysis/callgraph).
//
// The spans are walked by lockid.Roots, as lockorder and atomicsafe walk
// theirs: every function, then every function literal not walked in place
// (a goroutine body, a stored or returned callback) from an empty held
// set, so a lock a literal takes itself covers what it does next.
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
	"corona/internal/analysis/lockid"
)

// Analyzer is the lockhold checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking operations reachable while a core engine or per-group mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, graph: callgraph.New(pass.Pkgs)}
	c.reasons = callgraph.Summary[*reason]{Graph: c.graph, Body: c.bodyReason, Leaf: stdBlocking}
	scoped := func(name string) bool { return name == "core" || name == "cluster" }
	lockid.Roots(pass.Pkgs, scoped, func(pkg *analysis.Package, _ *ast.FuncDecl) lockid.Visitor {
		return &span{checker: c, pkg: pkg}
	})
	return nil
}

type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	// reasons classifies each call target: nil means it cannot be shown to
	// block.
	reasons callgraph.Summary[*reason]
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

// span reports every blocking operation evaluated while a lock is held.
type span struct {
	*checker
	pkg *analysis.Package
}

func (s *span) Acquire(token.Pos, lockid.Lock, lockid.Held) {}

func (s *span) Node(n ast.Node, held lockid.Held) bool {
	if len(held) == 0 {
		return true
	}
	l := held[len(held)-1]
	if r := s.reasonAt(s.pkg, n); r != nil {
		pos, format := n.Pos(), "while %q is held"
		if rs, ok := n.(*ast.RangeStmt); ok {
			pos = rs.X.Pos()
		}
		if l.InDefer {
			format = "deferred while %q is held (runs before the deferred unlock)"
		}
		s.pass.Reportf(pos, "%s "+format, r, l.Text)
	}
	return true
}

// reasonAt classifies one node the walk reaches: nil means it cannot be
// shown to block.
func (c *checker) reasonAt(pkg *analysis.Package, n ast.Node) *reason {
	switch n := n.(type) {
	case *ast.SendStmt:
		return &reason{desc: "channel send"}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return &reason{desc: "channel receive"}
		}
	case *ast.SelectStmt:
		if !hasDefault(n) {
			return &reason{desc: "select without default"}
		}
	case *ast.RangeStmt:
		if isChan(pkg.Info, n.X) {
			return &reason{desc: "range over channel"}
		}
	case *ast.CallExpr:
		for _, callee := range c.graph.Callees(pkg, n) {
			if r := c.reasons.Of(callee); r != nil {
				return c.chained(callee, r)
			}
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

// bodyReason finds the first blocking operation in an analyzed function
// body, whatever it holds: the caller's locks are held throughout.
func (c *checker) bodyReason(pkg *analysis.Package, body *ast.BlockStmt) *reason {
	f := &first{checker: c, pkg: pkg}
	lockid.Walk(pkg, body, f)
	return f.found
}

type first struct {
	*checker
	pkg   *analysis.Package
	found *reason
}

func (f *first) Acquire(token.Pos, lockid.Lock, lockid.Held) {}

func (f *first) Node(n ast.Node, _ lockid.Held) bool {
	if f.found == nil {
		f.found = f.reasonAt(f.pkg, n)
	}
	return f.found == nil
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
