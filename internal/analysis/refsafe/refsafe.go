// Package refsafe checks the pooled SharedFrame ownership protocol that
// the fanout and batching PRs spread across core, cluster, and transport.
//
// The protocol (documented on transport.SharedFrame): NewSharedFrame
// returns a frame holding one reference; Pump.SendShared transfers one
// reference on success and none on failure, so the caller must Release on
// the rejection path; SendSharedRun admits a prefix and leaves the unsent
// suffix's references with the caller. A missed Release leaks a pooled
// buffer; an extra one frees a frame another pump is still writing.
//
// The checker is annotation-driven. A function taking a frame parameter
// declares its side of the contract in its doc comment:
//
//	//corona:owns f       – the callee consumes one reference of f on
//	                        every path; callers transfer ownership.
//	//corona:borrows f    – the callee uses f but keeps no reference;
//	                        callers retain ownership.
//
// Within a checked function body (packages core, cluster, transport) the
// analyzer tracks each frame-typed local bound to a constructor call
// (NewSharedFrame, NewChunkFrame) and each frame parameter, simulating
// Retain/Release/transfer along every branch:
//
//   - a path that reaches an exit still holding references leaks;
//   - Release past the last owned reference, or any use of a frame the
//     function released to zero, is an error;
//   - the error result of SendShared must be checked, and the rejection
//     branch must keep or release the frame — discarding the error
//     leaks the frame whenever the pump is over quota;
//   - the error result of SendSharedRun must be checked and the
//     rejection branch must release the unadmitted elements of the
//     run's slice by index;
//   - releasing a parameter not annotated //corona:owns gives away a
//     reference the function does not hold.
//
// Tracking is deliberately partial: frames stored into fields, slices,
// maps, closures, or passed to unannotated callees escape and are not
// followed (the annotation is what turns checking on), and a frame whose
// reference count differs between merged branches or across a loop
// iteration stops being tracked rather than guessed at.
package refsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corona/internal/analysis"
)

// Analyzer is the refsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "refsafe",
	Doc:  "checks SharedFrame reference-count discipline via //corona:owns and //corona:borrows annotations",
	Run:  run,
}

const (
	modeNone = iota
	modeOwns
	modeBorrows
)

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		anns:     map[*types.Func]map[int]int{},
		reported: map[token.Pos]bool{},
	}
	c.collectAnnotations()
	for _, pkg := range pass.Pkgs {
		switch pkg.Name {
		case "core", "cluster", "transport":
		default:
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					c.checkFunc(pkg, fd)
				}
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// anns maps an annotated function to parameter index → mode.
	anns map[*types.Func]map[int]int
	// reported dedupes per-frame diagnostics that several paths reach.
	reported map[token.Pos]bool
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// ---- annotations --------------------------------------------------------

// collectAnnotations parses //corona:owns and //corona:borrows doc lines
// on every function of the program, validating parameter names and types.
func (c *checker) collectAnnotations() {
	for _, pkg := range c.pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, line := range fd.Doc.List {
					c.parseAnnotation(pkg, fd, line)
				}
			}
		}
	}
}

func (c *checker) parseAnnotation(pkg *analysis.Package, fd *ast.FuncDecl, line *ast.Comment) {
	text := strings.TrimPrefix(line.Text, "//")
	var mode int
	var rest string
	switch {
	case strings.HasPrefix(text, "corona:owns"):
		mode, rest = modeOwns, text[len("corona:owns"):]
	case strings.HasPrefix(text, "corona:borrows"):
		mode, rest = modeBorrows, text[len("corona:borrows"):]
	default:
		return
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	word := "owns"
	if mode == modeBorrows {
		word = "borrows"
	}
	names := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	if len(names) == 0 {
		c.pass.Reportf(fd.Name.Pos(), "corona:%s names no parameter", word)
		return
	}
	for _, name := range names {
		idx, t := paramByName(fd, pkg.Info, name)
		if idx < 0 {
			c.pass.Reportf(fd.Name.Pos(), "corona:%s names unknown parameter %q", word, name)
			continue
		}
		if !isFrame(t) && !isFrameSlice(t) {
			c.pass.Reportf(fd.Name.Pos(), "corona:%s parameter %q is not a *transport.SharedFrame or a slice of them", word, name)
			continue
		}
		m := c.anns[fn]
		if m == nil {
			m = map[int]int{}
			c.anns[fn] = m
		}
		if prev, ok := m[idx]; ok && prev != mode {
			c.pass.Reportf(fd.Name.Pos(), "parameter %q annotated both corona:owns and corona:borrows", name)
			continue
		}
		m[idx] = mode
	}
}

func paramByName(fd *ast.FuncDecl, info *types.Info, name string) (int, types.Type) {
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				if obj := info.Defs[id]; obj != nil {
					return idx, obj.Type()
				}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1, nil
}

// ---- per-function state -------------------------------------------------

const (
	kindCreated  = iota // bound to a NewSharedFrame result in this function
	kindOwned           // //corona:owns parameter
	kindBorrowed        // //corona:borrows or unannotated parameter
)

// frameState is the abstract state of one tracked frame variable.
type frameState struct {
	name     string
	origin   token.Pos
	kind     int
	refs     int // references this function owns
	deferred int // releases registered via defer
	released bool
	escaped  bool
	pending  *pendingSend
}

func (s *frameState) clone() *frameState {
	cp := *s
	if s.pending != nil {
		p := *s.pending
		cp.pending = &p
	}
	return &cp
}

// pendingSend is an unresolved SendShared whose transfer depends on the
// recorded error variable: nil error → one reference moved to the pump.
type pendingSend struct {
	errObj types.Object
	pos    token.Pos
}

// pendingBatch is an unresolved SendSharedRun: once the error variable is
// checked, the rejection branch must release elements of the slice.
type pendingBatch struct {
	errObj   types.Object
	sliceObj types.Object
	pos      token.Pos
	callee   string
}

type env struct {
	frames  map[types.Object]*frameState
	batches []*pendingBatch
}

func newEnv() *env { return &env{frames: map[types.Object]*frameState{}} }

func (e *env) clone() *env {
	c := newEnv()
	for k, v := range e.frames {
		c.frames[k] = v.clone()
	}
	c.batches = append(c.batches, e.batches...)
	return c
}

// merge folds a branch env back into the continuation. A frame tracked on
// only one side, or with diverging defer/pending bookkeeping, stops being
// tracked; diverging reference counts keep the higher one, so a branch
// that forgets a Release still reports a leak at the exit.
func (e *env) merge(b *env) {
	for k, s := range e.frames {
		o, ok := b.frames[k]
		if !ok {
			delete(e.frames, k)
			continue
		}
		if o.escaped || s.escaped {
			s.escaped = true
			continue
		}
		if o.deferred != s.deferred || (o.pending == nil) != (s.pending == nil) {
			delete(e.frames, k)
			continue
		}
		if o.pending != nil && s.pending != nil && o.pending.errObj != s.pending.errObj {
			delete(e.frames, k)
			continue
		}
		if o.refs > s.refs {
			s.refs = o.refs
		}
		if o.released != s.released {
			s.released = false // dead on one path only: no use-after guesses
		}
	}
	// Batch pendings: keep the union; resolution removes from both sides.
	seen := map[*pendingBatch]bool{}
	for _, p := range e.batches {
		seen[p] = true
	}
	for _, p := range b.batches {
		if !seen[p] {
			e.batches = append(e.batches, p)
		}
	}
}

func (e *env) dropBatch(p *pendingBatch) {
	for i, q := range e.batches {
		if q == p {
			e.batches = append(e.batches[:i], e.batches[i+1:]...)
			return
		}
	}
}

// ---- the walk -----------------------------------------------------------

func (c *checker) checkFunc(pkg *analysis.Package, fd *ast.FuncDecl) {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	env := newEnv()
	modes := c.anns[fn]
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			if obj := pkg.Info.Defs[id]; obj != nil && isFrame(obj.Type()) {
				st := &frameState{name: id.Name, origin: id.Pos(), kind: kindBorrowed}
				if modes[idx] == modeOwns {
					st.kind, st.refs = kindOwned, 1
				}
				env.frames[obj] = st
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	if !c.walkStmts(pkg, fd.Body.List, env) {
		c.exitCheck(env, fd.Body.Rbrace)
	}
}

// exitCheck fires the leak diagnostics for one path reaching a function
// exit.
func (c *checker) exitCheck(e *env, at token.Pos) {
	for _, st := range e.frames {
		if st.escaped || st.released {
			continue
		}
		if st.pending != nil {
			c.reportOnce(st.pending.pos, "SendShared error unchecked: the rejection path leaks frame %q", st.name)
			continue
		}
		if n := st.refs - st.deferred; n > 0 {
			c.reportOnce(st.origin, "frame %q can leak: a path reaches function exit still holding %d reference(s)", st.name, n)
		} else if n < 0 {
			c.reportOnce(st.origin, "deferred releases exceed the references %q owns", st.name)
		}
	}
	for _, p := range e.batches {
		c.reportOnce(p.pos, "%s error unchecked: rejected frames leak", p.callee)
	}
	_ = at
}

// walkStmts walks one statement list; true means the path terminated
// (return, panic, break/continue).
func (c *checker) walkStmts(pkg *analysis.Package, stmts []ast.Stmt, e *env) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if c.intrinsicStmt(pkg, e, s.X) {
				continue
			}
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					c.evalExpr(pkg, e, call)
					return true
				}
			}
			c.evalExpr(pkg, e, s.X)
		case *ast.AssignStmt:
			c.walkAssign(pkg, e, s)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, id := range vs.Names {
						if i < len(vs.Values) {
							c.bindValue(pkg, e, id, vs.Values[i], true)
						}
					}
				}
			}
		case *ast.DeferStmt:
			c.walkDefer(pkg, e, s.Call)
		case *ast.GoStmt:
			for _, a := range s.Call.Args {
				c.evalExpr(pkg, e, a)
			}
			c.escapeCaptured(pkg, e, s.Call.Fun)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if obj := identObj(pkg, r); obj != nil {
					if st, ok := e.frames[obj]; ok {
						st.escaped = true // ownership moves to the caller
						continue
					}
				}
				c.evalExpr(pkg, e, r)
			}
			c.exitCheck(e, s.Pos())
			return true
		case *ast.BranchStmt:
			return true // break/continue/goto: path leaves this list
		case *ast.BlockStmt:
			if c.walkStmts(pkg, s.List, e) {
				return true
			}
		case *ast.IfStmt:
			if c.walkIf(pkg, e, s) {
				return true
			}
		case *ast.ForStmt:
			if s.Init != nil {
				c.walkStmts(pkg, []ast.Stmt{s.Init}, e)
			}
			if s.Cond != nil {
				c.evalExpr(pkg, e, s.Cond)
			}
			loop := e.clone()
			c.walkStmts(pkg, s.Body.List, loop)
			if s.Post != nil {
				c.walkStmts(pkg, []ast.Stmt{s.Post}, loop)
			}
			c.loopReconcile(e, loop)
		case *ast.RangeStmt:
			c.evalExpr(pkg, e, s.X)
			loop := e.clone()
			c.walkStmts(pkg, s.Body.List, loop)
			c.loopReconcile(e, loop)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			c.walkBranches(pkg, e, s)
		case *ast.LabeledStmt:
			if c.walkStmts(pkg, []ast.Stmt{s.Stmt}, e) {
				return true
			}
		default:
			c.evalExpr(pkg, e, s)
		}
	}
	return false
}

// walkIf handles the branch split, including conditional-transfer
// resolution when the condition checks a pending send's error variable.
func (c *checker) walkIf(pkg *analysis.Package, e *env, s *ast.IfStmt) bool {
	if s.Init != nil {
		c.walkStmts(pkg, []ast.Stmt{s.Init}, e)
	}
	errObj, isNeq := nilCheck(pkg, s.Cond)
	if errObj == nil {
		c.evalExpr(pkg, e, s.Cond)
	}

	envThen, envElse := e.clone(), e.clone()
	if errObj != nil {
		errEnv, okEnv := envThen, envElse // err != nil: then is the rejection branch
		errNode := ast.Node(s.Body)
		if !isNeq {
			errEnv, okEnv = envElse, envThen
			errNode = s.Else // may be nil: no rejection handling at all
		}
		for _, st := range okEnv.frames {
			if st.pending != nil && st.pending.errObj == errObj {
				st.pending = nil
				if st.refs > 0 {
					st.refs-- // transferred to the pump
				} else {
					st.escaped = true
				}
			}
		}
		for _, st := range errEnv.frames {
			if st.pending != nil && st.pending.errObj == errObj {
				st.pending = nil // rejection: the caller still owns its refs
			}
		}
		for _, p := range append([]*pendingBatch(nil), e.batches...) {
			if p.errObj != errObj {
				continue
			}
			if errNode == nil || !c.releasesSlice(pkg, errNode, p.sliceObj) {
				c.reportOnce(p.pos, "%s rejection path must release the unsent frames of %q", p.callee, objName(p.sliceObj))
			}
			envThen.dropBatch(p)
			envElse.dropBatch(p)
		}
	}

	tThen := c.walkStmts(pkg, s.Body.List, envThen)
	tElse := false
	if s.Else != nil {
		tElse = c.walkStmts(pkg, []ast.Stmt{s.Else}, envElse)
	}
	switch {
	case tThen && tElse:
		return true
	case tThen:
		*e = *envElse
	case tElse:
		*e = *envThen
	default:
		*e = *envThen
		e.merge(envElse)
	}
	return false
}

// walkBranches handles switch/select: each clause on a cloned env, all
// merged into the continuation.
func (c *checker) walkBranches(pkg *analysis.Package, e *env, s ast.Stmt) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmts(pkg, []ast.Stmt{s.Init}, e)
		}
		if s.Tag != nil {
			c.evalExpr(pkg, e, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmts(pkg, []ast.Stmt{s.Init}, e)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var outs []*env
	for _, cl := range clauses {
		be := e.clone()
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			body = cl.Body
		case *ast.CommClause:
			body = cl.Body
		}
		if !c.walkStmts(pkg, body, be) {
			outs = append(outs, be)
		}
	}
	if len(outs) == 0 {
		return // keep entry env: zero-clause or all-terminating switches
	}
	*e = *outs[0]
	for _, o := range outs[1:] {
		e.merge(o)
	}
}

// loopReconcile folds one symbolic loop iteration back into the
// continuation: frames whose state survived the iteration unchanged stay
// tracked, everything else is dropped; frames and sends created inside
// the iteration must be settled by its end.
func (c *checker) loopReconcile(e *env, loop *env) {
	for k, st := range e.frames {
		o, ok := loop.frames[k]
		if !ok || o.refs != st.refs || o.released != st.released || o.escaped != st.escaped ||
			o.deferred != st.deferred || (o.pending == nil) != (st.pending == nil) {
			delete(e.frames, k)
		}
	}
	entry := map[types.Object]bool{}
	for k := range e.frames {
		entry[k] = true
	}
	for k, st := range loop.frames {
		if entry[k] || st.escaped || st.released {
			continue
		}
		if st.pending != nil {
			c.reportOnce(st.pending.pos, "SendShared error unchecked: the rejection path leaks frame %q", st.name)
			continue
		}
		if n := st.refs - st.deferred; n > 0 {
			c.reportOnce(st.origin, "frame %q can leak: a loop iteration ends still holding %d reference(s)", st.name, n)
		}
	}
	had := map[*pendingBatch]bool{}
	for _, p := range e.batches {
		had[p] = true
	}
	for _, p := range loop.batches {
		if !had[p] {
			c.reportOnce(p.pos, "%s error unchecked: rejected frames leak", p.callee)
		}
	}
}

// ---- statements ---------------------------------------------------------

// walkAssign processes one assignment: intrinsic send results, new frame
// bindings, aliasing, and stores.
func (c *checker) walkAssign(pkg *analysis.Package, e *env, s *ast.AssignStmt) {
	// err := pump.SendShared(f, high) / n, err := pump.SendSharedRun(fs, high)
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if name, ok := c.intrinsicSend(pkg, call); ok {
				var errExpr ast.Expr
				switch name {
				case "SendShared":
					if len(s.Lhs) == 1 {
						errExpr = s.Lhs[0]
					}
				case "SendSharedRun":
					if len(s.Lhs) == 2 {
						errExpr = s.Lhs[1]
					}
				}
				c.recordSend(pkg, e, call, name, identObj(pkg, errExpr))
				return
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				c.bindValue(pkg, e, id, s.Rhs[i], s.Tok == token.DEFINE)
				continue
			}
			// Store into a field/index/deref: a tracked rhs escapes.
			c.evalExpr(pkg, e, lhs)
			if obj := identObj(pkg, s.Rhs[i]); obj != nil {
				if st, ok := e.frames[obj]; ok {
					c.useCheck(pkg, st, s.Rhs[i].Pos())
					st.escaped = true
					continue
				}
			}
			c.evalExpr(pkg, e, s.Rhs[i])
		}
		return
	}
	for _, r := range s.Rhs {
		c.evalExpr(pkg, e, r)
	}
}

// bindValue binds one identifier to a value: a NewSharedFrame result
// starts tracking, anything else ends it.
func (c *checker) bindValue(pkg *analysis.Package, e *env, id *ast.Ident, rhs ast.Expr, define bool) {
	obj := pkg.Info.Defs[id]
	if obj == nil {
		obj = pkg.Info.Uses[id]
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && c.isNewFrame(pkg, call) {
		for _, a := range call.Args {
			c.evalExpr(pkg, e, a)
		}
		if obj != nil && isFrame(obj.Type()) {
			if old, ok := e.frames[obj]; ok && !old.escaped && !old.released && old.refs > 0 {
				c.reportOnce(old.origin, "frame %q can leak: a path reaches function exit still holding %d reference(s)", old.name, old.refs)
			}
			e.frames[obj] = &frameState{name: id.Name, origin: call.Pos(), kind: kindCreated, refs: 1}
		}
		return
	}
	// Aliasing a tracked frame forks ownership bookkeeping: stop tracking.
	if src := identObj(pkg, rhs); src != nil {
		if st, ok := e.frames[src]; ok {
			c.useCheck(pkg, st, rhs.Pos())
			st.escaped = true
		}
	} else {
		c.evalExpr(pkg, e, rhs)
	}
	if obj != nil {
		delete(e.frames, obj) // rebound to an untracked value
	}
	_ = define
}

// walkDefer handles defer f.Release() (counted at every exit) and escapes
// frames captured by deferred closures.
func (c *checker) walkDefer(pkg *analysis.Package, e *env, call *ast.CallExpr) {
	if obj, name := c.frameMethod(pkg, call); obj != nil && name == "Release" {
		if st, ok := e.frames[obj]; ok {
			st.deferred++
			return
		}
	}
	for _, a := range call.Args {
		c.evalExpr(pkg, e, a)
	}
	c.escapeCaptured(pkg, e, call.Fun)
}

// ---- expressions --------------------------------------------------------

// intrinsicStmt handles an intrinsic send in statement position: its
// error result is discarded, so the rejection path leaks by construction.
func (c *checker) intrinsicStmt(pkg *analysis.Package, e *env, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	name, ok := c.intrinsicSend(pkg, call)
	if !ok {
		return false
	}
	c.pass.Reportf(call.Pos(), "%s error discarded: the rejection path leaks", name)
	c.recordSend(pkg, e, call, name, nil)
	return true
}

// recordSend registers a pending conditional transfer for an intrinsic
// pump send; a nil errObj means the error was discarded (already
// reported), so the frame just stops being tracked.
func (c *checker) recordSend(pkg *analysis.Package, e *env, call *ast.CallExpr, name string, errObj types.Object) {
	if len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	for _, a := range call.Args[1:] {
		c.evalExpr(pkg, e, a)
	}
	switch name {
	case "SendShared":
		if inner, ok := arg.(*ast.CallExpr); ok && c.isNewFrame(pkg, inner) {
			c.pass.Reportf(inner.Pos(), "frame constructed inline is lost if %s rejects it", name)
			return
		}
		obj := identObj(pkg, arg)
		if obj == nil {
			c.evalExpr(pkg, e, arg)
			return
		}
		st, ok := e.frames[obj]
		if !ok {
			return
		}
		c.useCheck(pkg, st, arg.Pos())
		if errObj == nil {
			st.escaped = true // error discarded: reported at the call
			return
		}
		st.pending = &pendingSend{errObj: errObj, pos: call.Pos()}
	case "SendSharedRun":
		obj := identObj(pkg, arg)
		if obj == nil || errObj == nil {
			return
		}
		e.batches = append(e.batches, &pendingBatch{
			errObj: errObj, sliceObj: obj, pos: call.Pos(), callee: name,
		})
	}
}

// evalExpr walks an expression for frame uses: transfers to annotated
// callees, escapes, Retain/Release, use-after-release.
func (c *checker) evalExpr(pkg *analysis.Package, e *env, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.escapeCaptured(pkg, e, n)
			return false
		case *ast.CompositeLit:
			// A frame placed in a literal (struct, slice, map) follows the
			// container from here on.
			c.escapeCaptured(pkg, e, n)
			return false
		case *ast.SendStmt:
			c.escapeCaptured(pkg, e, n.Value)
			c.evalExpr(pkg, e, n.Chan)
			return false
		case *ast.CallExpr:
			if obj, name := c.frameMethod(pkg, n); obj != nil {
				if st, ok := e.frames[obj]; ok {
					switch name {
					case "Retain":
						c.useCheck(pkg, st, n.Pos())
						st.refs++
					case "Release":
						c.releaseCheck(st, n.Pos())
					default:
						c.useCheck(pkg, st, n.Pos())
					}
					return false
				}
			}
			if name, ok := c.intrinsicSend(pkg, n); ok {
				// Reached outside statement/assign position (e.g.
				// `return p.SendShared(f, high)`): the rejection path has
				// no handler in this function.
				if obj := identObj(pkg, firstArg(n)); obj != nil {
					if st, ok := e.frames[obj]; ok {
						c.useCheck(pkg, st, n.Pos())
						c.pass.Reportf(n.Pos(), "%s error leaves this function unchecked: the rejection path leaks frame %q", name, st.name)
						st.escaped = true
						return false
					}
				}
				return true
			}
			c.callArgs(pkg, e, n)
			return false
		case *ast.Ident:
			if obj := pkg.Info.Uses[n]; obj != nil {
				if st, ok := e.frames[obj]; ok {
					c.useCheck(pkg, st, n.Pos())
				}
			}
		}
		return true
	})
}

// callArgs applies annotated transfer semantics to a call's frame
// arguments: owns consumes, borrows keeps, anything else escapes.
func (c *checker) callArgs(pkg *analysis.Package, e *env, call *ast.CallExpr) {
	modes := c.calleeModes(pkg, call)
	_, isAppend := builtinName(pkg, call.Fun)
	for i, a := range call.Args {
		obj := identObj(pkg, a)
		if obj == nil {
			c.evalExpr(pkg, e, a)
			continue
		}
		st, ok := e.frames[obj]
		if !ok {
			continue
		}
		c.useCheck(pkg, st, a.Pos())
		switch {
		case isAppend:
			st.escaped = true // joined a slice: tracked no further
		case modes[i] == modeOwns:
			if st.refs > 0 {
				st.refs--
			} else {
				st.escaped = true
			}
			if st.refs == 0 && st.kind == kindCreated && st.deferred == 0 {
				st.released = true // consumed: the last owned ref is gone
			}
		case modes[i] == modeBorrows:
			// Callee keeps nothing: state unchanged.
		default:
			st.escaped = true // unannotated callee: contract unknown
		}
	}
	c.evalExpr(pkg, e, call.Fun)
}

func (c *checker) releaseCheck(st *frameState, pos token.Pos) {
	if st.released {
		c.reportOnce(pos, "use of %q after release", st.name)
		st.escaped = true
		return
	}
	if st.refs == 0 {
		if st.kind == kindBorrowed {
			c.reportOnce(pos, "%q releases a reference it does not own (parameter lacks //corona:owns)", st.name)
		} else {
			c.reportOnce(pos, "release of %q past its last owned reference", st.name)
		}
		st.escaped = true
		return
	}
	st.refs--
	if st.refs == 0 && st.kind != kindBorrowed && st.deferred == 0 {
		st.released = true
	}
}

func (c *checker) useCheck(pkg *analysis.Package, st *frameState, pos token.Pos) {
	if st.released {
		c.reportOnce(pos, "use of %q after release", st.name)
		st.escaped = true
	}
	_ = pkg
}

// escapeCaptured marks every tracked frame referenced inside fn (a
// closure or deferred/spawned callee expression) as escaped.
func (c *checker) escapeCaptured(pkg *analysis.Package, e *env, fn ast.Node) {
	if fn == nil {
		return
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				if st, ok := e.frames[obj]; ok {
					st.escaped = true
				}
			}
		}
		return true
	})
}

// releasesSlice reports whether the rejection-branch subtree releases
// elements of the run's slice by index (fs[k].Release()) — the only form
// that can skip the admitted prefix, which already belongs to the pump.
func (c *checker) releasesSlice(pkg *analysis.Package, node ast.Node, sliceObj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok && identObj(pkg, ix.X) == sliceObj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ---- classification helpers ---------------------------------------------

// calleeModes resolves a call's statically-known callee to its annotated
// parameter modes (nil when unannotated or unresolved).
func (c *checker) calleeModes(pkg *analysis.Package, call *ast.CallExpr) map[int]int {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return c.anns[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return c.anns[fn]
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return c.anns[fn]
		}
	}
	return nil
}

// frameMethod matches a method call on a tracked-typed receiver
// identifier, returning the receiver object and method name.
func (c *checker) frameMethod(pkg *analysis.Package, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	obj := identObj(pkg, sel.X)
	if obj == nil || !isFrame(obj.Type()) {
		return nil, ""
	}
	return obj, sel.Sel.Name
}

// intrinsicSend matches Pump.SendShared / SendSharedRun.
func (c *checker) intrinsicSend(pkg *analysis.Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "SendShared", "SendSharedRun":
	default:
		return "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return "", false
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Name() != "Pump" || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "transport" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isNewFrame matches the frame constructors, transport.NewSharedFrame and
// NewChunkFrame.
func (c *checker) isNewFrame(pkg *analysis.Package, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "transport" {
		return false
	}
	return fn.Name() == "NewSharedFrame" || fn.Name() == "NewChunkFrame"
}

func isFrame(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "SharedFrame" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "transport"
}

func isFrameSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isFrame(s.Elem())
}

// nilCheck matches `x != nil` / `x == nil`, returning x's object.
func nilCheck(pkg *analysis.Package, cond ast.Expr) (types.Object, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNil(pkg, y) {
		if obj := identObj(pkg, x); obj != nil {
			return obj, b.Op == token.NEQ
		}
	}
	if isNil(pkg, x) {
		if obj := identObj(pkg, y); obj != nil {
			return obj, b.Op == token.NEQ
		}
	}
	return nil, false
}

func isNil(pkg *analysis.Package, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pkg.Info.Uses[id].(*types.Nil)
	return isNilObj || id.Name == "nil"
}

func identObj(pkg *analysis.Package, e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

func objName(obj types.Object) string {
	if obj == nil {
		return "?"
	}
	return obj.Name()
}

func builtinName(pkg *analysis.Package, fun ast.Expr) (string, bool) {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
		return b.Name(), b.Name() == "append"
	}
	return "", false
}

func firstArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	return call.Args[0]
}
