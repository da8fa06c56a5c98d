package analysis

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// LockScope enforces PR 1's compute-outside-the-lock rule in the
// concurrent packages: while a sync.Mutex or sync.RWMutex is held, the
// critical section may only move data — field reads/writes, builtins,
// conversions — not call functions. Calls under a lock are how a shared
// cache such as ReachCache would bring back the serial bottleneck that
// computing outside the lock removes (an SPT build under its intern lock
// would stall every worker with a miss), and calls into
// *caller-supplied* code under a lock (a transport Policy, a Handler)
// are self-deadlocks waiting for the callback to touch the locked
// structure.
//
// The tracking is a conservative linear scan per function: Lock/RLock
// puts the receiver expression into the held set, Unlock/RUnlock removes
// it, `defer mu.Unlock()` keeps it held to function end (which is what
// actually happens). Branches are scanned with a copy of the state;
// a branch that terminates (return/break/continue) does not leak its
// state past the join. Function literals are analyzed separately with an
// empty held set — a goroutine or stored callback does not inherit the
// creating goroutine's locks.
//
// False positives (a deliberate, documented call under a lock) carry an
// //mclint:lockscope waiver with the justification.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc: "forbid function calls while a sync.Mutex/RWMutex is held; " +
		"compute outside the lock, mutate state inside it",
	Packages: []string{
		"sessiondir/internal/des",
		"sessiondir/internal/topology",
		"sessiondir/internal/transport",
	},
	Run: runLockScope,
}

func runLockScope(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					newLockState(pass).stmts(fn.Body.List)
				}
			case *ast.FuncLit:
				newLockState(pass).stmts(fn.Body.List)
			}
			return true
		})
	}
}

// lockState walks one function body tracking which mutexes are held.
type lockState struct {
	pass *Pass
	held map[string]token.Pos // mutex expr (printed) → where it was locked
}

func newLockState(pass *Pass) *lockState {
	return &lockState{pass: pass, held: map[string]token.Pos{}}
}

func (ls *lockState) clone() *lockState {
	return &lockState{pass: ls.pass, held: maps.Clone(ls.held)}
}

// stmts scans a statement list in order; the receiver's held set is the
// state after the list. It reports whether the list terminates control
// flow (ends in return/break/continue/goto/panic).
func (ls *lockState) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if ls.stmt(s) {
			return true
		}
	}
	return false
}

func (ls *lockState) stmt(s ast.Stmt) (terminates bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.expr(e)
		}
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		ls.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.expr(e)
		}
		for _, e := range s.Lhs {
			ls.expr(e)
		}
	case *ast.DeclStmt, *ast.EmptyStmt:
		if d, ok := s.(*ast.DeclStmt); ok {
			ls.expr(d.Decl)
		}
	case *ast.IncDecStmt:
		ls.expr(s.X)
	case *ast.SendStmt:
		ls.expr(s.Chan)
		ls.expr(s.Value)
	case *ast.DeferStmt:
		ls.deferCall(s.Call)
	case *ast.GoStmt:
		// Argument expressions evaluate now (under any held locks); the
		// call itself runs on a fresh goroutine with no inherited locks.
		for _, a := range s.Call.Args {
			ls.expr(a)
		}
	case *ast.BlockStmt:
		return ls.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		ls.expr(s.Cond)
		body := ls.clone()
		bodyTerm := body.stmts(s.Body.List)
		var elseState *lockState
		elseTerm := false
		if s.Else != nil {
			elseState = ls.clone()
			elseTerm = elseState.stmt(s.Else)
		}
		// Join: adopt the state of branches that fall through. A branch
		// that terminates (early unlock-and-return) does not leak.
		switch {
		case bodyTerm && elseState == nil:
			// keep ls as-is (the not-taken path)
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			ls.held = elseState.held
		case elseTerm || elseState == nil:
			ls.held = body.held
		default:
			ls.held = intersect(body.held, elseState.held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		if s.Cond != nil {
			ls.expr(s.Cond)
		}
		body := ls.clone()
		body.stmts(s.Body.List)
		if s.Post != nil {
			body.stmt(s.Post)
		}
		ls.held = intersect(ls.held, body.held)
	case *ast.RangeStmt:
		ls.expr(s.X)
		body := ls.clone()
		body.stmts(s.Body.List)
		ls.held = intersect(ls.held, body.held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ls.caseBodies(s)
	case *ast.LabeledStmt:
		return ls.stmt(s.Stmt)
	}
	return false
}

// caseBodies scans each clause of a switch/select with its own copy of
// the state; the join keeps only mutexes held on every fall-through path.
func (ls *lockState) caseBodies(s ast.Stmt) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		if s.Tag != nil {
			ls.expr(s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	joined := ls.held
	first := true
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		branch := ls.clone()
		if !branch.stmts(body) {
			if first {
				joined = branch.held
				first = false
			} else {
				joined = intersect(joined, branch.held)
			}
		}
	}
	ls.held = joined
}

// expr scans an expression subtree for calls, in syntactic order,
// without descending into function literals (their bodies run later,
// lock-free from this goroutine's perspective — runLockScope analyzes
// them separately).
func (ls *lockState) expr(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			ls.call(n)
			return false // ls.call scans the arguments itself
		}
		return true
	})
}

func (ls *lockState) call(call *ast.CallExpr) {
	// Arguments evaluate before the call transfers control.
	for _, a := range call.Args {
		ls.expr(a)
	}
	if mutex, method, ok := ls.mutexOp(call); ok {
		switch method {
		case "Lock", "RLock":
			ls.held[mutex] = call.Pos()
		case "Unlock", "RUnlock":
			delete(ls.held, mutex)
		}
		return
	}
	if ls.pass.Info.Types[call.Fun].IsType() {
		ls.expr(call.Fun)
		return // conversion, not a call
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := ls.pass.Info.Uses[id].(*types.Builtin); builtin {
			return
		}
	}
	ls.expr(call.Fun)
	if len(ls.held) == 0 {
		return
	}
	mutex, pos := ls.oldestHeld()
	ls.pass.Reportf(call.Pos(),
		"%s called while %q is held (locked at %s); compute outside the critical section or waive with //mclint:lockscope",
		exprString(call.Fun), mutex, ls.pass.Fset.Position(pos))
}

// deferCall handles `defer expr(...)`: a deferred Unlock keeps the mutex
// held for the rest of the function (that is its meaning); any other
// deferred call is treated as occurring here for lock purposes.
func (ls *lockState) deferCall(call *ast.CallExpr) {
	if _, method, ok := ls.mutexOp(call); ok && (method == "Unlock" || method == "RUnlock") {
		return // held until function exit — subsequent statements still see it held
	}
	ls.call(call)
}

// mutexOp matches calls of the form expr.Lock / RLock / Unlock / RUnlock
// / TryLock / TryRLock where expr is a sync.Mutex or sync.RWMutex
// (possibly behind a pointer), returning the printed receiver expression
// and the method name. Locks reached through struct embedding are not
// recognized; this repository names its mutex fields explicitly.
func (ls *lockState) mutexOp(call *ast.CallExpr) (mutex, method string, ok bool) {
	return mutexOp(ls.pass, call)
}

// mutexOp is the shared matcher behind lockscope and looplock.
func mutexOp(pass *Pass, call *ast.CallExpr) (mutex, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// oldestHeld picks the longest-held mutex for the diagnostic (and, being
// position-based, keeps the message deterministic when several are held).
func (ls *lockState) oldestHeld() (string, token.Pos) {
	var bestName string
	var bestPos token.Pos
	//mclint:maporder a minimum over positions, which no two held mutexes share
	for name, pos := range ls.held {
		if bestName == "" || pos < bestPos {
			bestName, bestPos = name, pos
		}
	}
	return bestName, bestPos
}

func intersect(a, b map[string]token.Pos) map[string]token.Pos {
	out := maps.Clone(a)
	maps.DeleteFunc(out, func(k string, _ token.Pos) bool {
		_, ok := b[k]
		return !ok
	})
	return out
}

func exprString(e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return sb.String()
}
