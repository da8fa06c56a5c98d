package analysis

import "go/ast"

// LoopLock flags per-iteration mutex acquisition: a sync.Mutex/RWMutex
// Lock, RLock, TryLock, or TryRLock sitting inside a for/range body (or
// a for condition/post statement, which also re-executes every pass).
//
// The rule exists because of the receive hot path. PR 6's batched read
// loop retires up to 32 datagrams per wakeup; a mutex acquired once per
// datagram — the pre-batching loop fetched its handler exactly that way
// — re-serializes the loop and shows up directly in ns/datagram. The
// repository's answer is to hoist the acquisition (lock once around the
// loop), load the shared value through an atomic (atomic.Pointer for
// the transport handler), or snapshot under the lock before iterating.
//
// Per-iteration locking of a single mutex that is the point — a drain
// loop deliberately re-taking the lock each round so senders interleave
// — carries an //mclint:looplock waiver with the justification.
var LoopLock = &Analyzer{
	Name: "looplock",
	Doc: "forbid per-iteration mutex acquisition inside loop bodies; " +
		"hoist the lock, snapshot, or use an atomic",
	Run: runLoopLock,
}

func runLoopLock(pass *Pass) {
	for _, f := range pass.Files {
		loopLockScan(pass, f, false)
	}
}

// loopLockScan walks n reporting mutex acquisitions reached while
// inLoop. Loop bodies (and conditions/posts, which re-run per
// iteration) set it; function literals clear it — a callback defined
// inside a loop executes later, not once per pass of this loop.
func loopLockScan(pass *Pass, n ast.Node, inLoop bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			loopLockScan(pass, n.Body, false)
			return false
		case *ast.ForStmt:
			loopLockScan(pass, n.Init, inLoop)
			loopLockScan(pass, n.Cond, true)
			loopLockScan(pass, n.Post, true)
			loopLockScan(pass, n.Body, true)
			return false
		case *ast.RangeStmt:
			loopLockScan(pass, n.X, inLoop) // the range operand evaluates once
			loopLockScan(pass, n.Body, true)
			return false
		case *ast.CallExpr:
			if !inLoop {
				return true
			}
			if mutex, method, ok := mutexOp(pass, n); ok {
				switch method {
				case "Lock", "RLock", "TryLock", "TryRLock":
					pass.Reportf(n.Pos(),
						"%s.%s acquired inside a loop body; hoist the lock, snapshot the data, or use an atomic — or waive with //mclint:looplock",
						mutex, method)
				}
			}
			return true
		}
		return true
	})
}
